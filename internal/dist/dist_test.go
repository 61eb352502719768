package dist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// continuousCase pairs a distribution with a representative support
// range for generic law checks.
type continuousCase struct {
	name   string
	d      Continuous
	lo, hi float64 // probe range for CDF/Quantile identities
}

func cases() []continuousCase {
	return []continuousCase{
		{"Exp(1.1)", Exp(1.1), 1e-3, 20},
		{"Pareto(1,0.9)", NewPareto(1, 0.9), 1, 1e6},
		{"Pareto(0.5,1.4)", NewPareto(0.5, 1.4), 0.5, 1e4},
		{"TruncPareto", NewTruncatedPareto(0.01, 0.95, 500), 0.01, 500},
		{"Normal(3,2)", NewNormal(3, 2), -10, 16},
		{"LogNormal(0,1)", NewLogNormal(0, 1), 1e-4, 100},
		{"Log2Normal(paper)", NewLog2Normal(math.Log2(100), 2.24), 1e-2, 1e7},
		{"Gumbel(1,2)", NewGumbel(1, 2), -15, 30},
		{"LogExtreme(paper)", NewLogExtreme(math.Log2(100), math.Log2(3.5)), 1e-2, 1e8},
		{"Weibull(2,0.7)", NewWeibull(2, 0.7), 1e-4, 100},
	}
}

func TestCDFMonotoneAndBounded(t *testing.T) {
	for _, c := range cases() {
		prev := -1.0
		for i := 0; i <= 200; i++ {
			x := c.lo + (c.hi-c.lo)*float64(i)/200
			f := c.d.CDF(x)
			if f < 0 || f > 1 {
				t.Errorf("%s: CDF(%g) = %g outside [0,1]", c.name, x, f)
			}
			if f < prev-1e-12 {
				t.Errorf("%s: CDF not monotone at %g: %g < %g", c.name, x, f, prev)
			}
			prev = f
		}
	}
}

func TestQuantileCDFIdentity(t *testing.T) {
	for _, c := range cases() {
		for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
			x := c.d.Quantile(p)
			got := c.d.CDF(x)
			if math.Abs(got-p) > 1e-6 {
				t.Errorf("%s: CDF(Quantile(%g)) = %g", c.name, p, got)
			}
		}
	}
}

func TestSamplesMatchCDF(t *testing.T) {
	// Kolmogorov–Smirnov bound: with n=20000, D_n < 1.63/sqrt(n) w.p. 99%.
	rng := rand.New(rand.NewSource(42))
	const n = 20000
	bound := 1.9 / math.Sqrt(n)
	for _, c := range cases() {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = c.d.Rand(rng)
		}
		sort.Float64s(xs)
		var d float64
		for i, x := range xs {
			f := c.d.CDF(x)
			e1 := math.Abs(f - float64(i)/n)
			e2 := math.Abs(f - float64(i+1)/n)
			d = math.Max(d, math.Max(e1, e2))
		}
		if d > bound {
			t.Errorf("%s: KS distance %g exceeds %g", c.name, d, bound)
		}
	}
}

func TestQuantilePanicsOutsideUnit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for p > 1")
		}
	}()
	Exp(1).Quantile(1.5)
}

func TestExponentialMoments(t *testing.T) {
	e := Exp(2.5)
	if e.Mean() != 2.5 || e.Var() != 6.25 || e.Rate() != 0.4 {
		t.Errorf("unexpected moments: %+v", e)
	}
	if math.Abs(e.CDF(2.5)-(1-math.Exp(-1))) > 1e-12 {
		t.Error("CDF at mean wrong")
	}
}

func TestExpGeometricMeanRoundTrip(t *testing.T) {
	e := Exp(1.1)
	g := e.GeometricMean()
	e2 := ExpFromGeometricMean(g)
	if math.Abs(e2.MeanVal-1.1) > 1e-12 {
		t.Errorf("round trip mean %g", e2.MeanVal)
	}
	// Verify empirically: mean of log of samples ≈ log geometric mean.
	rng := rand.New(rand.NewSource(7))
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += math.Log(e.Rand(rng))
	}
	if got := math.Exp(sum / n); math.Abs(got-g)/g > 0.02 {
		t.Errorf("sampled geometric mean %g want %g", got, g)
	}
}

func TestParetoMeanVariance(t *testing.T) {
	if !math.IsInf(NewPareto(1, 0.9).Mean(), 1) {
		t.Error("Pareto beta<=1 must have infinite mean")
	}
	if !math.IsInf(NewPareto(1, 1.5).Var(), 1) {
		t.Error("Pareto beta<=2 must have infinite variance")
	}
	p := NewPareto(2, 3)
	if math.Abs(p.Mean()-3) > 1e-12 {
		t.Errorf("mean = %g want 3", p.Mean())
	}
	// Var = β a²/(β-2) - mean² = 3·4/1 - 9 = 3.
	if math.Abs(p.Var()-3) > 1e-12 {
		t.Errorf("var = %g want 3", p.Var())
	}
}

// TestParetoTruncationInvariance verifies Appendix B eq. (2): the
// conditional law of a Pareto above x0 is a Pareto with the same shape.
func TestParetoTruncationInvariance(t *testing.T) {
	p := NewPareto(1, 0.95)
	f := func(rawX0, rawY float64) bool {
		x0 := 1 + math.Abs(rawX0)
		if math.IsInf(x0, 0) || math.IsNaN(x0) || x0 > 1e100 {
			return true
		}
		y := x0 * (1 + math.Mod(math.Abs(rawY), 10))
		cond := p.TruncateBelow(x0)
		// P[X > y | X > x0] = (1-F(y))/(1-F(x0)).
		want := (1 - p.CDF(y)) / (1 - p.CDF(x0))
		got := 1 - cond.CDF(y)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestParetoCMEXLinear verifies the conditional mean exceedance is
// x/(β-1) (Appendix B) by Monte Carlo.
func TestParetoCMEXLinear(t *testing.T) {
	p := NewPareto(1, 2)
	rng := rand.New(rand.NewSource(11))
	x0 := 3.0
	want := p.CMEX(x0) // = 3/(2-1) = 3
	if math.Abs(want-3) > 1e-12 {
		t.Fatalf("analytic CMEX %g want 3", want)
	}
	sum, count := 0.0, 0
	for i := 0; i < 400000; i++ {
		x := p.Rand(rng)
		if x >= x0 {
			sum += x - x0
			count++
		}
	}
	got := sum / float64(count)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("Monte Carlo CMEX %g want %g", got, want)
	}
}

func TestParetoScaleInvariance(t *testing.T) {
	// P[X >= 2x]/P[X >= x] is constant in x for the Pareto.
	p := NewPareto(1, 0.9)
	ratioAt := func(x float64) float64 {
		return (1 - p.CDF(2*x)) / (1 - p.CDF(x))
	}
	r := ratioAt(5)
	for _, x := range []float64{2, 10, 100, 1e4} {
		if math.Abs(ratioAt(x)-r) > 1e-12 {
			t.Errorf("scale invariance broken at x=%g", x)
		}
	}
	if math.Abs(r-math.Pow(2, -0.9)) > 1e-12 {
		t.Errorf("ratio %g want 2^-0.9", r)
	}
}

func TestTruncatedParetoMean(t *testing.T) {
	tp := NewTruncatedPareto(1, 0.9, 1000)
	rng := rand.New(rand.NewSource(12))
	sum := 0.0
	const n = 500000
	for i := 0; i < n; i++ {
		sum += tp.Rand(rng)
	}
	got := sum / n
	want := tp.Mean()
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("sampled mean %g want %g", got, want)
	}
	// β = 1 special case uses the log form.
	tp1 := NewTruncatedPareto(2, 1, 200)
	want1 := 2 * math.Log(100) / tp1.mass()
	if math.Abs(tp1.Mean()-want1) > 1e-9 {
		t.Errorf("beta=1 mean %g want %g", tp1.Mean(), want1)
	}
}

func TestNormalQuantileAccuracy(t *testing.T) {
	// Spot-check against published values of Φ⁻¹.
	checks := map[float64]float64{
		0.5:   0,
		0.975: 1.959963984540054,
		0.995: 2.5758293035489004,
	}
	for p, want := range checks {
		if got := StdNormalQuantile(p); math.Abs(got-want) > 1e-9 {
			t.Errorf("Phi^-1(%g) = %.12f want %.12f", p, got, want)
		}
	}
	// Deep-tail round trip: Φ(Φ⁻¹(p)) == p to high accuracy.
	std := NewNormal(0, 1)
	for _, p := range []float64{1e-6, 1e-4, 0.0013, 0.3, 0.9, 0.99999} {
		if got := std.CDF(StdNormalQuantile(p)); math.Abs(got-p) > 1e-11*math.Max(1, p/1e-6) {
			t.Errorf("round trip at %g: %g", p, got)
		}
	}
	if !math.IsInf(StdNormalQuantile(0), -1) || !math.IsInf(StdNormalQuantile(1), 1) {
		t.Error("endpoints must be infinite")
	}
}

func TestLogNormalMoments(t *testing.T) {
	l := NewLogNormal(1, 0.5)
	want := math.Exp(1 + 0.125)
	if math.Abs(l.Mean()-want) > 1e-12 {
		t.Errorf("mean %g want %g", l.Mean(), want)
	}
	if math.Abs(l.Median()-math.E) > 1e-12 {
		t.Errorf("median %g want e", l.Median())
	}
	// Base-2 parameterization must agree with natural-base equivalent.
	l2 := NewLog2Normal(math.Log2(100), 2.24)
	ln2 := math.Log(2)
	eq := NewLogNormal(math.Log2(100)*ln2, 2.24*ln2)
	for _, x := range []float64{1, 10, 100, 1e4} {
		if math.Abs(l2.CDF(x)-eq.CDF(x)) > 1e-12 {
			t.Errorf("base-2 CDF mismatch at %g", x)
		}
	}
	if math.Abs(l2.Median()-100) > 1e-9 {
		t.Errorf("paper log2-normal median %g want 100", l2.Median())
	}
}

func TestLogExtremeMedian(t *testing.T) {
	// Median of Gumbel is α - β ln ln 2; median of log-extreme is
	// 2^that. With α = log2 100 the median is 100·3.5^{-ln ln 2... }
	le := NewLogExtreme(math.Log2(100), math.Log2(3.5))
	med := le.Quantile(0.5)
	want := math.Pow(2, math.Log2(100)-math.Log2(3.5)*math.Log(-math.Log(0.5)))
	if math.Abs(med-want)/want > 1e-12 {
		t.Errorf("median %g want %g", med, want)
	}
	if !math.IsInf(NewLogExtremeBase(math.E, 0, 2).Mean(), 1) {
		t.Error("log-extreme with βlnB >= 1 must have infinite mean")
	}
}

func TestWeibullMean(t *testing.T) {
	// k=1 reduces to exponential with mean λ.
	w := NewWeibull(3, 1)
	if math.Abs(w.Mean()-3) > 1e-12 {
		t.Errorf("Weibull k=1 mean %g want 3", w.Mean())
	}
	e := Exp(3)
	for _, x := range []float64{0.5, 1, 5, 10} {
		if math.Abs(w.CDF(x)-e.CDF(x)) > 1e-12 {
			t.Errorf("Weibull k=1 CDF != exponential at %g", x)
		}
	}
}

func TestPoissonPMFSums(t *testing.T) {
	for _, mean := range []float64{0.5, 3, 17, 80} {
		sum := 0.0
		for k := 0; k < 400; k++ {
			sum += PoissonPMF(mean, k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("PMF(mean=%g) sums to %g", mean, sum)
		}
	}
	if PoissonPMF(0, 0) != 1 || PoissonPMF(0, 1) != 0 || PoissonPMF(2, -1) != 0 {
		t.Error("edge cases wrong")
	}
}

func TestPoissonRandMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, mean := range []float64{0.3, 4, 25, 200} {
		const n = 50000
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			k := float64(PoissonRand(rng, mean))
			sum += k
			sum2 += k * k
		}
		m := sum / n
		v := sum2/n - m*m
		if math.Abs(m-mean)/mean > 0.05 {
			t.Errorf("mean(%g): got %g", mean, m)
		}
		if math.Abs(v-mean)/mean > 0.1 {
			t.Errorf("var(%g): got %g", mean, v)
		}
	}
}

func TestBinomialCDF(t *testing.T) {
	// Exact small case: n=4, p=0.5 → CDF at k = (1,5,11,15,16)/16.
	want := []float64{1.0 / 16, 5.0 / 16, 11.0 / 16, 15.0 / 16, 1}
	for k, w := range want {
		if got := BinomialCDF(4, k, 0.5); math.Abs(got-w) > 1e-12 {
			t.Errorf("BinomialCDF(4,%d,0.5) = %g want %g", k, got, w)
		}
	}
	if BinomialCDF(10, -1, 0.3) != 0 || BinomialCDF(10, 10, 0.3) != 1 {
		t.Error("edge cases wrong")
	}
	// Upper tail complements the CDF.
	for k := 0; k <= 20; k++ {
		lo := BinomialCDF(20, k-1, 0.95)
		up := BinomialUpperTail(20, k, 0.95)
		if math.Abs(lo+up-1) > 1e-9 {
			t.Errorf("CDF+upper != 1 at k=%d: %g", k, lo+up)
		}
	}
}

func TestBinomialExtremeP(t *testing.T) {
	if BinomialCDF(5, 3, 0) != 1 || BinomialCDF(5, 3, 1) != 0 {
		t.Error("degenerate p handling wrong")
	}
	if math.Exp(BinomialLogPMF(5, 0, 0)) != 1 || math.Exp(BinomialLogPMF(5, 5, 1)) != 1 {
		t.Error("degenerate PMF wrong")
	}
}

func TestGeometric(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	p := 0.25
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(Geometric(rng, p))
	}
	want := (1 - p) / p // = 3
	if got := sum / n; math.Abs(got-want)/want > 0.05 {
		t.Errorf("geometric mean %g want %g", got, want)
	}
	if Geometric(rng, 1) != 0 {
		t.Error("p=1 must return 0")
	}
}

func TestZipfPlatoon(t *testing.T) {
	z := ZipfPlatoon{}
	sum := 0.0
	for n := 0; n < 10000; n++ {
		sum += z.PMF(n)
	}
	if math.Abs(sum-z.CDF(9999)) > 1e-12 {
		t.Errorf("PMF sum %g vs CDF %g", sum, z.CDF(9999))
	}
	if math.Abs(z.CDF(0)-0.5) > 1e-12 {
		t.Errorf("CDF(0) = %g want 0.5", z.CDF(0))
	}
	rng := rand.New(rand.NewSource(15))
	counts := make(map[int]int)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Rand(rng)]++
	}
	for k := 0; k <= 3; k++ {
		got := float64(counts[k]) / n
		want := z.PMF(k)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("P[X=%d]: sampled %g want %g", k, got, want)
		}
	}
}

func TestEmpiricalBasics(t *testing.T) {
	e := NewEmpirical([]QuantilePoint{{1, 0}, {10, 0.5}, {100, 1}}, true)
	if e.Min() != 1 || e.Max() != 100 {
		t.Error("bounds wrong")
	}
	// Log interpolation: the midpoint in probability lands at the
	// geometric midpoint in value.
	if q := e.Quantile(0.25); math.Abs(q-math.Sqrt(10)) > 1e-9 {
		t.Errorf("Quantile(0.25) = %g want sqrt(10)", q)
	}
	if f := e.CDF(math.Sqrt(10)); math.Abs(f-0.25) > 1e-9 {
		t.Errorf("CDF(sqrt 10) = %g want 0.25", f)
	}
	if e.CDF(0.5) != 0 || e.CDF(1000) != 1 {
		t.Error("out-of-range CDF wrong")
	}
}

func TestEmpiricalQuantileCDFInverse(t *testing.T) {
	e := NewEmpirical([]QuantilePoint{
		{0.001, 0}, {0.008, 0.02}, {0.1, 0.3}, {0.25, 0.5}, {1, 0.85}, {6, 0.97}, {300, 1},
	}, true)
	for _, p := range []float64{0.001, 0.02, 0.1, 0.3, 0.5, 0.7, 0.85, 0.9, 0.97, 0.999} {
		x := e.Quantile(p)
		if got := e.CDF(x); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%g)) = %g", p, got)
		}
	}
}

func TestEmpiricalFromSample(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	src := Exp(2)
	sample := make([]float64, 5000)
	for i := range sample {
		sample[i] = src.Rand(rng)
	}
	e := EmpiricalFromSample(sample, false)
	// The empirical CDF should track the true CDF closely.
	for _, x := range []float64{0.5, 1, 2, 4, 8} {
		if diff := math.Abs(e.CDF(x) - src.CDF(x)); diff > 0.03 {
			t.Errorf("ECDF(%g) off by %g", x, diff)
		}
	}
	if math.Abs(e.Mean()-2) > 0.15 {
		t.Errorf("empirical mean %g want ~2", e.Mean())
	}
}

func TestEmpiricalFromSampleTies(t *testing.T) {
	e := EmpiricalFromSample([]float64{1, 1, 1, 2, 2, 3}, false)
	if e.Min() != 1 || e.Max() != 3 {
		t.Errorf("bounds %g..%g", e.Min(), e.Max())
	}
	if f := e.CDF(2); f <= 0.4 || f >= 1 {
		t.Errorf("CDF(2) = %g out of plausible range", f)
	}
}

func TestEmpiricalValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("too short", func() { NewEmpirical([]QuantilePoint{{1, 0}}, false) })
	mustPanic("non-increasing X", func() {
		NewEmpirical([]QuantilePoint{{1, 0}, {1, 1}}, false)
	})
	mustPanic("decreasing P", func() {
		NewEmpirical([]QuantilePoint{{1, 0}, {2, 0.5}, {3, 0.4}, {4, 1}}, false)
	})
	mustPanic("bad span", func() {
		NewEmpirical([]QuantilePoint{{1, 0.1}, {2, 1}}, false)
	})
	mustPanic("constant sample", func() { EmpiricalFromSample([]float64{2, 2, 2}, false) })
}

func TestConstructorValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"exp":       func() { Exp(0) },
		"pareto":    func() { NewPareto(0, 1) },
		"trunc":     func() { NewTruncatedPareto(1, 1, 1) },
		"normal":    func() { NewNormal(0, 0) },
		"lognormal": func() { NewLogNormalBase(1, 0, 1) },
		"gumbel":    func() { NewGumbel(0, 0) },
		"weibull":   func() { NewWeibull(1, 0) },
		"geometric": func() { Geometric(rand.New(rand.NewSource(1)), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestClopperPearson(t *testing.T) {
	// Known value: 0 successes in 20 trials, 95% CI upper bound is
	// 1-(0.025)^{1/20} ≈ 0.1684 ("rule of three"-ish).
	lo, hi := ClopperPearson(0, 20, 0.05)
	if lo != 0 {
		t.Errorf("lo %g want 0", lo)
	}
	if math.Abs(hi-0.1684) > 0.002 {
		t.Errorf("hi %g want ~0.168", hi)
	}
	// Symmetry: k successes vs n-k failures mirror around 0.5.
	lo2, hi2 := ClopperPearson(15, 20, 0.05)
	lo3, hi3 := ClopperPearson(5, 20, 0.05)
	if math.Abs(lo2-(1-hi3)) > 1e-6 || math.Abs(hi2-(1-lo3)) > 1e-6 {
		t.Errorf("asymmetric: [%g,%g] vs [%g,%g]", lo2, hi2, lo3, hi3)
	}
	// Interval contains the point estimate.
	if p := 15.0 / 20; p < lo2 || p > hi2 {
		t.Error("point estimate outside CI")
	}
	// All successes.
	_, hiAll := ClopperPearson(20, 20, 0.05)
	if hiAll != 1 {
		t.Errorf("k=n upper bound %g", hiAll)
	}
}

func TestClopperPearsonCoverage(t *testing.T) {
	// Monte Carlo: the 95% interval covers the true p at least ~95%
	// of the time (conservative by construction).
	rng := rand.New(rand.NewSource(50))
	p := 0.95 // the Fig. 2 pass-rate regime
	const trials, n = 400, 30
	covered := 0
	for i := 0; i < trials; i++ {
		k := 0
		for j := 0; j < n; j++ {
			if rng.Float64() < p {
				k++
			}
		}
		lo, hi := ClopperPearson(k, n, 0.05)
		if p >= lo && p <= hi {
			covered++
		}
	}
	if rate := float64(covered) / trials; rate < 0.94 {
		t.Errorf("coverage %.3f, want >= ~0.95", rate)
	}
}
