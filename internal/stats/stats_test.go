package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("mean %g", Mean(xs))
	}
	if Variance(xs) != 4 {
		t.Errorf("variance %g", Variance(xs))
	}
	if !almost(SampleVariance(xs), 4*8.0/7.0, 1e-12) {
		t.Errorf("sample variance %g", SampleVariance(xs))
	}
	if StdDev(xs) != 2 {
		t.Errorf("stddev %g", StdDev(xs))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || SampleVariance([]float64{1}) != 0 {
		t.Error("empty-slice conventions broken")
	}
}

func TestGeometricMean(t *testing.T) {
	if !almost(GeometricMean([]float64{1, 10, 100}), 10, 1e-9) {
		t.Error("geometric mean of {1,10,100} should be 10")
	}
	if GeometricMean(nil) != 0 {
		t.Error("empty geometric mean")
	}
}

func TestMinMaxQuantile(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("minmax %g %g", lo, hi)
	}
	sorted := []float64{1, 2, 3, 4, 5}
	if Quantile(sorted, 0) != 1 || Quantile(sorted, 1) != 5 {
		t.Error("endpoint quantiles")
	}
	if !almost(Quantile(sorted, 0.5), 3, 1e-12) {
		t.Error("median")
	}
	if !almost(Quantile(sorted, 0.625), 3.5, 1e-12) {
		t.Error("interpolated quantile")
	}
}

func TestAutocorrelation(t *testing.T) {
	// r(0) is 1 for any non-constant series.
	xs := []float64{1, 5, 2, 8, 3, 9, 4}
	if !almost(Autocorrelation(xs, 0), 1, 1e-12) {
		t.Error("r(0) != 1")
	}
	// Constant series: defined as 0.
	if Autocorrelation([]float64{2, 2, 2, 2}, 1) != 0 {
		t.Error("constant series should give 0")
	}
	// Alternating series has strongly negative lag-1 autocorrelation.
	alt := make([]float64, 100)
	for i := range alt {
		alt[i] = float64(i % 2)
	}
	if r := Autocorrelation(alt, 1); r > -0.9 {
		t.Errorf("alternating r(1) = %g, want near -1", r)
	}
	// AR(1)-like positive dependence.
	rng := rand.New(rand.NewSource(1))
	ar := make([]float64, 5000)
	for i := 1; i < len(ar); i++ {
		ar[i] = 0.8*ar[i-1] + rng.NormFloat64()
	}
	if r := Autocorrelation(ar, 1); r < 0.7 || r > 0.9 {
		t.Errorf("AR(1) r(1) = %g, want ~0.8", r)
	}
}

func TestAutocorrelationWhiteNoiseBound(t *testing.T) {
	// For white noise, |r(1)| exceeds 1.96/sqrt(n) about 5% of the time.
	rng := rand.New(rand.NewSource(2))
	const trials, n = 400, 500
	exceed := 0
	bound := 1.96 / math.Sqrt(n)
	for i := 0; i < trials; i++ {
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = rng.NormFloat64()
		}
		if math.Abs(Autocorrelation(xs, 1)) > bound {
			exceed++
		}
	}
	frac := float64(exceed) / trials
	if frac < 0.01 || frac > 0.11 {
		t.Errorf("white-noise exceedance rate %g, want ~0.05", frac)
	}
}

func TestDiff(t *testing.T) {
	got := Diff([]float64{1, 3, 6, 10})
	want := []float64{2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diff %v", got)
		}
	}
	if Diff([]float64{5}) != nil {
		t.Error("single element diff should be nil")
	}
}

func TestECDFAndFractions(t *testing.T) {
	sorted := []float64{1, 2, 2, 3, 10}
	if ECDF(sorted, 2) != 0.6 {
		t.Errorf("ECDF(2) = %g", ECDF(sorted, 2))
	}
	if ECDF(sorted, 0.5) != 0 || ECDF(sorted, 10) != 1 {
		t.Error("ECDF endpoints")
	}
	if FractionBelow(sorted, 2) != 0.2 {
		t.Error("FractionBelow")
	}
	if FractionAbove(sorted, 2) != 0.4 {
		t.Error("FractionAbove")
	}
}

func TestCountProcess(t *testing.T) {
	times := []float64{0, 0.05, 0.15, 0.99, 1.0, -1, 2.5}
	counts := CountProcess(times, 0.1, 1.0)
	if len(counts) != 10 {
		t.Fatalf("bins %d", len(counts))
	}
	if counts[0] != 2 || counts[1] != 1 || counts[9] != 1 {
		t.Errorf("counts %v", counts)
	}
	var total float64
	for _, c := range counts {
		total += c
	}
	if total != 4 { // -1, 1.0 and 2.5 excluded
		t.Errorf("total %g", total)
	}
}

// TestCountProcessConservation: every in-range event lands in exactly
// one bin, for arbitrary event sets.
func TestCountProcessConservation(t *testing.T) {
	f := func(raw []float64) bool {
		horizon := 100.0
		inRange := 0
		times := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			v = math.Mod(math.Abs(v), 150)
			times = append(times, v)
			if v >= 0 && v < horizon {
				inRange++
			}
		}
		counts := CountProcess(times, 0.7, horizon)
		total := 0.0
		for _, c := range counts {
			total += c
		}
		return int(total) == inRange
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAggregate(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	got := Aggregate(xs, 2)
	want := []float64{1.5, 3.5, 5.5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("aggregate %v", got)
		}
	}
	sum := SumAggregate(xs, 3)
	if len(sum) != 2 || sum[0] != 6 || sum[1] != 15 {
		t.Errorf("sum aggregate %v", sum)
	}
	one := Aggregate(xs, 1)
	for i := range xs {
		if one[i] != xs[i] {
			t.Error("m=1 should copy")
		}
	}
}

// TestAggregateMeanPreserved: aggregation preserves the mean over the
// retained span (property test).
func TestAggregateMeanPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(500)
		m := 1 + rng.Intn(10)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 10
		}
		agg := Aggregate(xs, m)
		kept := xs[:len(agg)*m]
		if len(agg) == 0 {
			continue
		}
		if !almost(Mean(agg), Mean(kept), 1e-9) {
			t.Fatalf("mean not preserved: %g vs %g", Mean(agg), Mean(kept))
		}
	}
}

// TestVarianceTimePoissonSlope: for i.i.d. counts the variance of the
// aggregated process decays as 1/M, i.e. slope -1 on the log-log plot.
func TestVarianceTimePoissonSlope(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	counts := make([]float64, 200000)
	for i := range counts {
		// Poisson(5) approximated by its exact law via inversion of
		// small-mean Knuth method replicated inline.
		l := math.Exp(-5.0)
		k := 0
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				break
			}
			k++
		}
		counts[i] = float64(k)
	}
	pts := VarianceTime(counts, 1000, 5)
	slope := VTSlope(pts, 1, 1000)
	if slope > -0.9 || slope < -1.1 {
		t.Errorf("iid counts VT slope %g, want ~-1", slope)
	}
}

func TestVarianceTimeNormalization(t *testing.T) {
	counts := []float64{2, 2, 2, 2, 4, 4, 4, 4}
	pts := VarianceTime(counts, 2, 10)
	if len(pts) == 0 || pts[0].M != 1 {
		t.Fatalf("points %v", pts)
	}
	mean := Mean(counts) // 3
	if !almost(pts[0].NormVar, Variance(counts)/(mean*mean), 1e-12) {
		t.Error("normalization wrong")
	}
}

func TestLeastSquares(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7}
	slope, intercept := LeastSquares(xs, ys)
	if !almost(slope, 2, 1e-12) || !almost(intercept, 1, 1e-12) {
		t.Errorf("fit %g %g", slope, intercept)
	}
	s, ic := LeastSquares([]float64{1}, []float64{4})
	if s != 0 || ic != 4 {
		t.Error("degenerate fit")
	}
	s2, ic2 := LeastSquares([]float64{2, 2, 2}, []float64{1, 2, 3})
	if s2 != 0 || ic2 != 2 {
		t.Error("vertical data fit")
	}
}

func TestVTSlopeSubsetting(t *testing.T) {
	pts := []VTPoint{
		{M: 1, LogM: 0, LogVar: 0},
		{M: 10, LogM: 1, LogVar: -1},
		{M: 100, LogM: 2, LogVar: -2},
		{M: 1000, LogM: 3, LogVar: 5}, // outlier excluded by range
	}
	if s := VTSlope(pts, 1, 100); !almost(s, -1, 1e-12) {
		t.Errorf("slope %g", s)
	}
}

func TestPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"count width":  func() { CountProcess(nil, 0, 1) },
		"count horiz":  func() { CountProcess(nil, 1, 0) },
		"agg":          func() { Aggregate([]float64{1}, 0) },
		"vt points":    func() { VarianceTime([]float64{1, 2}, 1, 0) },
		"minmax empty": func() { MinMax(nil) },
		"quantile p":   func() { Quantile([]float64{1}, 2) },
		"ls mismatch":  func() { LeastSquares([]float64{1}, nil) },
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

// TestAutocorrelationFFTMatchesDirect: the O(n log n) ACF equals the
// direct estimator to floating-point accuracy.
func TestAutocorrelationFFTMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{3, 17, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()*3 + 1
		}
		maxLag := n / 2
		fast := AutocorrelationFFT(xs, maxLag)
		for k := 0; k <= maxLag; k++ {
			if direct := Autocorrelation(xs, k); math.Abs(direct-fast[k]) > 1e-9 {
				t.Fatalf("n=%d lag=%d: direct %g fft %g", n, k, direct, fast[k])
			}
		}
	}
}

func TestAutocorrelationFFTEdges(t *testing.T) {
	if got := AutocorrelationFFT(nil, 3); len(got) != 4 {
		t.Errorf("empty series shape %v", got)
	}
	// Constant series: zero denominator convention.
	got := AutocorrelationFFT([]float64{2, 2, 2}, 2)
	for _, v := range got {
		if v != 0 {
			t.Errorf("constant series ACF %v", got)
		}
	}
	// maxLag clamped to n-1.
	if got := AutocorrelationFFT([]float64{1, 2}, 10); len(got) != 2 {
		t.Errorf("clamped length %d", len(got))
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative lag")
		}
	}()
	AutocorrelationFFT([]float64{1, 2}, -1)
}

func BenchmarkAutocorrelationFFT(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	xs := make([]float64, 1<<16)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AutocorrelationFFT(xs, 1000)
	}
}
