package fit

import (
	"math"
	"math/rand"
	"testing"

	"wantraffic/internal/dist"
)

func sample(rng *rand.Rand, d interface {
	Rand(*rand.Rand) float64
}, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Rand(rng)
	}
	return xs
}

func TestExponentialMLE(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := sample(rng, dist.Exp(1.1), 50000)
	e := ExponentialMLE(xs)
	if math.Abs(e.MeanVal-1.1)/1.1 > 0.03 {
		t.Errorf("mean %g want 1.1", e.MeanVal)
	}
}

func TestExponentialGeometric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := dist.Exp(2)
	xs := sample(rng, src, 100000)
	e := ExponentialGeometric(xs)
	// Recovering from the geometric mean should give back ~2.
	if math.Abs(e.MeanVal-2)/2 > 0.05 {
		t.Errorf("mean %g want ~2", e.MeanVal)
	}
}

func TestParetoMLE(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, beta := range []float64{0.9, 1.4, 2.5} {
		src := dist.NewPareto(1.5, beta)
		xs := sample(rng, src, 40000)
		p := ParetoMLE(xs)
		if math.Abs(p.Beta-beta)/beta > 0.05 {
			t.Errorf("beta %g want %g", p.Beta, beta)
		}
		if p.A > 1.6 || p.A < 1.5 {
			t.Errorf("location %g want ~1.5", p.A)
		}
	}
}

func TestHillTailOnPureParetoTail(t *testing.T) {
	// Body lognormal, tail Pareto(β=0.95): the Hill estimator on the
	// top 3% should recover the tail shape.
	rng := rand.New(rand.NewSource(4))
	const n = 100000
	xs := make([]float64, n)
	body := dist.NewLogNormal(-1, 0.8)
	// Construct: 97% from body truncated below tail start, 3% Pareto.
	tailStart := 6.0
	tail := dist.NewPareto(tailStart, 0.95)
	for i := range xs {
		if rng.Float64() < 0.03 {
			xs[i] = tail.Rand(rng)
		} else {
			for {
				v := body.Rand(rng)
				if v < tailStart {
					xs[i] = v
					break
				}
			}
		}
	}
	p := HillTailFraction(xs, 0.025)
	if math.Abs(p.Beta-0.95) > 0.1 {
		t.Errorf("Hill beta %g want ~0.95", p.Beta)
	}
	if p.A < tailStart {
		t.Errorf("tail location %g below tail start", p.A)
	}
}

func TestHillTailExactPareto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := dist.NewPareto(1, 1.15)
	xs := sample(rng, src, 60000)
	p := HillTail(xs, 3000)
	if math.Abs(p.Beta-1.15) > 0.08 {
		t.Errorf("Hill beta %g want 1.15", p.Beta)
	}
}

func TestNormalAndLogNormalMLE(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := NormalMLE(sample(rng, dist.NewNormal(3, 2), 50000))
	if math.Abs(n.Mu-3) > 0.05 || math.Abs(n.Sigma-2) > 0.05 {
		t.Errorf("normal fit %+v", n)
	}
	// Section V's log₂-normal fit is a normal fit to log₂ x.
	xs := sample(rng, dist.NewLog2Normal(math.Log2(100), 2.24), 50000)
	for i, x := range xs {
		xs[i] = math.Log2(x)
	}
	l := NormalMLE(xs)
	if math.Abs(l.Mu-math.Log2(100)) > 0.05 {
		t.Errorf("log2 mu %g want %g", l.Mu, math.Log2(100))
	}
	if math.Abs(l.Sigma-2.24) > 0.05 {
		t.Errorf("log2 sigma %g want 2.24", l.Sigma)
	}
}

func TestGumbelAndLogExtreme(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := GumbelMoments(sample(rng, dist.NewGumbel(1, 2), 80000))
	if math.Abs(g.Alpha-1) > 0.08 || math.Abs(g.Beta-2) > 0.08 {
		t.Errorf("gumbel fit %+v", g)
	}
	src := dist.NewLogExtreme(math.Log2(100), math.Log2(3.5))
	le := LogExtremeMoments(sample(rng, src, 80000), 2)
	if math.Abs(le.G.Alpha-math.Log2(100)) > 0.1 {
		t.Errorf("log-extreme alpha %g", le.G.Alpha)
	}
	if math.Abs(le.G.Beta-math.Log2(3.5)) > 0.1 {
		t.Errorf("log-extreme beta %g", le.G.Beta)
	}
}

func TestFitPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"exp empty":    func() { ExponentialMLE(nil) },
		"geo empty":    func() { ExponentialGeometric(nil) },
		"pareto empty": func() { ParetoMLE(nil) },
		"pareto neg":   func() { ParetoMLE([]float64{-1, 2}) },
		"pareto const": func() { ParetoMLE([]float64{2, 2, 2}) },
		"hill k":       func() { HillTail([]float64{1, 2, 3}, 3) },
		"hill frac":    func() { HillTailFraction([]float64{1, 2, 3}, 1.5) },
		"normal short": func() { NormalMLE([]float64{1}) },
		"normal const": func() { NormalMLE([]float64{1, 1}) },
		"gumbel short": func() { GumbelMoments([]float64{1}) },
		"logext neg":   func() { LogExtremeMoments([]float64{0, 1}, 2) },
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
