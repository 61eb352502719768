package dist

import (
	"math"
	"math/rand"
)

// Gumbel is the (maximum) extreme-value distribution with location
// Alpha and scale Beta:
//
//	F(x) = exp(-exp(-(x-α)/β)).
type Gumbel struct {
	Alpha float64 // location
	Beta  float64 // scale, > 0
}

// NewGumbel returns a Gumbel distribution.
func NewGumbel(alpha, beta float64) Gumbel {
	if beta <= 0 {
		panic("dist: Gumbel scale must be positive")
	}
	return Gumbel{Alpha: alpha, Beta: beta}
}

// CDF returns exp(-exp(-(x-α)/β)).
func (g Gumbel) CDF(x float64) float64 {
	return math.Exp(-math.Exp(-(x - g.Alpha) / g.Beta))
}

// Quantile returns α - β·ln(-ln p).
func (g Gumbel) Quantile(p float64) float64 {
	checkProb(p)
	if p == 0 {
		return math.Inf(-1)
	}
	if p == 1 {
		return math.Inf(1)
	}
	return g.Alpha - g.Beta*math.Log(-math.Log(p))
}

// Rand draws a Gumbel variate by inverse transform.
func (g Gumbel) Rand(rng *rand.Rand) float64 {
	return g.Quantile(u01(rng))
}

// Mean returns α + βγ with γ the Euler–Mascheroni constant.
func (g Gumbel) Mean() float64 {
	const eulerGamma = 0.57721566490153286060651209008240243
	return g.Alpha + g.Beta*eulerGamma
}

// LogExtreme is the "log-extreme" distribution used by Paxson (1994)
// and Section V for the number of bytes sent by a TELNET originator:
// log₂ X follows a Gumbel law with location Alpha and scale Beta. The
// paper's fit is α = log₂ 100, β = log₂ 3.5.
type LogExtreme struct {
	Base float64 // logarithm base, > 1
	G    Gumbel  // law of log_Base X
}

// NewLogExtreme returns a log-extreme law in base 2, matching the
// paper's parameterization.
func NewLogExtreme(alpha, beta float64) LogExtreme {
	return NewLogExtremeBase(2, alpha, beta)
}

// NewLogExtremeBase returns a log-extreme law in the given base.
func NewLogExtremeBase(base, alpha, beta float64) LogExtreme {
	if base <= 1 {
		panic("dist: log-extreme base must exceed 1")
	}
	return LogExtreme{Base: base, G: NewGumbel(alpha, beta)}
}

// CDF returns the Gumbel CDF of log_Base(x).
func (l LogExtreme) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return l.G.CDF(math.Log(x) / math.Log(l.Base))
}

// Quantile inverts the CDF.
func (l LogExtreme) Quantile(p float64) float64 {
	checkProb(p)
	if p == 0 {
		return 0
	}
	if p == 1 {
		return math.Inf(1)
	}
	return math.Pow(l.Base, l.G.Quantile(p))
}

// Rand draws a log-extreme variate.
func (l LogExtreme) Rand(rng *rand.Rand) float64 {
	return math.Pow(l.Base, l.G.Rand(rng))
}

// Mean returns E[B^G] = B^α · Γ(1 - β·ln B) when β·ln B < 1, and +Inf
// otherwise: like the Pareto, the log-extreme law can have an infinite
// mean for heavy scale parameters.
func (l LogExtreme) Mean() float64 {
	lb := math.Log(l.Base)
	t := l.G.Beta * lb
	if t >= 1 {
		return math.Inf(1)
	}
	g, _ := math.Lgamma(1 - t)
	return math.Exp(l.G.Alpha*lb + g)
}

// Weibull is the Weibull distribution with scale Lambda and shape K:
//
//	F(x) = 1 - exp(-(x/λ)^k).
//
// For k < 1 it is long-tailed (subexponential) and counted among the
// heavy-tailed laws in the sense of Appendix B's first definition.
type Weibull struct {
	Lambda float64 // scale, > 0
	K      float64 // shape, > 0
}

// NewWeibull returns a Weibull distribution.
func NewWeibull(lambda, k float64) Weibull {
	if lambda <= 0 || k <= 0 {
		panic("dist: Weibull requires positive parameters")
	}
	return Weibull{Lambda: lambda, K: k}
}

// CDF returns 1 - exp(-(x/λ)^k).
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(x/w.Lambda, w.K))
}

// Quantile returns λ·(-ln(1-p))^{1/k}.
func (w Weibull) Quantile(p float64) float64 {
	checkProb(p)
	if p == 1 {
		return math.Inf(1)
	}
	return w.Lambda * math.Pow(-math.Log1p(-p), 1/w.K)
}

// Rand draws a Weibull variate by inverse transform.
func (w Weibull) Rand(rng *rand.Rand) float64 {
	return w.Lambda * math.Pow(rng.ExpFloat64(), 1/w.K)
}

// Mean returns λ·Γ(1+1/k).
func (w Weibull) Mean() float64 {
	g, _ := math.Lgamma(1 + 1/w.K)
	return w.Lambda * math.Exp(g)
}
