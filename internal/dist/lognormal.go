package dist

import (
	"math"
	"math/rand"
)

// LogNormal is the law of Base^N where N is Normal(LogMu, LogSigma)
// with logarithms taken in the given Base. With Base = e it is the
// classical log-normal; the paper's TELNET connection size in packets
// uses Base = 2 with log₂-mean log₂(100) and log₂-sd 2.24 (Section V).
//
// Appendix E shows the log-normal is long-tailed (subexponential) but
// not heavy-tailed in the sense of eq. (1): an M/G/∞ input with
// log-normal service times is not long-range dependent.
type LogNormal struct {
	Base     float64 // logarithm base, > 1
	LogMu    float64 // mean of log_Base X
	LogSigma float64 // sd of log_Base X, > 0
}

// NewLogNormal returns a natural-base log-normal.
func NewLogNormal(mu, sigma float64) LogNormal {
	return NewLogNormalBase(math.E, mu, sigma)
}

// NewLog2Normal returns the paper's log₂-normal law.
func NewLog2Normal(mu, sigma float64) LogNormal {
	return NewLogNormalBase(2, mu, sigma)
}

// NewLogNormalBase returns a log-normal with logs in the given base.
func NewLogNormalBase(base, mu, sigma float64) LogNormal {
	if base <= 1 {
		panic("dist: log-normal base must exceed 1")
	}
	if sigma <= 0 {
		panic("dist: log-normal sigma must be positive")
	}
	return LogNormal{Base: base, LogMu: mu, LogSigma: sigma}
}

// natural converts the base-B parameters to natural-log parameters.
func (l LogNormal) natural() (mu, sigma float64) {
	lb := math.Log(l.Base)
	return l.LogMu * lb, l.LogSigma * lb
}

// CDF returns Φ((log_B x - μ)/σ).
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	mu, sigma := l.natural()
	return Normal{Mu: mu, Sigma: sigma}.CDF(math.Log(x))
}

// Quantile inverts the CDF.
func (l LogNormal) Quantile(p float64) float64 {
	checkProb(p)
	if p == 0 {
		return 0
	}
	if p == 1 {
		return math.Inf(1)
	}
	mu, sigma := l.natural()
	return math.Exp(mu + sigma*StdNormalQuantile(p))
}

// Rand draws a log-normal variate.
func (l LogNormal) Rand(rng *rand.Rand) float64 {
	mu, sigma := l.natural()
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// Mean returns exp(μ + σ²/2) in natural parameters.
func (l LogNormal) Mean() float64 {
	mu, sigma := l.natural()
	return math.Exp(mu + sigma*sigma/2)
}

// Median returns exp(μ): the geometric mean of the law.
func (l LogNormal) Median() float64 {
	mu, _ := l.natural()
	return math.Exp(mu)
}

// Var returns (exp(σ²)-1)·exp(2μ+σ²).
func (l LogNormal) Var() float64 {
	mu, sigma := l.natural()
	s2 := sigma * sigma
	return math.Expm1(s2) * math.Exp(2*mu+s2)
}
