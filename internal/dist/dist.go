// Package dist implements the probability distributions used throughout
// the reproduction of Paxson & Floyd, "Wide-Area Traffic: The Failure of
// Poisson Modeling" (IEEE/ACM ToN 1995).
//
// The paper leans on a small set of laws: the exponential (the Poisson
// null model), the Pareto family (TELNET packet interarrivals, FTPDATA
// burst sizes — Appendix B), log-normal and log₂-normal (TELNET
// connection sizes in packets, FTPDATA spacing), the log-extreme
// (Gumbel-in-log-space) law for connection bytes, and Weibull.
// Discrete laws (Poisson,
// binomial, geometric, the Zipf "platoon" law of Appendix B) support the
// statistical tests and the traffic sources.
//
// Every continuous distribution satisfies Continuous; sampling always
// takes an explicit *rand.Rand so experiments are reproducible.
package dist

import "math/rand"

// Continuous is a one-dimensional continuous probability distribution.
type Continuous interface {
	// CDF returns P[X <= x].
	CDF(x float64) float64
	// Quantile returns the p-th quantile; it is the (generalized)
	// inverse of CDF. Quantile panics if p is outside [0, 1].
	Quantile(p float64) float64
	// Rand draws one sample using rng.
	Rand(rng *rand.Rand) float64
	// Mean returns the expectation, which may be +Inf for heavy-tailed
	// laws such as the Pareto with shape <= 1.
	Mean() float64
}

// checkProb panics if p is not a probability. Distribution Quantile
// implementations call it so misuse fails loudly rather than returning
// garbage sample values.
func checkProb(p float64) {
	if !(p >= 0 && p <= 1) {
		panic("dist: quantile probability outside [0,1]")
	}
}

// u01 draws a uniform variate in the open interval (0,1), avoiding the
// exact 0 that would break inverse-transform sampling of laws with
// infinite support.
func u01(rng *rand.Rand) float64 {
	for {
		u := rng.Float64()
		if u > 0 {
			return u
		}
	}
}
