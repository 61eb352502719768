// Package fit estimates distribution parameters from data. It supports
// the fits the paper performs: exponential fits to interarrival times
// (Fig. 3's arithmetic- and geometric-mean fits), Pareto shape
// estimation for the TELNET interarrival body/tail and the FTPDATA
// burst-size tail (Section VI), log-normal and log-extreme fits for
// connection sizes (Section V), and straight-line fits used by the
// variance-time analysis.
package fit

import (
	"math"
	"sort"

	"wantraffic/internal/dist"
	"wantraffic/internal/stats"
)

// ExponentialMLE returns the exponential law fit by maximum likelihood,
// i.e. with mean equal to the sample mean.
func ExponentialMLE(xs []float64) dist.Exponential {
	if len(xs) == 0 {
		panic("fit: empty sample")
	}
	return dist.Exp(stats.Mean(xs))
}

// ExponentialGeometric returns the exponential law whose geometric mean
// matches the sample geometric mean — Fig. 3's "fit #1".
func ExponentialGeometric(xs []float64) dist.Exponential {
	if len(xs) == 0 {
		panic("fit: empty sample")
	}
	return dist.ExpFromGeometricMean(stats.GeometricMean(xs))
}

// ParetoMLE fits a Pareto law by maximum likelihood: the location is
// the sample minimum and the shape is n / Σ ln(x_i / a).
func ParetoMLE(xs []float64) dist.Pareto {
	if len(xs) == 0 {
		panic("fit: empty sample")
	}
	a := xs[0]
	for _, x := range xs {
		if x < a {
			a = x
		}
	}
	if a <= 0 {
		panic("fit: Pareto sample must be positive")
	}
	sum := 0.0
	n := 0
	for _, x := range xs {
		if x > a {
			sum += math.Log(x / a)
			n++
		}
	}
	if sum == 0 {
		panic("fit: Pareto sample is constant")
	}
	// Use the count of strictly-above-minimum points for the classic
	// conditional MLE; with continuous data n == len(xs)-1 almost surely.
	return dist.NewPareto(a, float64(n)/sum)
}

// HillTail estimates the Pareto shape of the upper tail using the Hill
// estimator on the k largest observations:
//
//	β̂ = k / Σ_{i=1..k} ln(x_(n-i+1) / x_(n-k)).
//
// The paper fits the upper 5% tail of bytes-per-FTPDATA-burst and the
// upper 3% tail of TELNET interarrivals this way (shape 0.9–1.4 and
// ≈0.95 respectively). The returned Pareto has location x_(n-k).
func HillTail(xs []float64, k int) dist.Pareto {
	n := len(xs)
	if k <= 0 || k >= n {
		panic("fit: Hill estimator requires 0 < k < n")
	}
	s := make([]float64, n)
	copy(s, xs)
	sort.Float64s(s)
	x0 := s[n-k-1]
	if x0 <= 0 {
		panic("fit: Hill estimator requires positive threshold")
	}
	sum := 0.0
	for i := n - k; i < n; i++ {
		sum += math.Log(s[i] / x0)
	}
	if sum == 0 {
		panic("fit: degenerate tail")
	}
	return dist.NewPareto(x0, float64(k)/sum)
}

// HillTailFraction applies HillTail to the upper frac of the sample
// (e.g. 0.05 for the paper's upper-5% burst-size fit).
func HillTailFraction(xs []float64, frac float64) dist.Pareto {
	if !(frac > 0 && frac < 1) {
		panic("fit: tail fraction must be in (0,1)")
	}
	k := int(float64(len(xs)) * frac)
	if k < 1 {
		k = 1
	}
	return HillTail(xs, k)
}

// NormalMLE fits a Gaussian by sample mean and (population) standard
// deviation.
func NormalMLE(xs []float64) dist.Normal {
	if len(xs) < 2 {
		panic("fit: need at least two observations")
	}
	sd := stats.StdDev(xs)
	if sd == 0 {
		panic("fit: constant sample")
	}
	return dist.NewNormal(stats.Mean(xs), sd)
}

// GumbelMoments fits a Gumbel law by the method of moments:
// β = s·√6/π, α = m - γβ.
func GumbelMoments(xs []float64) dist.Gumbel {
	if len(xs) < 2 {
		panic("fit: need at least two observations")
	}
	const eulerGamma = 0.57721566490153286060651209008240243
	s := stats.StdDev(xs)
	if s == 0 {
		panic("fit: constant sample")
	}
	beta := s * math.Sqrt(6) / math.Pi
	alpha := stats.Mean(xs) - eulerGamma*beta
	return dist.NewGumbel(alpha, beta)
}

// LogExtremeMoments fits the paper's log-extreme law (Gumbel in
// log-base space) by the method of moments on log_base(x).
func LogExtremeMoments(xs []float64, base float64) dist.LogExtreme {
	logs := make([]float64, len(xs))
	lb := math.Log(base)
	for i, x := range xs {
		if x <= 0 {
			panic("fit: log-extreme sample must be positive")
		}
		logs[i] = math.Log(x) / lb
	}
	g := GumbelMoments(logs)
	return dist.NewLogExtremeBase(base, g.Alpha, g.Beta)
}
