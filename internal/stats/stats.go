// Package stats provides the descriptive statistics, count-process
// machinery, and aggregation tools that the paper's analyses are built
// on: binning event times into counts, smoothing counts to aggregation
// level M for variance-time plots (Section IV), sample autocorrelation
// for the independence tests (Appendix A), and empirical CDF utilities
// for the interarrival-distribution figures.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance (divisor n). The paper's
// variance-time plots use population variance of the aggregated count
// process.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(n)
}

// SampleVariance returns the unbiased sample variance (divisor n-1),
// or 0 when fewer than two observations are available.
func SampleVariance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return Variance(xs) * float64(n) / float64(n-1)
}

// StdDev returns the square root of the population variance.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// GeometricMean returns exp(mean(log x)). All values must be positive;
// non-positive values make the result NaN, mirroring the underlying
// logarithm. Fig. 3's exponential "fit #1" matches geometric means.
func GeometricMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// MinMax returns the extrema of xs. It panics on an empty slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Quantile returns the p-th sample quantile of sorted xs using linear
// interpolation between order statistics. xs must be sorted ascending.
func Quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		panic("stats: quantile of empty slice")
	}
	if !(p >= 0 && p <= 1) {
		panic("stats: quantile probability outside [0,1]")
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n-1)
	i := int(math.Floor(pos))
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// Autocorrelation returns the sample autocorrelation of xs at the given
// lag, using the standard biased estimator
//
//	r(k) = sum_{t} (x_t - m)(x_{t+k} - m) / sum_t (x_t - m)².
//
// It returns 0 when the series is constant or shorter than lag+2.
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag < 0 || n < lag+2 {
		return 0
	}
	m := Mean(xs)
	var num, den float64
	for t := 0; t < n; t++ {
		d := xs[t] - m
		den += d * d
		if t+lag < n {
			num += d * (xs[t+lag] - m)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Diff returns the successive differences xs[i+1]-xs[i]; applied to
// sorted arrival times it yields interarrival times.
func Diff(xs []float64) []float64 {
	if len(xs) < 2 {
		return nil
	}
	out := make([]float64, len(xs)-1)
	for i := 1; i < len(xs); i++ {
		out[i-1] = xs[i] - xs[i-1]
	}
	return out
}

// ECDF returns the empirical CDF evaluated at x for the sorted sample.
func ECDF(sorted []float64, x float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(sorted))
}

// FractionBelow returns the fraction of xs strictly below x, and
// FractionAbove the fraction strictly above; both are used for the
// quantile facts quoted in Section IV (e.g. "under 2% were less than
// 8 ms apart, over 15% were more than 1 s apart").
func FractionBelow(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := 0
	for _, v := range xs {
		if v < x {
			c++
		}
	}
	return float64(c) / float64(len(xs))
}

// FractionAbove returns the fraction of xs strictly above x.
func FractionAbove(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := 0
	for _, v := range xs {
		if v > x {
			c++
		}
	}
	return float64(c) / float64(len(xs))
}
