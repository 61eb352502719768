package stats

import (
	"math"

	"wantraffic/internal/par"
)

// CountProcess bins event times (seconds since trace start) into a
// count process: out[i] is the number of events with
// i·binWidth <= t < (i+1)·binWidth. Events before time 0 or at/after
// horizon are dropped. The number of bins is ceil(horizon/binWidth).
//
// This is the first step of every burstiness analysis in the paper:
// the variance-time plots view a trace as the count process of 0.1 s
// (or 0.01 s) bins.
func CountProcess(times []float64, binWidth, horizon float64) []float64 {
	if binWidth <= 0 || horizon <= 0 {
		panic("stats: CountProcess requires positive bin width and horizon")
	}
	n := int(math.Ceil(horizon / binWidth))
	out := make([]float64, n)
	for _, t := range times {
		if t < 0 || t >= horizon {
			continue
		}
		i := int(t / binWidth)
		if i >= n { // guard against floating-point edge at the horizon
			i = n - 1
		}
		out[i]++
	}
	return out
}

// Aggregate smooths a count process to aggregation level m by averaging
// consecutive blocks of m observations (Section IV's "smoothed version
// of the process"). Trailing observations that do not fill a block are
// discarded. Aggregate with m = 1 returns a copy.
func Aggregate(xs []float64, m int) []float64 {
	if m <= 0 {
		panic("stats: aggregation level must be positive")
	}
	n := len(xs) / m
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < m; j++ {
			sum += xs[i*m+j]
		}
		out[i] = sum / float64(m)
	}
	return out
}

// SumAggregate is like Aggregate but sums blocks instead of averaging,
// producing the counts of the coarser bins (used when plotting counts
// per 5 s interval as in Fig. 6).
func SumAggregate(xs []float64, m int) []float64 {
	out := Aggregate(xs, m)
	for i := range out {
		out[i] *= float64(m)
	}
	return out
}

// VTPoint is one point of a variance-time plot: the aggregation level M
// and the normalized variance of the process aggregated to level M.
type VTPoint struct {
	M       int
	LogM    float64 // log10 M
	Var     float64 // variance of the M-aggregated process
	NormVar float64 // Var / mean(unaggregated)² (the paper's y-axis)
	LogVar  float64 // log10 NormVar
}

// VarianceTime computes the variance-time curve of a count process for
// logarithmically spaced aggregation levels from 1 up to maxM
// (inclusive), with pointsPerDecade points per decade. The normalized
// variance divides by the square of the unaggregated mean so processes
// with different rates are comparable, exactly as in Fig. 5.
func VarianceTime(counts []float64, maxM, pointsPerDecade int) []VTPoint {
	if maxM > len(counts)/2 {
		maxM = len(counts) / 2
	}
	mean := Mean(counts)
	norm := mean * mean
	levels := VTLevels(maxM, pointsPerDecade)
	// Each aggregation level is an independent O(n) pass, so the curve
	// is computed with bounded parallelism; every point is produced
	// wholly by one goroutine (see internal/par), keeping the result
	// bitwise identical to a serial evaluation.
	return par.MapSlots(len(levels), 0, func(i int) VTPoint {
		m := levels[i]
		v := Variance(Aggregate(counts, m))
		p := VTPoint{M: m, LogM: math.Log10(float64(m)), Var: v}
		if norm > 0 {
			p.NormVar = v / norm
		}
		if p.NormVar > 0 {
			p.LogVar = math.Log10(p.NormVar)
		} else {
			p.LogVar = math.Inf(-1)
		}
		return p
	})
}

// VTLevels returns the aggregation levels VarianceTime evaluates:
// round(10^(k/pointsPerDecade)) for k = 0, 1, ..., ascending and
// deduplicated, up to maxM inclusive. The levels for a smaller maxM
// are a prefix of these.
func VTLevels(maxM, pointsPerDecade int) []int {
	if pointsPerDecade <= 0 {
		panic("stats: pointsPerDecade must be positive")
	}
	var levels []int
	seen := map[int]bool{}
	for e := 0.0; ; e += 1.0 / float64(pointsPerDecade) {
		m := int(math.Round(math.Pow(10, e)))
		if m > maxM {
			break
		}
		if m < 1 || seen[m] {
			continue
		}
		seen[m] = true
		levels = append(levels, m)
	}
	return levels
}

// VTSlope fits a least-squares line to the (log10 M, log10 var) points
// with loM <= M <= hiM and returns its slope. For a Poisson (or any
// short-range dependent) process the asymptotic slope is -1; a shallower
// slope indicates slowly decaying variance and possible long-range
// dependence, with slope = 2H - 2 for an exactly self-similar process.
func VTSlope(pts []VTPoint, loM, hiM int) float64 {
	var xs, ys []float64
	for _, p := range pts {
		if p.M >= loM && p.M <= hiM && !math.IsInf(p.LogVar, 0) {
			xs = append(xs, p.LogM)
			ys = append(ys, p.LogVar)
		}
	}
	slope, _ := LeastSquares(xs, ys)
	return slope
}

// LeastSquares fits y = slope·x + intercept and returns both
// coefficients. With fewer than two points it returns (0, mean(y)).
func LeastSquares(xs, ys []float64) (slope, intercept float64) {
	if len(xs) != len(ys) {
		panic("stats: LeastSquares length mismatch")
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return 0, Mean(ys)
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return 0, my
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	_ = n
	return slope, intercept
}
