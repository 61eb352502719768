package main

import (
	"math"
	"sort"
)

// median of xs (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile of ascending s and
// the number of samples beyond it.
func percentile(s []float64, p float64) (value float64, beyond int) {
	k := max(int(math.Ceil(p/100*float64(len(s)))), 1)
	return s[k-1], len(s) - k
}

// tailLadder lists the percentiles tail may report.
var tailLadder = []float64{50, 90, 95, 98, 99, 99.5, 99.8, 99.9, 99.95, 99.98, 99.99}

// tail returns the highest ladder percentile with at least ten
// samples beyond it, and that percentile. With fewer than eleven
// samples it returns the maximum, at 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	value, pct = s[len(s)-1], 100
	for _, p := range tailLadder {
		v, beyond := percentile(s, p)
		if beyond < 10 {
			break
		}
		value, pct = v, p
	}
	return value, pct
}
