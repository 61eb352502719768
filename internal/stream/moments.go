package stream

import (
	"encoding/json"
	"math"
)

// Moments tracks count, mean, variance, min and max of a stream in
// O(1) memory using Welford's online update, with Chan et al.'s
// pairwise combination for Merge.
//
// Accuracy contract (property-tested): Count, Min and Max are exact.
// Mean and Variance agree with the batch internal/stats results to
// ~1e-12 relative error — Welford is at least as accurate as the
// batch two-pass formulas, but reassociates the additions, so the
// low-order bits differ.
type Moments struct {
	n    int64
	mean float64
	m2   float64 // sum of squared deviations from the running mean
	min  float64
	max  float64
}

// NewMoments returns an empty moments accumulator.
func NewMoments() *Moments { return &Moments{min: math.Inf(1), max: math.Inf(-1)} }

// Count returns the number of observations.
func (m *Moments) Count() int64 { return m.n }

// ObserveMany folds a batch in (Welford's update). The running state
// lives in locals for the duration of the loop, so the resulting bits
// depend only on the observation sequence, not on the batch
// boundaries.
func (m *Moments) ObserveMany(xs []float64) {
	n, mean, m2, lo, hi := m.n, m.mean, m.m2, m.min, m.max
	for _, x := range xs {
		n++
		d := x - mean
		mean += d / float64(n)
		m2 += d * (x - mean)
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	m.n, m.mean, m.m2, m.min, m.max = n, mean, m2, lo, hi
}

// Merge combines another Moments using the parallel variance
// combination: with nA,nB observations, δ = meanB−meanA,
//
//	mean = meanA + δ·nB/n,  M2 = M2A + M2B + δ²·nA·nB/n.
func (m *Moments) Merge(o *Moments) error {
	if o.n == 0 {
		return nil
	}
	if m.n == 0 {
		*m = *o
		return nil
	}
	nA, nB := float64(m.n), float64(o.n)
	n := nA + nB
	d := o.mean - m.mean
	m.mean += d * nB / n
	m.m2 += o.m2 + d*d*nA*nB/n
	m.n += o.n
	if o.min < m.min {
		m.min = o.min
	}
	if o.max > m.max {
		m.max = o.max
	}
	return nil
}

// Mean returns the running mean (0 when empty).
func (m *Moments) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.mean
}

// Variance returns the population variance (divisor n), matching
// stats.Variance.
func (m *Moments) Variance() float64 {
	if m.n == 0 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// SampleVariance returns the unbiased sample variance (divisor n−1),
// matching stats.SampleVariance.
func (m *Moments) SampleVariance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the square root of the population variance.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Min returns the smallest observation (+Inf when empty).
func (m *Moments) Min() float64 { return m.min }

// Max returns the largest observation (−Inf when empty).
func (m *Moments) Max() float64 { return m.max }

// appendState appends the moments section: n, then mean, M2, min and
// max as raw float bits (an empty sketch's ±Inf extremes and the Inf
// or NaN a corrupted trace can feed in need no escaping).
func (m *Moments) appendState(b []byte) []byte {
	b = appendUint(b, m.n)
	for _, v := range [...]float64{m.mean, m.m2, m.min, m.max} {
		b = appendFloat(b, v)
	}
	return b
}

// readState replaces the moments from their state section.
func (m *Moments) readState(in *decoder) error {
	n := in.count()
	mean, m2, lo, hi := in.float(), in.float(), in.float(), in.float()
	if in.err != nil {
		return in.err
	}
	*m = Moments{n: n, mean: mean, m2: m2, min: lo, max: hi}
	return nil
}

// jsonF64 is a float64 that survives JSON round-trips of ±Inf and NaN
// (encoded as the strings "+Inf", "-Inf", "NaN").
type jsonF64 float64

// MarshalJSON implements json.Marshaler.
func (f jsonF64) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *jsonF64) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"+Inf"`:
		*f = jsonF64(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = jsonF64(math.Inf(-1))
		return nil
	case `"NaN"`:
		*f = jsonF64(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = jsonF64(v)
	return nil
}
