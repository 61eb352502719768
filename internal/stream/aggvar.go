package stream

import (
	"fmt"
	"math"

	"wantraffic/internal/stats"
)

// AggVar is the aggregated-variance (variance-time) accumulator that
// feeds the Section VII self-similarity pipeline: it bins event times
// into a base count process at binWidth and, on demand, produces the
// variance-time curve (stats.VarianceTime) and its Hurst slope
// exactly as the batch pipeline would — because the per-bin counts
// are exact integers, the streaming curve is byte-identical to the
// batch one over the same events. It is a Sketch's one count series:
// the Appendix-A windows are sums of consecutive bins
// (Sketch.Arrivals).
//
// Memory is O(bins) = horizon/binWidth, independent of the number of
// events; Merge adds count vectors element-wise, exactly.
type AggVar struct {
	width  float64
	counts []int64
	early  int64 // events before t=0 or at/after a pinned horizon
	late   int64 // events beyond MaxWindows bins
	total  int64
	// horizon > 0 reproduces stats.CountProcess's fixed-horizon
	// semantics (events at/after it are dropped, the bin count is
	// ceil(horizon/binWidth)); 0 grows with the observed times.
	horizon float64
}

// MaxWindows caps the count vector so a corrupted timestamp (a
// fault-injected trace can claim an arrival at t=1e300) cannot force
// unbounded allocation; events beyond the cap are tallied in an
// overflow counter instead of binned. 2^22 bins of 8 bytes is a 32 MB
// ceiling: 48.5 days at 1 s bins, 11.65 h at 0.01 s bins.
const MaxWindows = 1 << 22

// NewAggVar returns an empty accumulator over a count process at
// binWidth-second bins (binWidth ≤ 0 selects 0.01 s, the paper's
// packet-trace default). A positive horizon pins the bin vector to
// ceil(horizon/binWidth) bins with stats.CountProcess's edge rules;
// horizon 0 lets it grow with the stream.
func NewAggVar(binWidth, horizon float64) *AggVar {
	if !(binWidth > 0) {
		binWidth = 0.01
	}
	a := &AggVar{width: binWidth, horizon: horizon}
	if horizon > 0 {
		a.counts = make([]int64, pinnedBins(binWidth, horizon))
	}
	return a
}

// pinnedBins is the bin count of a pinned horizon:
// ceil(horizon/binWidth), capped at MaxWindows.
func pinnedBins(binWidth, horizon float64) int {
	if n := math.Ceil(horizon / binWidth); n < MaxWindows {
		return int(n)
	}
	return MaxWindows
}

// Count returns the number of events observed.
func (a *AggVar) Count() int64 { return a.total }

// BinWidth returns the base bin width in seconds.
func (a *AggVar) BinWidth() float64 { return a.width }

// Bins returns the current number of base bins.
func (a *AggVar) Bins() int { return len(a.counts) }

// Overflow returns the count of events beyond the MaxWindows cap.
func (a *AggVar) Overflow() int64 { return a.late }

// ObserveMany records events at times xs (seconds since trace start).
// Events before t=0 are tallied separately, never binned. With a
// pinned horizon, events at or beyond it are dropped too
// (stats.CountProcess semantics), except that the floating-point edge
// case exactly at the last bin boundary clamps into the final bin,
// also matching CountProcess.
func (a *AggVar) ObserveMany(xs []float64) {
	// Unpinned, the series takes every x ≥ 0 (+Inf lands past the
	// cap); pinned, x ≤ the float below the horizon is x < horizon.
	hi, top := math.Inf(1), float64(MaxWindows)
	pinned := a.horizon > 0
	if pinned {
		hi, top = math.Nextafter(a.horizon, 0), float64(len(a.counts))
	}
	for _, x := range xs {
		if !(x >= 0 && x <= hi) {
			a.early++
			continue
		}
		b := x / a.width
		switch {
		case b < top:
			i := int(b)
			for i >= len(a.counts) {
				a.counts = append(a.counts, 0)
			}
			a.counts[i]++
		case pinned: // edge at the horizon
			a.counts[len(a.counts)-1]++
		default:
			a.late++
		}
	}
	a.total += int64(len(xs))
}

// Counts returns the base count process as float64s — exactly
// stats.CountProcess(times, binWidth, horizon) when the horizon is
// pinned.
func (a *AggVar) Counts() []float64 { return floats(a.counts) }

// VariancePoints computes the variance-time curve for logarithmically
// spaced aggregation levels up to maxM with pointsPerDecade points per
// decade — the exact batch computation (stats.VarianceTime) over the
// streamed counts.
func (a *AggVar) VariancePoints(maxM, pointsPerDecade int) []stats.VTPoint {
	return stats.VarianceTime(a.Counts(), maxM, pointsPerDecade)
}

// VTSlope fits the variance-time slope over aggregation levels
// [loM, hiM]; slope −1 is Poisson, 2H−2 for self-similar processes.
func (a *AggVar) VTSlope(maxM, pointsPerDecade, loM, hiM int) float64 {
	return stats.VTSlope(a.VariancePoints(maxM, pointsPerDecade), loM, hiM)
}

// Merge adds another accumulator's count vector element-wise. Bin
// widths and horizons must match.
func (a *AggVar) Merge(o *AggVar) error {
	if o.width != a.width {
		return fmt.Errorf("stream: merging aggvar sketches with different bin widths (%g vs %g)", o.width, a.width)
	}
	if o.horizon != a.horizon {
		return fmt.Errorf("stream: merging aggvar sketches with different horizons (%g vs %g)", o.horizon, a.horizon)
	}
	ocounts := o.counts
	if o == a {
		ocounts = append([]int64(nil), a.counts...)
	}
	for len(a.counts) < len(ocounts) {
		a.counts = append(a.counts, 0)
	}
	for i, c := range ocounts {
		a.counts[i] += c
	}
	a.early += o.early
	a.late += o.late
	a.total += o.total
	return nil
}

// clone deep-copies the series.
func (a *AggVar) clone() *AggVar {
	c := *a
	c.counts = append([]int64(nil), a.counts...)
	return &c
}

// appendState appends the series section of a sketch state.
func (a *AggVar) appendState(b []byte) []byte {
	return appendSeries(b, a.width, a.horizon, a.early, a.late, a.total, a.counts)
}

// State serializes the count series deterministically: the series
// section of a sketch state (DESIGN.md §10).
func (a *AggVar) State() ([]byte, error) { return a.appendState(nil), nil }

// readState replaces the series from its state section. The tallies
// and the bin count are checked before the bins are allocated.
func (a *AggVar) readState(in *decoder) error {
	width, horizon := in.float(), in.float()
	early, late, total := in.count(), in.count(), in.count()
	bins := in.uvarint()
	if in.err != nil {
		return in.err
	}
	if !(width > 0 && width <= math.MaxFloat64) || !(horizon >= 0 && horizon <= math.MaxFloat64) {
		return fmt.Errorf("stream: aggvar state has invalid width %g or horizon %g", width, horizon)
	}
	if bins > MaxWindows {
		return fmt.Errorf("stream: aggvar state spans %d bins (limit %d)", bins, MaxWindows)
	}
	// A pinned horizon fixes the bin vector: ObserveMany indexes it
	// directly and clamps into the last bin.
	if n := pinnedBins(width, horizon); horizon > 0 && bins != uint64(n) {
		return fmt.Errorf("stream: aggvar state pins horizon %g at %d bins, want %d", horizon, bins, n)
	}
	if early > total || late > total-early {
		return fmt.Errorf("stream: aggvar early %d and late %d exceed the total %d", early, late, total)
	}
	counts := in.readSeriesCounts(int(bins), total-early-late)
	if in.err != nil {
		return in.err
	}
	*a = AggVar{width: width, counts: counts, early: early, late: late, total: total, horizon: horizon}
	return nil
}
