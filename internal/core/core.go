// Package core ties the substrates together into the paper's analysis
// pipelines — the library a network analyst would actually call:
//
//   - EvaluatePoisson runs the Appendix A methodology on a connection
//     trace's arrival process for one protocol (Fig. 2);
//   - ExtractBursts coalesces FTPDATA connections into Section VI's
//     "connection bursts" using the 4 s spacing rule, and the tail-share
//     analyses quantify how heavily the largest bursts dominate
//     (Figs. 9–11);
//   - VarianceTimeOfTimes and AssessSelfSimilarity implement the
//     Section VII burstiness/long-range dependence toolkit (Figs. 5, 7,
//     12, 13): variance-time slopes, Whittle's Ĥ, and Beran's
//     goodness-of-fit against fractional Gaussian noise.
package core

import (
	"math"
	"sort"

	"wantraffic/internal/poisson"
	"wantraffic/internal/selfsim"
	"wantraffic/internal/stats"
	"wantraffic/internal/trace"
)

// EvaluatePoisson applies the Appendix A test pipeline to the arrival
// times of one protocol's connections in a SYN/FIN trace.
func EvaluatePoisson(tr *trace.ConnTrace, proto trace.Protocol, intervalLen float64) poisson.Result {
	times := tr.StartTimes(proto)
	return poisson.Evaluate(times, tr.Horizon, poisson.DefaultConfig(intervalLen))
}

// Burst is one Section VI FTPDATA connection burst: a maximal run of
// FTPDATA connections within one FTP session spaced less than the
// cutoff apart (end of one to start of the next).
type Burst struct {
	SessionID int64
	Start     float64
	End       float64
	Conns     []trace.Conn
	Bytes     int64
}

// DefaultBurstCutoff is the paper's 4 s spacing threshold.
const DefaultBurstCutoff = 4.0

// ExtractBursts groups a trace's FTPDATA connections by owning session
// and coalesces them into bursts using the given spacing cutoff.
// Bursts are returned sorted by start time.
func ExtractBursts(tr *trace.ConnTrace, cutoff float64) []Burst {
	if cutoff <= 0 {
		panic("core: burst cutoff must be positive")
	}
	bySession := map[int64][]trace.Conn{}
	for _, c := range tr.Conns {
		if c.Proto == trace.FTPData {
			bySession[c.SessionID] = append(bySession[c.SessionID], c)
		}
	}
	var bursts []Burst
	for sid, conns := range bySession {
		sort.Slice(conns, func(i, j int) bool { return conns[i].Start < conns[j].Start })
		cur := Burst{SessionID: sid}
		for _, c := range conns {
			if len(cur.Conns) > 0 && c.Start-cur.End >= cutoff {
				bursts = append(bursts, cur)
				cur = Burst{SessionID: sid}
			}
			cur.Conns = append(cur.Conns, c)
			if len(cur.Conns) == 1 {
				cur.Start = c.Start
			}
			if c.End() > cur.End {
				cur.End = c.End()
			}
			cur.Bytes += c.Bytes()
		}
		if len(cur.Conns) > 0 {
			bursts = append(bursts, cur)
		}
	}
	sort.Slice(bursts, func(i, j int) bool { return bursts[i].Start < bursts[j].Start })
	return bursts
}

// IntraSessionSpacings returns the spacing (end of one FTPDATA
// connection to the start of the next, floored at zero) between
// consecutive FTPDATA connections of the same session — the Fig. 8
// distribution whose bimodality motivates the burst cutoff.
func IntraSessionSpacings(tr *trace.ConnTrace) []float64 {
	bySession := map[int64][]trace.Conn{}
	for _, c := range tr.Conns {
		if c.Proto == trace.FTPData {
			bySession[c.SessionID] = append(bySession[c.SessionID], c)
		}
	}
	var out []float64
	for _, conns := range bySession {
		sort.Slice(conns, func(i, j int) bool { return conns[i].Start < conns[j].Start })
		for i := 1; i < len(conns); i++ {
			gap := conns[i].Start - conns[i-1].End()
			if gap < 0 {
				gap = 0
			}
			out = append(out, gap)
		}
	}
	sort.Float64s(out)
	return out
}

// TailShare returns the fraction of total burst bytes carried by the
// largest `frac` of bursts (e.g. frac = 0.005 for the paper's upper
// 0.5% tail, which holds 30–60% of all FTPDATA bytes).
func TailShare(bursts []Burst, frac float64) float64 {
	if len(bursts) == 0 {
		return 0
	}
	if !(frac > 0 && frac <= 1) {
		panic("core: tail fraction must be in (0,1]")
	}
	sizes := burstSizes(bursts)
	k := int(math.Ceil(float64(len(sizes)) * frac))
	if k < 1 {
		k = 1
	}
	var total, top float64
	for i, s := range sizes {
		total += s
		if i < k {
			top += s
		}
	}
	if total == 0 {
		return 0
	}
	return top / total
}

// burstSizes returns burst byte counts sorted descending.
func burstSizes(bursts []Burst) []float64 {
	sizes := make([]float64, len(bursts))
	for i, b := range bursts {
		sizes[i] = float64(b.Bytes)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(sizes)))
	return sizes
}

// BurstSizesDescending exposes the sorted burst sizes for tail fitting
// (Section VI fits the upper 5% to a Pareto with 0.9 <= β <= 1.4).
func BurstSizesDescending(bursts []Burst) []float64 { return burstSizes(bursts) }

// TopBursts returns the largest `frac` of bursts by bytes.
func TopBursts(bursts []Burst, frac float64) []Burst {
	if len(bursts) == 0 {
		return nil
	}
	sorted := make([]Burst, len(bursts))
	copy(sorted, bursts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Bytes > sorted[j].Bytes })
	k := int(math.Ceil(float64(len(sorted)) * frac))
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k]
}

// MinuteTimeline is the Fig. 10/11 view: per-minute FTPDATA bytes,
// with the contribution of the largest 2% and 0.5% of bursts.
type MinuteTimeline struct {
	Total  []float64 // bytes per minute, all FTPDATA traffic
	Top2   []float64 // bytes per minute from the largest 2% of bursts
	Top05  []float64 // bytes per minute from the largest 0.5% of bursts
	Bursts int
	// ConnsInTop2 is the number of FTPDATA connections inside the top
	// 2% of bursts (the parenthesized pair in the figures).
	ConnsInTop2 int
}

// BurstTimeline computes the per-minute byte timeline of FTPDATA
// traffic over [0, horizon), attributing each connection's bytes
// uniformly across its lifetime.
func BurstTimeline(bursts []Burst, horizon float64) MinuteTimeline {
	nBins := int(math.Ceil(horizon / 60))
	tl := MinuteTimeline{
		Total:  make([]float64, nBins),
		Top2:   make([]float64, nBins),
		Top05:  make([]float64, nBins),
		Bursts: len(bursts),
	}
	top2 := burstSet(TopBursts(bursts, 0.02))
	top05 := burstSet(TopBursts(bursts, 0.005))
	for _, b := range bursts {
		in2 := top2[burstKey(b)]
		in05 := top05[burstKey(b)]
		if in2 {
			tl.ConnsInTop2 += len(b.Conns)
		}
		for _, c := range b.Conns {
			spread(tl.Total, c, horizon)
			if in2 {
				spread(tl.Top2, c, horizon)
			}
			if in05 {
				spread(tl.Top05, c, horizon)
			}
		}
	}
	return tl
}

type burstID struct {
	session int64
	start   float64
}

func burstKey(b Burst) burstID { return burstID{b.SessionID, b.Start} }

func burstSet(bs []Burst) map[burstID]bool {
	m := make(map[burstID]bool, len(bs))
	for _, b := range bs {
		m[burstKey(b)] = true
	}
	return m
}

// spread attributes a connection's bytes uniformly over its duration
// into per-minute bins.
func spread(bins []float64, c trace.Conn, horizon float64) {
	bytes := float64(c.Bytes())
	if bytes <= 0 {
		return
	}
	start, end := c.Start, c.End()
	if end > horizon {
		end = horizon
	}
	if start < 0 {
		start = 0
	}
	if end <= start {
		// Attribute instantaneous transfers to their start minute.
		i := int(start / 60)
		if i >= 0 && i < len(bins) {
			bins[i] += bytes
		}
		return
	}
	rate := bytes / (end - start)
	for t := start; t < end; {
		i := int(t / 60)
		if i >= len(bins) {
			break
		}
		binEnd := float64(i+1) * 60
		if binEnd > end {
			binEnd = end
		}
		bins[i] += rate * (binEnd - t)
		t = binEnd
	}
}

// VarianceTimeOfTimes bins event times and computes the variance-time
// curve plus its fitted log-log slope over aggregation levels
// [10, maxM].
func VarianceTimeOfTimes(times []float64, binWidth, horizon float64, maxM int) ([]stats.VTPoint, float64) {
	counts := stats.CountProcess(times, binWidth, horizon)
	pts := stats.VarianceTime(counts, maxM, 5)
	return pts, stats.VTSlope(pts, 10, maxM)
}

// SelfSimilarity is the Section VII assessment of one count process.
type SelfSimilarity struct {
	VTSlope float64 // variance-time log-log slope (−1 for Poisson)
	HFromVT float64 // 1 + slope/2
	Whittle selfsim.WhittleResult
	// LargeScaleCorrelated reports a VT slope clearly shallower than
	// −1: large-scale correlations inconsistent with Poisson, whether
	// or not the series matches fGn statistically.
	LargeScaleCorrelated bool
	// ConsistentWithFGN means Beran's goodness-of-fit did not reject
	// fractional Gaussian noise at the fitted H.
	ConsistentWithFGN bool
}

// whittleMaxLen bounds the series length fed to the Whittle/Beran
// analysis; longer count processes are first aggregated (summed) to
// coarser bins. For a self-similar process aggregation preserves H,
// and the paper itself reports fGn consistency "at time scales of 1 s
// or greater" — i.e. on aggregated views.
const whittleMaxLen = 8192

// AssessSelfSimilarity runs the variance-time and Whittle/Beran
// analyses on a count process.
func AssessSelfSimilarity(counts []float64, maxM int) SelfSimilarity {
	pts := stats.VarianceTime(counts, maxM, 5)
	slope := stats.VTSlope(pts, 10, maxM)
	w := counts
	if len(w) > whittleMaxLen {
		m := (len(w) + whittleMaxLen - 1) / whittleMaxLen
		w = stats.SumAggregate(w, m)
	}
	res := SelfSimilarity{
		VTSlope: slope,
		HFromVT: 1 + slope/2,
		Whittle: selfsim.Whittle(w),
	}
	res.LargeScaleCorrelated = slope > -0.85
	res.ConsistentWithFGN = res.Whittle.GoodnessOK
	return res
}
