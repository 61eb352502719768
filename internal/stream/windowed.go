package stream

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Decayed is the observatory's time-windowed memory of record sizes.
//
// The base accumulators summarize a whole stream from t=0; a
// monitoring process instead needs "the recent past" — Paxson &
// Floyd's burstiness is a statement about every time scale, and Clegg
// et al. (PAPERS.md) show that averaging a non-stationary stream into
// one cumulative estimate silently launders regime changes into fake
// long-range dependence. The observatory (internal/observe) keeps its
// own count ring for rate, dispersion, lag-1 and the variance-time
// slope, and a plain GK summary it replaces at each window close for
// the per-window quantiles; the one piece it takes from here is
// Decayed: exponentially time-decayed moments plus a decayed log₂
// histogram, the tail sample behind the rolling Hill estimator.
//
// Decayed keeps the base serialization contract (DESIGN.md §10,
// §14): State is a deterministic byte-exact capture, Restore(State())
// is an exact round-trip, and observe(a);State/Restore;observe(b) ≡
// observe(a+b) byte-for-byte. Decay is indexed by *event time*, not
// wall time, so a time-dilated replay produces the same state — and
// therefore the same estimator and verdict sequence — at any dilation
// factor. It has no Merge: the observatory runs on one ingest loop.

// Decayed tracks exponentially time-decayed weighted moments and a
// decayed log₂ histogram: an observation's weight is 1 at its own
// window and halves every halfLife seconds of subsequent stream time.
// Decay is quantized to window boundaries — on a roll of k windows
// every retained weight is multiplied by 2^(-k·width/halfLife) — so
// the state depends only on the observation sequence (the wall clock
// never enters), which keeps replays at any dilation byte-identical.
//
// The decayed histogram doubles as the observatory's tail sample: the
// binned Hill estimator (internal/observe) reads the decayed bucket
// weights directly, so the tail index answers over the same
// exponentially-weighted recent past as the moments.
type Decayed struct {
	width    float64
	halfLife float64
	cur      int64
	open     bool

	weight float64 // decayed observation count
	mean   float64 // decayed weighted mean
	m2     float64 // decayed weighted sum of squared deviations

	buckets map[int]float64 // decayed log₂ bucket weights (positive x)
	nonPos  float64         // decayed weight of x ≤ 0 / NaN
	total   int64           // exact raw count
	late    int64
}

// decayedFloor drops bucket weights below this after decay, bounding
// the map at the buckets that still carry measurable mass. The
// threshold is a pure function of the observation sequence, so
// dropping preserves determinism.
const decayedFloor = 1e-9

// NewDecayed returns an empty decayed accumulator with the given
// window width and half-life in seconds (width ≤ 0 selects 1 s,
// halfLife ≤ 0 selects 60 s).
func NewDecayed(width, halfLife float64) *Decayed {
	if !(width > 0) {
		width = 1
	}
	if !(halfLife > 0) {
		halfLife = 60
	}
	return &Decayed{width: width, halfLife: halfLife, buckets: make(map[int]float64)}
}

// Count returns the exact raw observation count (undecayed).
func (d *Decayed) Count() int64 { return d.total }

// Weight returns the decayed observation count — the effective sample
// size of the recent past.
func (d *Decayed) Weight() float64 { return d.weight + d.nonPos }

// Mean returns the decayed weighted mean (0 when empty).
func (d *Decayed) Mean() float64 {
	if d.weight+d.nonPos <= 0 {
		return 0
	}
	return d.mean
}

func (d *Decayed) windowIndex(t float64) int64 {
	w := t / d.width
	if w >= math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(w)
}

// decayBy applies k window steps of decay to every retained weight.
func (d *Decayed) decayBy(k int64) {
	if k <= 0 {
		return
	}
	g := math.Exp2(-float64(k) * d.width / d.halfLife)
	d.weight *= g
	d.nonPos *= g
	d.m2 *= g
	for e, w := range d.buckets {
		w *= g
		if w < decayedFloor {
			delete(d.buckets, e)
			continue
		}
		d.buckets[e] = w
	}
}

// roll advances the decay window to w.
func (d *Decayed) roll(w int64) {
	if !d.open {
		d.cur, d.open = w, true
		return
	}
	if w > d.cur {
		d.decayBy(w - d.cur)
		d.cur = w
	}
}

// ObserveAt folds observation x at event time t (seconds since
// stream start): weighted Welford with unit weight for the incoming
// observation. A time older than the current decay window folds in
// undecayed, with accounting.
func (d *Decayed) ObserveAt(t, x float64) {
	d.total++
	if t < 0 || math.IsNaN(t) {
		t = 0
	}
	w := d.windowIndex(t)
	if d.open && w < d.cur {
		d.late++
	} else {
		d.roll(w)
	}
	if x > 0 && !math.IsInf(x, 1) && !math.IsNaN(x) {
		d.buckets[Exponent(x)]++
		d.weight++
	} else {
		d.nonPos++
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return // the weight above still counts; moments stay finite
	}
	total := d.weight + d.nonPos
	delta := x - d.mean
	d.mean += delta / total
	d.m2 += delta * (x - d.mean)
}

// AdvanceTo decays forward to t's window without recording an
// observation.
func (d *Decayed) AdvanceTo(t float64) {
	if t < 0 || math.IsNaN(t) {
		return
	}
	if w := d.windowIndex(t); d.open && w > d.cur {
		d.roll(w)
	}
}

// Buckets returns the decayed log₂ buckets in ascending exponent
// order (weights, not counts).
func (d *Decayed) Buckets() []DecayedBucket {
	out := make([]DecayedBucket, 0, len(d.buckets))
	for e, w := range d.buckets {
		out = append(out, DecayedBucket{Exp: e, Weight: jsonF64(w)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Exp < out[j].Exp })
	return out
}

// DecayedBucket is one decayed histogram bucket [2^exp, 2^(exp+1)).
type DecayedBucket struct {
	Exp    int     `json:"exp"`
	Weight jsonF64 `json:"w"`
}

// decayedState is the serialized form; float aggregates ride through
// jsonF64 so corrupted-trace infinities still serialize, and buckets
// are sorted so equal states are byte-identical.
type decayedState struct {
	Width    float64         `json:"width"`
	HalfLife float64         `json:"half_life"`
	Cur      int64           `json:"window"`
	Open     bool            `json:"open"`
	Weight   jsonF64         `json:"weight"`
	Mean     jsonF64         `json:"mean"`
	M2       jsonF64         `json:"m2"`
	NonPos   jsonF64         `json:"non_positive"`
	Total    int64           `json:"total"`
	Late     int64           `json:"late"`
	Buckets  []DecayedBucket `json:"buckets"`
}

// State serializes the sketch deterministically as JSON.
func (d *Decayed) State() ([]byte, error) {
	return json.Marshal(decayedState{
		Width: d.width, HalfLife: d.halfLife, Cur: d.cur, Open: d.open,
		Weight: jsonF64(d.weight), Mean: jsonF64(d.mean), M2: jsonF64(d.m2),
		NonPos: jsonF64(d.nonPos), Total: d.total, Late: d.late, Buckets: d.Buckets(),
	})
}

// Restore replaces the sketch's state from State output.
func (d *Decayed) Restore(data []byte) error {
	st, err := decodeState[decayedState]("decayed", data)
	if err != nil {
		return err
	}
	if !(st.Width > 0) || !(st.HalfLife > 0) {
		return fmt.Errorf("stream: decayed state has invalid shape width=%g half_life=%g", st.Width, st.HalfLife)
	}
	if st.Total < 0 || st.Late < 0 || float64(st.Weight) < 0 || float64(st.NonPos) < 0 {
		return fmt.Errorf("stream: decayed state has negative mass")
	}
	buckets := make(map[int]float64, len(st.Buckets))
	for _, b := range st.Buckets {
		if float64(b.Weight) < 0 {
			return fmt.Errorf("stream: decayed bucket %d has negative weight", b.Exp)
		}
		buckets[b.Exp] += float64(b.Weight)
	}
	*d = Decayed{
		width: st.Width, halfLife: st.HalfLife, cur: st.Cur, open: st.Open,
		weight: float64(st.Weight), mean: float64(st.Mean), m2: float64(st.M2),
		nonPos: float64(st.NonPos), total: st.Total, late: st.Late, buckets: buckets,
	}
	return nil
}
