package stream

import (
	"encoding/json"
	"fmt"
	"math"
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
// slope, and a plain GK summary it resets at each window close for
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

	// buckets holds the decayed log₂ bucket weights (positive x) of
	// exponents lo, lo+1, …: a weight of 0 marks an empty bucket, and
	// both ends are occupied, so the slice spans exactly the occupied
	// exponent range.
	buckets []float64
	lo      int
	nonPos  float64 // decayed weight of x ≤ 0 / NaN
	total   int64   // exact raw count
	late    int64
}

// decayedFloor drops bucket weights below this after decay, bounding
// the histogram at the buckets that still carry measurable mass. The
// threshold is a pure function of the observation sequence, so
// dropping preserves determinism.
const decayedFloor = 1e-9

// minExp and maxExp bound Exponent over the finite positive float64s
// (the smallest subnormal to the largest normal).
const minExp, maxExp = -1074, 1023

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
	return &Decayed{width: width, halfLife: halfLife}
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
	for i, w := range d.buckets {
		if w *= g; w < decayedFloor {
			w = 0
		}
		d.buckets[i] = w
	}
	d.trim()
}

// trim drops the empty buckets at both ends of the occupied range.
func (d *Decayed) trim() {
	b := d.buckets
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	f := 0
	for f < len(b) && b[f] == 0 {
		f++
	}
	if f > 0 {
		b = b[:copy(b, b[f:])]
		d.lo += f
	}
	d.buckets = b
}

// bump adds one unit of weight to bucket e, widening the occupied
// range to reach it.
func (d *Decayed) bump(e int) {
	switch {
	case len(d.buckets) == 0:
		d.buckets, d.lo = append(d.buckets, 0), e
	case e < d.lo:
		n := d.lo - e
		d.buckets = append(d.buckets, make([]float64, n)...)
		copy(d.buckets[n:], d.buckets)
		clear(d.buckets[:n])
		d.lo = e
	case e-d.lo >= len(d.buckets):
		d.buckets = append(d.buckets, make([]float64, e-d.lo+1-len(d.buckets))...)
	}
	d.buckets[e-d.lo]++
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
		d.bump(Exponent(x))
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

// AppendBuckets appends the occupied decayed log₂ buckets to dst in
// ascending exponent order (weights, not counts) and returns the
// extended slice.
func (d *Decayed) AppendBuckets(dst []DecayedBucket) []DecayedBucket {
	for i, w := range d.buckets {
		if w != 0 {
			dst = append(dst, DecayedBucket{Exp: d.lo + i, Weight: jsonF64(w)})
		}
	}
	return dst
}

// DecayedBucket is one decayed histogram bucket [2^exp, 2^(exp+1)).
type DecayedBucket struct {
	Exp    int     `json:"exp"`
	Weight jsonF64 `json:"w"`
}

// decayedState is the serialized form; float aggregates ride through
// jsonF64 so corrupted-trace infinities still serialize, and buckets
// are in ascending exponent order so equal states are byte-identical.
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
		NonPos: jsonF64(d.nonPos), Total: d.total, Late: d.late,
		Buckets: d.AppendBuckets([]DecayedBucket{}), // empty serializes as [], not null
	})
}

// Restore replaces the sketch's state from State output. Buckets
// must come in strictly ascending exponent order, within the
// exponents of finite positive float64s, each weighing at least
// decayedFloor — what State emits — so the dense histogram stays
// bounded and Restore(State()) stays exact.
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
	for i, b := range st.Buckets {
		if b.Exp < minExp || b.Exp > maxExp {
			return fmt.Errorf("stream: decayed bucket exponent %d outside [%d, %d]", b.Exp, minExp, maxExp)
		}
		if i > 0 && b.Exp <= st.Buckets[i-1].Exp {
			return fmt.Errorf("stream: decayed bucket exponents not strictly ascending at %d", b.Exp)
		}
		if w := float64(b.Weight); !(w >= decayedFloor) || math.IsInf(w, 1) {
			return fmt.Errorf("stream: decayed bucket %d has weight %g, want a finite weight of at least %g", b.Exp, w, decayedFloor)
		}
	}
	var buckets []float64
	var lo int
	if n := len(st.Buckets); n > 0 {
		lo = st.Buckets[0].Exp
		buckets = make([]float64, st.Buckets[n-1].Exp-lo+1)
		for _, b := range st.Buckets {
			buckets[b.Exp-lo] = float64(b.Weight)
		}
	}
	*d = Decayed{
		width: st.Width, halfLife: st.HalfLife, cur: st.Cur, open: st.Open,
		weight: float64(st.Weight), mean: float64(st.Mean), m2: float64(st.M2),
		nonPos: float64(st.NonPos), total: st.Total, late: st.Late,
		buckets: buckets, lo: lo,
	}
	return nil
}
