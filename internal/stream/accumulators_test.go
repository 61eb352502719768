package stream

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"wantraffic/internal/stats"
)

// testAcc is the surface the table-driven tests drive every
// accumulator through. Each Merge takes its own type and each state
// section is typed, so merging and state go through the per-type
// adapters below.
type testAcc interface {
	Count() int64
	ObserveMany(xs []float64)
	encode() ([]byte, error)
	decode(data []byte) error
	mergeAcc(o testAcc) error
}

func (m *Moments) encode() ([]byte, error)    { return m.appendState(nil), nil }
func (m *Moments) decode(data []byte) error   { return decodeSection(data, m.readState) }
func (m *Moments) mergeAcc(o testAcc) error   { return m.Merge(o.(*Moments)) }
func (g *GK) encode() ([]byte, error)         { return g.appendState(nil), nil }
func (g *GK) decode(data []byte) error        { return decodeSection(data, g.readState) }
func (g *GK) mergeAcc(o testAcc) error        { return g.Merge(o.(*GK)) }
func (h *Log2Hist) encode() ([]byte, error)   { return h.appendState(nil), nil }
func (h *Log2Hist) decode(data []byte) error  { return decodeSection(data, h.readState) }
func (h *Log2Hist) mergeAcc(o testAcc) error  { return h.Merge(o.(*Log2Hist)) }
func (r *Reservoir) encode() ([]byte, error)  { return r.appendState(nil), nil }
func (r *Reservoir) decode(data []byte) error { return decodeSection(data, r.readState) }
func (r *Reservoir) mergeAcc(o testAcc) error { return r.Merge(o.(*Reservoir)) }
func (a *AggVar) encode() ([]byte, error)     { return a.State() }
func (a *AggVar) decode(data []byte) error    { return decodeSection(data, a.readState) }
func (a *AggVar) mergeAcc(o testAcc) error    { return a.Merge(o.(*AggVar)) }

// gkJSON drives a GK through its public JSON State/Restore, the pair
// the observatory's obsState embeds, so both GK encodings get the
// table's round-trip, continuation and non-mutation checks.
type gkJSON struct{ *GK }

func (g gkJSON) encode() ([]byte, error)  { return g.State() }
func (g gkJSON) decode(data []byte) error { return g.Restore(data) }
func (g gkJSON) mergeAcc(o testAcc) error { return g.Merge(o.(gkJSON).GK) }

// decodeSection reads one whole state section.
func decodeSection(data []byte, read func(*decoder) error) error {
	in := &decoder{b: data}
	if err := read(in); err != nil {
		return err
	}
	return in.finish()
}

// accKinds builds each accumulator fresh: every type, GK in both its
// encodings, and the count series both growing and pinned to a horizon.
var accKinds = []struct {
	name  string
	fresh func() testAcc
}{
	{"moments", func() testAcc { return NewMoments() }},
	{"gk", func() testAcc { return NewGK(DefaultEpsilon) }},
	{"gk-json", func() testAcc { return gkJSON{NewGK(DefaultEpsilon)} }},
	{"reservoir", func() testAcc { return NewReservoir(64, 99) }},
	{"log2hist", func() testAcc { return NewLog2Hist() }},
	{"aggvar", func() testAcc { return NewAggVar(1, 0) }},
	{"aggvar-pinned", func() testAcc { return NewAggVar(0.5, 2000) }},
}

// timesObs wraps event times as observation records.
func timesObs(times []float64) []Obs {
	obs := make([]Obs, len(times))
	for i, t := range times {
		obs[i] = Obs{Time: t}
	}
	return obs
}

// streams returns named deterministic observation streams covering the
// distribution shapes the traces produce: heavy tails, near-constant
// values, exponential gaps.
func streams() map[string][]float64 {
	rng := rand.New(rand.NewSource(11))
	out := map[string][]float64{}
	uniform := make([]float64, 20000)
	exponential := make([]float64, 20000)
	lognormal := make([]float64, 20000)
	constant := make([]float64, 5000)
	for i := range uniform {
		uniform[i] = rng.Float64() * 100
		exponential[i] = rng.ExpFloat64() * 3
		lognormal[i] = math.Exp(rng.NormFloat64() * 2.5)
	}
	for i := range constant {
		constant[i] = 42
	}
	out["uniform"] = uniform
	out["exponential"] = exponential
	out["lognormal"] = lognormal
	out["constant"] = constant
	out["tiny"] = []float64{3, 1, 2}
	return out
}

// relErr is |a-b|/max(|b|,1).
func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Abs(b); m > 1 {
		return d / m
	}
	return d
}

// The documented tolerance for streamed floating moments vs batch.
const momentsTol = 1e-11

func TestMomentsMatchBatch(t *testing.T) {
	for name, xs := range streams() {
		m := NewMoments()
		m.ObserveMany(xs)
		if m.Count() != int64(len(xs)) {
			t.Errorf("%s: count %d, want %d", name, m.Count(), len(xs))
		}
		if e := relErr(m.Mean(), stats.Mean(xs)); e > momentsTol {
			t.Errorf("%s: mean off by %g", name, e)
		}
		if e := relErr(m.Variance(), stats.Variance(xs)); e > momentsTol {
			t.Errorf("%s: variance off by %g", name, e)
		}
		mn, mx := xs[0], xs[0]
		for _, x := range xs {
			mn, mx = math.Min(mn, x), math.Max(mx, x)
		}
		if m.Min() != mn || m.Max() != mx {
			t.Errorf("%s: min/max %g/%g, want %g/%g", name, m.Min(), m.Max(), mn, mx)
		}
	}
}

// TestMomentsMergeMatchesWhole splits each stream at several points
// and checks merge-of-parts equals ingest-of-whole.
func TestMomentsMergeMatchesWhole(t *testing.T) {
	for name, xs := range streams() {
		for _, parts := range []int{2, 3, 7} {
			merged := NewMoments()
			for p := 0; p < parts; p++ {
				part := NewMoments()
				part.ObserveMany(strided(xs, p, parts))
				if err := merged.Merge(part); err != nil {
					t.Fatalf("%s: merge: %v", name, err)
				}
			}
			whole := NewMoments()
			whole.ObserveMany(xs)
			if merged.Count() != whole.Count() {
				t.Errorf("%s/%d: merged count %d != %d", name, parts, merged.Count(), whole.Count())
			}
			if e := relErr(merged.Mean(), whole.Mean()); e > momentsTol {
				t.Errorf("%s/%d: merged mean off by %g", name, parts, e)
			}
			if e := relErr(merged.Variance(), whole.Variance()); e > momentsTol {
				t.Errorf("%s/%d: merged variance off by %g", name, parts, e)
			}
		}
	}
}

// gkRankErr computes the achieved rank error of the sketch's estimate
// at p against the sorted batch values.
func gkRankErr(sorted []float64, v, p float64) float64 {
	n := float64(len(sorted))
	lo := float64(sort.SearchFloat64s(sorted, v)) / n
	hi := float64(sort.Search(len(sorted), func(k int) bool { return sorted[k] > v })) / n
	switch {
	case p < lo:
		return lo - p
	case p > hi:
		return p - hi
	}
	return 0
}

var quantileProbes = []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}

// TestGKSingleSketchBound: a single sketch must achieve rank error
// <= eps at every probed quantile.
func TestGKSingleSketchBound(t *testing.T) {
	const eps = 0.01
	for name, xs := range streams() {
		g := NewGK(eps)
		g.ObserveMany(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, p := range quantileProbes {
			if e := gkRankErr(sorted, g.Quantile(p), p); e > eps+1e-9 {
				t.Errorf("%s: p=%g rank error %.4f > eps %g", name, p, e, eps)
			}
		}
	}
}

// TestGKMergedBound: merging shard sketches weakens the guarantee to
// at most 2*eps (the documented bound).
func TestGKMergedBound(t *testing.T) {
	const eps = 0.01
	for name, xs := range streams() {
		if len(xs) < 100 {
			continue
		}
		for _, shards := range []int{2, 4, 8} {
			merged := NewGK(eps)
			for s := 0; s < shards; s++ {
				g := NewGK(eps)
				g.ObserveMany(strided(xs, s, shards))
				if err := merged.Merge(g); err != nil {
					t.Fatalf("merge: %v", err)
				}
			}
			if merged.Count() != int64(len(xs)) {
				t.Fatalf("%s/%d: merged count %d, want %d", name, shards, merged.Count(), len(xs))
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, p := range quantileProbes {
				if e := gkRankErr(sorted, merged.Quantile(p), p); e > 2*eps+1e-9 {
					t.Errorf("%s/%d shards: p=%g rank error %.4f > 2eps %g", name, shards, p, e, 2*eps)
				}
			}
		}
	}
}

func TestGKMergeEmptyAndSelf(t *testing.T) {
	g := NewGK(0.01)
	for i := 0; i < 1000; i++ {
		g.Observe(float64(i))
	}
	if err := g.Merge(NewGK(0.01)); err != nil {
		t.Fatalf("merge empty: %v", err)
	}
	if g.Count() != 1000 {
		t.Fatalf("merge with empty changed count: %d", g.Count())
	}
	empty := NewGK(0.01)
	if err := empty.Merge(g); err != nil {
		t.Fatalf("merge into empty: %v", err)
	}
	if empty.Count() != 1000 {
		t.Fatalf("empty absorbed %d, want 1000", empty.Count())
	}
	if err := g.Merge(g); err != nil {
		t.Fatalf("self-merge: %v", err)
	}
	if g.Count() != 2000 {
		t.Fatalf("self-merge count %d, want 2000", g.Count())
	}
	if err := g.Merge(NewGK(0.05)); err == nil {
		t.Fatal("merging mismatched eps should error")
	}
}

// TestGKFlushResetReuse is the observatory's per-window use of one
// summary: Flush leaves every quantile bit-identical to the
// non-mutating query, and a Reset summary serializes like a fresh one
// and continues exactly as a fresh one fed the same observations.
func TestGKFlushResetReuse(t *testing.T) {
	g := NewGK(DefaultEpsilon)
	ss := streams()
	for w, xs := range [][]float64{ss["lognormal"], ss["uniform"][:37], {4}, ss["exponential"][:5000], ss["constant"]} {
		fresh := NewGK(DefaultEpsilon)
		for _, x := range xs {
			g.Observe(x)
			fresh.Observe(x)
		}
		if a, b := mustState(t, g), mustState(t, fresh); !bytes.Equal(a, b) {
			t.Fatalf("window %d: reused summary state differs from a fresh one:\n%s\n%s", w, a, b)
		}
		var want []float64
		for _, p := range quantileProbes {
			want = append(want, g.Quantile(p))
		}
		g.Flush()
		for i, p := range quantileProbes {
			if got := g.Quantile(p); math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("window %d: p=%g is %v after Flush, %v before", w, p, got, want[i])
			}
		}
		g.Reset()
		if a, b := mustState(t, g), mustState(t, NewGK(DefaultEpsilon)); !bytes.Equal(a, b) || g.Count() != 0 {
			t.Fatalf("window %d: reset summary %s, fresh %s", w, a, b)
		}
	}
}

func mustState(t *testing.T, g *GK) []byte {
	t.Helper()
	st, err := g.State()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestReservoirDeterministicAndUniformCount(t *testing.T) {
	xs := streams()["uniform"]
	a, b := NewReservoir(100, 7), NewReservoir(100, 7)
	a.ObserveMany(xs)
	b.ObserveMany(xs)
	if !floatSliceEq(a.Sample(), b.Sample()) {
		t.Fatal("same seed and stream must give identical samples")
	}
	c := NewReservoir(100, 8)
	c.ObserveMany(xs)
	if floatSliceEq(a.Sample(), c.Sample()) {
		t.Fatal("different seeds should give different samples")
	}
	if a.Count() != int64(len(xs)) || len(a.Sample()) != 100 {
		t.Fatalf("count %d sample %d", a.Count(), len(a.Sample()))
	}
}

func TestReservoirMerge(t *testing.T) {
	a, b := NewReservoir(64, 1), NewReservoir(64, 2)
	a.ObserveMany(repeat(1, 5000))  // all of stream A is 1s
	b.ObserveMany(repeat(2, 15000)) // all of stream B is 2s
	if err := a.Merge(b); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if a.Count() != 20000 {
		t.Fatalf("merged count %d", a.Count())
	}
	ones := 0
	for _, v := range a.Sample() {
		if v == 1 {
			ones++
		}
	}
	// Proportional draw: expect ~16 of 64 from A; allow wide slack.
	if ones < 4 || ones > 36 {
		t.Fatalf("merged sample has %d/64 from the 25%% stream", ones)
	}
	// Determinism: the same merge of the same states gives the same sample.
	a2, b2 := NewReservoir(64, 1), NewReservoir(64, 2)
	a2.ObserveMany(repeat(1, 5000))
	b2.ObserveMany(repeat(2, 15000))
	if err := a2.Merge(b2); err != nil {
		t.Fatal(err)
	}
	if !floatSliceEq(a.Sample(), a2.Sample()) {
		t.Fatal("merge is not deterministic")
	}
	if err := a.Merge(NewReservoir(32, 1)); err == nil {
		t.Fatal("merging mismatched capacities should error")
	}
	// A forged capacity from restored state must not size the merged
	// sample's allocation.
	forged := func() *Reservoir {
		r, src := NewReservoir(1, 1), &Reservoir{k: 1 << 60, seed: 1, n: 1, sample: []float64{1}}
		if err := r.decode(src.appendState(nil)); err != nil {
			t.Fatal(err)
		}
		return r
	}
	big := forged()
	if err := big.Merge(forged()); err != nil || len(big.Sample()) != 2 {
		t.Fatalf("merging forged-capacity reservoirs: %v, %d samples", err, len(big.Sample()))
	}
}

func TestLog2HistExact(t *testing.T) {
	xs := streams()["lognormal"]
	h := NewLog2Hist()
	direct := map[int]int64{}
	for _, x := range xs {
		direct[math.Ilogb(x)]++
	}
	h.ObserveMany(xs)
	h.ObserveMany([]float64{0, -5, math.NaN()})
	if h.NonPositive() != 3 {
		t.Fatalf("non-positive count %d, want 3", h.NonPositive())
	}
	if h.Count() != int64(len(xs))+3 {
		t.Fatalf("count %d", h.Count())
	}
	for k, n := range direct {
		if h.BucketCount(k) != n {
			t.Errorf("bucket %d: %d, want %d", k, h.BucketCount(k), n)
		}
	}
	var total int64
	for _, b := range h.Buckets() {
		total += b.Count
		if b.Lo > b.Hi || b.Hi != 2*b.Lo {
			t.Errorf("bucket %d edges %g..%g", b.Exp, b.Lo, b.Hi)
		}
	}
	if total != int64(len(xs)) {
		t.Fatalf("bucket sum %d, want %d", total, len(xs))
	}
}

// TestWindowCounterMatchesCountProcess: windows computed from the
// count series at k = 5 bins per window match stats.CountProcess at
// the window width.
func TestWindowCounterMatchesCountProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var times []float64
	tt := 0.0
	for i := 0; i < 30000; i++ {
		tt += rng.ExpFloat64() * 0.7
		times = append(times, tt)
	}
	s, err := NewSketch(ConnSketch, 0, Config{WindowWidth: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.ObserveBatch(timesObs(times))
	w := s.Arrivals()
	batch := stats.CountProcess(times, 5, float64(w.Windows())*5)
	if !floatSliceEq(w.Counts(), batch) {
		t.Fatal("window counts differ from stats.CountProcess")
	}
	if e := relErr(w.Dispersion(), stats.Variance(batch)/stats.Mean(batch)); e > 1e-9 {
		t.Fatalf("dispersion off by %g", e)
	}
}

func TestWindowCounterOverflowCap(t *testing.T) {
	s, err := NewSketch(ConnSketch, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A corrupt timestamp must not force a huge allocation.
	s.ObserveBatch(timesObs([]float64{1e300, -3, math.NaN(), 2}))
	w := s.Arrivals()
	if w.Windows() > 3 {
		t.Fatalf("corrupt timestamp grew %d windows", w.Windows())
	}
	if w.Overflow() != 1 {
		t.Fatalf("overflow %d, want 1", w.Overflow())
	}
	if w.Count() != 4 {
		t.Fatalf("count %d, want 4", w.Count())
	}
}

// TestArrivalWindowsMatchCountProcess: for the conn (1 s bins) and
// packet (0.01 s bins) defaults, the 1 s windows summed from the
// count series equal stats.CountProcess at 1 s exactly — over random
// times and over the edge cases, whole seconds and one ulp to either
// side, where a 0.01 s bin index could disagree with its window.
func TestArrivalWindowsMatchCountProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var times []float64
	for i := 0; i < 20000; i++ {
		times = append(times, rng.Float64()*5000)
	}
	for sec := 0.0; sec <= 5000; sec += 7 {
		times = append(times, sec, math.Nextafter(sec, math.Inf(1)))
		if sec > 0 {
			times = append(times, math.Nextafter(sec, 0))
		}
	}
	for _, kind := range []string{ConnSketch, PacketSketch} {
		s, err := NewSketch(kind, 0, Config{})
		if err != nil {
			t.Fatal(err)
		}
		s.ObserveBatch(timesObs(times))
		w := s.Arrivals()
		if w.Windows() != 5000 {
			t.Fatalf("%s: %d windows, want 5000", kind, w.Windows())
		}
		if !floatSliceEq(w.Counts(), stats.CountProcess(times, 1, float64(w.Windows()))) {
			t.Errorf("%s: windows differ from stats.CountProcess at 1 s", kind)
		}
	}
	// Only exact multiples are windows: 3 × 0.1 ≠ 0.3 in float64, and
	// a 0.3 s window over 0.1 s bins would count t = 0.3 (bin 2) in
	// window 0, where stats.CountProcess at 0.3 s puts it in window 1.
	for _, c := range []struct {
		window, bin float64
		ok          bool
	}{{1, 0.01, true}, {2, 0.5, true}, {5, 1, true}, {0.3, 0.1, false}, {1, 0.3, false}, {0.5, 1, false}} {
		_, err := NewSketch(PacketSketch, 0, Config{WindowWidth: c.window, AggBinWidth: c.bin})
		if (err == nil) != c.ok || (err != nil && !errors.Is(err, ErrConfig)) {
			t.Errorf("window %g over %g s bins: err %v, want accepted %v", c.window, c.bin, err, c.ok)
		}
	}
	// A state's window is data: RestoreSketch rejects a bad one
	// without ErrConfig, which callers report as misuse.
	s, err := NewSketch(ConnSketch, 0, Config{WindowWidth: 0.4, AggBinWidth: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	s.window = 0.3
	bad, err := s.State()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreSketch(bad); err == nil || errors.Is(err, ErrConfig) {
		t.Errorf("restoring a 0.3 s window over 0.2 s bins: err %v, want a non-config error", err)
	}
}

func TestAggVarExactlyMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var times []float64
	tt := 0.0
	for i := 0; i < 50000; i++ {
		tt += rng.ExpFloat64() * 0.05
		times = append(times, tt)
	}
	horizon := tt + 1
	a := NewAggVar(0.1, horizon)
	a.ObserveMany(times)
	batch := stats.CountProcess(times, 0.1, horizon)
	if !floatSliceEq(a.Counts(), batch) {
		t.Fatal("aggvar counts differ from stats.CountProcess")
	}
	got := a.VTSlope(100, 5, 5, 100)
	want := stats.VTSlope(stats.VarianceTime(batch, 100, 5), 5, 100)
	if got != want {
		t.Fatalf("VT slope %g != batch %g", got, want)
	}
	// Element-wise integer merge is exact: split == whole.
	merged := NewAggVar(0.1, horizon)
	for p := 0; p < 3; p++ {
		part := NewAggVar(0.1, horizon)
		part.ObserveMany(strided(times, p, 3))
		if err := merged.Merge(part); err != nil {
			t.Fatal(err)
		}
	}
	if !floatSliceEq(merged.Counts(), batch) {
		t.Fatal("merged aggvar counts differ from batch")
	}
}

// TestAggVarRestoreRejectsShortPinnedVector: a pinned horizon fixes
// the bin vector, so a state with fewer bins is corrupt. Accepting the
// empty vector made the next ObserveMany index bin -1; a shorter
// non-empty vector silently clamped records into its last bin.
func TestAggVarRestoreRejectsShortPinnedVector(t *testing.T) {
	for _, bins := range []int{0, 3, 11} {
		raw := appendSeries(nil, 1, 10, 0, 0, 0, make([]int64, bins))
		a := NewAggVar(1, 10)
		if err := a.decode(raw); err == nil {
			a.ObserveMany([]float64{5})
			t.Errorf("accepted %d bins", bins)
		}
	}
	a := NewAggVar(1, 0)
	if err := a.decode(appendSeries(nil, 1, 10, 0, 0, 1, []int64{0, 0, 0, 0, 0, 1, 0, 0, 0, 0})); err != nil {
		t.Fatalf("full pinned vector rejected: %v", err)
	}
	a.ObserveMany([]float64{5, 9.5, 10})
	if got := a.Counts(); got[5] != 2 || got[9] != 1 || a.Count() != 4 {
		t.Fatalf("restored pinned series counts %v over %d events", got, a.Count())
	}
}

// TestStateRoundTrips: state -> restore -> state must be
// byte-identical for every accumulator, populated and empty.
func TestStateRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, kind := range accKinds {
		for _, n := range []int{0, 1, 10000} {
			a := kind.fresh()
			xs := make([]float64, n)
			tt := 0.0
			for i := range xs {
				tt += rng.ExpFloat64()
				xs[i] = tt
			}
			a.ObserveMany(xs)
			s1, err := a.encode()
			if err != nil {
				t.Fatalf("%s/%d: State: %v", kind.name, n, err)
			}
			b := kind.fresh()
			if err := b.decode(s1); err != nil {
				t.Fatalf("%s/%d: Restore: %v", kind.name, n, err)
			}
			s2, err := b.encode()
			if err != nil {
				t.Fatalf("%s/%d: State after Restore: %v", kind.name, n, err)
			}
			if !bytes.Equal(s1, s2) {
				t.Fatalf("%s/%d: round-trip not byte-identical:\n%x\nvs\n%x", kind.name, n, s1, s2)
			}
			if b.Count() != a.Count() {
				t.Fatalf("%s/%d: restored count %d, want %d", kind.name, n, b.Count(), a.Count())
			}
		}
	}
	if _, err := NewSketch("nonsense", 0, Config{}); err == nil {
		t.Fatal("unknown trace kind should error")
	}
}

// TestStateHandlesNonFinite: accumulators fed Inf/NaN (corrupted
// traces) must still serialize and round-trip.
func TestStateHandlesNonFinite(t *testing.T) {
	for _, kind := range accKinds {
		a := kind.fresh()
		a.ObserveMany([]float64{1, math.Inf(1), math.Inf(-1), math.NaN(), 2})
		s1, err := a.encode()
		if err != nil {
			t.Fatalf("%s: State with non-finite observations: %v", kind.name, err)
		}
		b := kind.fresh()
		if err := b.decode(s1); err != nil {
			t.Fatalf("%s: Restore: %v", kind.name, err)
		}
		s2, err := b.encode()
		if err != nil || !bytes.Equal(s1, s2) {
			t.Fatalf("%s: non-finite round-trip failed (%v)", kind.name, err)
		}
	}
}

// TestMergeKindMismatch: each Merge takes its own type, so kinds
// cannot mismatch; configurations still can, and must error.
func TestMergeKindMismatch(t *testing.T) {
	conn, _ := NewSketch(ConnSketch, 0, Config{})
	packet, _ := NewSketch(PacketSketch, 0, Config{})
	wide, _ := NewSketch(ConnSketch, 0, Config{WindowWidth: 5})
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"eps", NewGK(0.01).Merge(NewGK(0.02))},
		{"capacity", NewReservoir(64, 1).Merge(NewReservoir(32, 1))},
		{"width", NewAggVar(1, 0).Merge(NewAggVar(0.01, 0))},
		{"horizon", NewAggVar(1, 100).Merge(NewAggVar(1, 200))},
		{"trace kind", conn.Merge(packet)},
		{"window", conn.Merge(wide)},
	} {
		if tc.err == nil {
			t.Errorf("merging mismatched %s should error", tc.name)
		}
	}
}

// strided returns xs[start], xs[start+step], ... — one shard's
// subsequence under round-robin assignment.
func strided(xs []float64, start, step int) []float64 {
	var out []float64
	for i := start; i < len(xs); i += step {
		out = append(out, xs[i])
	}
	return out
}

// repeat returns n copies of x.
func repeat(x float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = x
	}
	return out
}

func floatSliceEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
