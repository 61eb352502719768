package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Trace kinds a Sketch can summarize.
const (
	ConnSketch   = "conn"
	PacketSketch = "packet"
)

// Config parameterizes a sketch set. The zero value selects the
// defaults; every field is pinned into the serialized state, so a
// restored sketch never depends on the restoring process's config.
type Config struct {
	// Epsilon is the GK rank-error bound (DefaultEpsilon when unset).
	Epsilon float64
	// ReservoirSize is the per-dimension sample capacity
	// (DefaultReservoirSize when unset).
	ReservoirSize int
	// Seed drives the reservoir RNGs; each (shard, dimension) pair
	// derives its own sub-seed so shards sample independently.
	Seed int64
	// WindowWidth is the arrival-count window in seconds (1 s when
	// unset), the Appendix-A test interval. It must be a whole
	// multiple of AggBinWidth: the windows are sums of bins.
	WindowWidth float64
	// AggBinWidth is the base bin of the sketch's one count series in
	// seconds (1 s for connection sketches, 0.01 s for packet sketches
	// when unset), the variance-time pipeline's finest scale.
	AggBinWidth float64
	// Horizon, when positive, pins the count series to the trace
	// horizon (stats.CountProcess semantics).
	Horizon float64
}

// withDefaults fills unset Config fields for the given trace kind.
func (c Config) withDefaults(traceKind string) Config {
	if !(c.Epsilon > 0 && c.Epsilon < 1) {
		c.Epsilon = DefaultEpsilon
	}
	if c.ReservoirSize < 1 {
		c.ReservoirSize = DefaultReservoirSize
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if !(c.WindowWidth > 0) {
		c.WindowWidth = 1
	}
	if !(c.AggBinWidth > 0) {
		if traceKind == PacketSketch {
			c.AggBinWidth = 0.01
		} else {
			c.AggBinWidth = 1
		}
	}
	if c.Horizon < 0 {
		c.Horizon = 0
	}
	return c
}

// ErrConfig marks a Config that describes no sketch of the requested
// trace kind: a window that is not a whole number of bins. Callers
// that take the Config from a user map it to a usage error.
var ErrConfig = errors.New("stream: invalid config")

// windowBins returns how many count-series bins make one arrival
// window. The window must be an exact multiple of the bin, so the bin
// edges it sums over are its own edges; 0.3 s over 0.1 s bins is not
// one (3 × 0.1 ≠ 0.3 in float64).
func windowBins(window, bin float64) (int, error) {
	n := math.Round(window / bin)
	if !(n >= 1 && n <= MaxWindows && n*bin == window) {
		return 0, fmt.Errorf("%w: window %g s is not a whole multiple of the %g s bin", ErrConfig, window, bin)
	}
	return int(n), nil
}

// Dim bundles the standard per-dimension accumulators: exact moments,
// an ε-quantile summary, a log₂ histogram, and a seeded sample.
type Dim struct {
	Moments *Moments
	Quant   *GK
	Hist    *Log2Hist
	Sample  *Reservoir
}

// newDim builds a dimension sketch with a (shard, name)-derived
// reservoir seed.
func newDim(cfg Config, shard int, name string) *Dim {
	return &Dim{
		Moments: NewMoments(),
		Quant:   NewGK(cfg.Epsilon),
		Hist:    NewLog2Hist(),
		Sample:  NewReservoir(cfg.ReservoirSize, dimSeed(cfg.Seed, shard, name)),
	}
}

// dimSeed mixes the base seed, shard index and dimension name into a
// per-reservoir seed (FNV-1a).
func dimSeed(seed int64, shard int, name string) int64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) { h ^= v; h *= 1099511628211 }
	mix(uint64(seed))
	mix(uint64(int64(shard)))
	for i := 0; i < len(name); i++ {
		mix(uint64(name[i]))
	}
	s := int64(h & (1<<62 - 1))
	if s == 0 {
		s = 1
	}
	return s
}

// ObserveMany folds a batch into every accumulator.
func (d *Dim) ObserveMany(xs []float64) {
	d.Moments.ObserveMany(xs)
	d.Quant.ObserveMany(xs)
	d.Hist.ObserveMany(xs)
	d.Sample.ObserveMany(xs)
}

// Merge folds another dimension sketch in.
func (d *Dim) Merge(o *Dim) error {
	if err := d.Moments.Merge(o.Moments); err != nil {
		return err
	}
	if err := d.Quant.Merge(o.Quant); err != nil {
		return err
	}
	if err := d.Hist.Merge(o.Hist); err != nil {
		return err
	}
	return d.Sample.Merge(o.Sample)
}

// clone deep-copies the dimension.
func (d *Dim) clone() *Dim {
	m := *d.Moments
	return &Dim{Moments: &m, Quant: d.Quant.clone(), Hist: d.Hist.clone(), Sample: d.Sample.clone()}
}

// appendState appends the dimension's four sections in order.
func (d *Dim) appendState(b []byte) []byte {
	b = d.Moments.appendState(b)
	b = d.Quant.appendState(b)
	b = d.Hist.appendState(b)
	return d.Sample.appendState(b)
}

// readState rebuilds the dimension from its sections, which must
// describe one observation stream: every accumulator's count agrees.
func (d *Dim) readState(in *decoder) error {
	if err := d.Moments.readState(in); err != nil {
		return err
	}
	if err := d.Quant.readState(in); err != nil {
		return err
	}
	if err := d.Hist.readState(in); err != nil {
		return err
	}
	if err := d.Sample.readState(in); err != nil {
		return err
	}
	if n := d.Moments.Count(); d.Quant.Count() != n || d.Hist.Count() != n || d.Sample.Count() != n {
		return fmt.Errorf("stream: dimension counts disagree (moments %d, quantiles %d, hist %d, sample %d)",
			n, d.Quant.Count(), d.Hist.Count(), d.Sample.Count())
	}
	return nil
}

// Obs is one derived observation record fed to a Sketch: the raw
// trace records never reach the accumulators, only the dimensions the
// paper's analyses consume.
type Obs struct {
	// Time is the record's arrival time in seconds since trace start.
	Time float64
	// Value is the record's volume: total bytes for a connection,
	// payload bytes for a packet.
	Value float64
	// Duration is the connection duration (conn sketches only).
	Duration float64
	// Gap is the interarrival gap to the previous record; HasGap is
	// false for the first record of a stream.
	Gap    float64
	HasGap bool
}

// Sketch is the composite streaming summary of one trace: a fixed set
// of named dimension sketches (bytes/duration/gap for connection
// traces, size/gap for packet traces) plus one count series, the
// variance-time accumulator, whose bins also sum to the Appendix-A
// arrival windows. Each pipeline shard owns one Sketch; MergeSketches
// folds them canonically.
type Sketch struct {
	traceKind string
	shard     int
	records   int64
	window    float64 // Appendix-A window width: winBins bins of aggVar
	winBins   int
	dims      map[string]*Dim
	aggVar    *AggVar
	// scratch holds ObserveBatch's columnar views of the current
	// batch. Pure working memory: never serialized, never cloned.
	scratch *batchScratch
}

// batchScratch is the columnar decomposition of one observation batch,
// reused across batches so the hot path allocates nothing.
type batchScratch struct {
	vals, durs, gaps, times []float64
}

// NewSketch builds an empty sketch for the given trace kind
// (ConnSketch or PacketSketch) and shard index. It rejects a window
// width that is not a whole multiple of the bin width with ErrConfig.
func NewSketch(traceKind string, shard int, cfg Config) (*Sketch, error) {
	var dimNames []string
	switch traceKind {
	case ConnSketch:
		dimNames = []string{"bytes", "duration", "gap"}
	case PacketSketch:
		dimNames = []string{"size", "gap"}
	default:
		return nil, fmt.Errorf("stream: unknown trace kind %q", traceKind)
	}
	cfg = cfg.withDefaults(traceKind)
	k, err := windowBins(cfg.WindowWidth, cfg.AggBinWidth)
	if err != nil {
		return nil, err
	}
	s := &Sketch{
		traceKind: traceKind,
		shard:     shard,
		window:    cfg.WindowWidth,
		winBins:   k,
		dims:      make(map[string]*Dim, len(dimNames)),
		aggVar:    NewAggVar(cfg.AggBinWidth, cfg.Horizon),
	}
	for _, name := range dimNames {
		s.dims[name] = newDim(cfg, shard, name)
	}
	return s, nil
}

// TraceKind returns ConnSketch or PacketSketch.
func (s *Sketch) TraceKind() string { return s.traceKind }

// Shard returns the shard index used for canonical merge ordering.
func (s *Sketch) Shard() int { return s.shard }

// Records returns the number of records folded in.
func (s *Sketch) Records() int64 { return s.records }

// DimNames returns the dimension names in canonical (sorted) order.
func (s *Sketch) DimNames() []string {
	names := make([]string, 0, len(s.dims))
	for name := range s.dims {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Dim returns the named dimension sketch, nil if absent.
func (s *Sketch) Dim(name string) *Dim { return s.dims[name] }

// Arrivals returns the Appendix-A arrival windows, computed from the
// count series: window j sums the bins [j·k, (j+1)·k) with
// k = window/bin, up to the window that holds the last non-empty bin.
// The result is a fresh counter; its early/late tallies are the
// series' (with a pinned horizon, events past it count as early).
func (s *Sketch) Arrivals() *WindowCounter {
	a := s.aggVar
	last := len(a.counts) - 1
	for last >= 0 && a.counts[last] == 0 {
		last--
	}
	counts := make([]int64, (last+s.winBins)/s.winBins)
	for i, c := range a.counts[:last+1] {
		counts[i/s.winBins] += c
	}
	return &WindowCounter{width: s.window, counts: counts, early: a.early, late: a.late, total: a.total}
}

// AggVar returns the count series, the variance-time accumulator.
func (s *Sketch) AggVar() *AggVar { return s.aggVar }

// valueDim names the volume dimension for the sketch's kind.
func (s *Sketch) valueDim() string {
	if s.traceKind == PacketSketch {
		return "size"
	}
	return "bytes"
}

// ObserveBatch folds a batch of observation records in, the one way
// to observe a sketch. It transposes the batch into per-dimension
// columns and feeds each accumulator through ObserveMany, which
// amortizes dispatch while preserving every accumulator's observation
// subsequence — so the resulting state does not depend on how a
// record sequence is cut into batches (each accumulator's state
// depends only on its own input sequence, and the columns keep those
// sequences intact).
func (s *Sketch) ObserveBatch(obs []Obs) {
	if len(obs) == 0 {
		return
	}
	if s.scratch == nil {
		s.scratch = &batchScratch{}
	}
	sc := s.scratch
	vals, times := sc.vals[:0], sc.times[:0]
	durs, gaps := sc.durs[:0], sc.gaps[:0]
	durDim := s.dims["duration"]
	for _, o := range obs {
		vals = append(vals, o.Value)
		times = append(times, o.Time)
		if durDim != nil {
			durs = append(durs, o.Duration)
		}
		if o.HasGap {
			gaps = append(gaps, o.Gap)
		}
	}
	sc.vals, sc.durs, sc.gaps, sc.times = vals, durs, gaps, times
	s.records += int64(len(obs))
	s.dims[s.valueDim()].ObserveMany(vals)
	if durDim != nil {
		durDim.ObserveMany(durs)
	}
	if len(gaps) > 0 {
		s.dims["gap"].ObserveMany(gaps)
	}
	s.aggVar.ObserveMany(times)
}

// Merge folds another sketch of the same trace kind in. Like every
// accumulator Merge it is pure but not bitwise associative; use
// MergeSketches for canonical cross-shard folds.
func (s *Sketch) Merge(o *Sketch) error {
	if o.traceKind != s.traceKind {
		return fmt.Errorf("stream: cannot merge %s sketch into %s sketch", o.traceKind, s.traceKind)
	}
	if o.window != s.window {
		return fmt.Errorf("stream: merging sketches with different windows (%g vs %g)", o.window, s.window)
	}
	for _, name := range s.DimNames() {
		od, ok := o.dims[name]
		if !ok {
			return fmt.Errorf("stream: merge source lacks dimension %q", name)
		}
		if err := s.dims[name].Merge(od); err != nil {
			return fmt.Errorf("stream: merging dimension %q: %w", name, err)
		}
	}
	if err := s.aggVar.Merge(o.aggVar); err != nil {
		return err
	}
	s.records += o.records
	return nil
}

// stateMagic opens every serialized sketch state, and stateVersion
// follows it. RestoreSketch rejects every other version; states are
// not migrated.
const (
	stateMagic   = "WTSK"
	stateVersion = 3
)

// State serializes the full sketch deterministically as one binary
// document (DESIGN.md §10): the magic and version, the trace kind,
// shard, record count and window, the count series, then each
// dimension in name order. Equal sketches serialize byte-identically.
// The error is always nil.
func (s *Sketch) State() ([]byte, error) {
	b := append(make([]byte, 0, 256+len(s.aggVar.counts)), stateMagic...)
	b = binary.AppendUvarint(b, stateVersion)
	b = binary.AppendUvarint(b, uint64(len(s.traceKind)))
	b = append(b, s.traceKind...)
	b = binary.AppendVarint(b, int64(s.shard))
	b = appendUint(b, s.records)
	b = appendFloat(b, s.window)
	b = s.aggVar.appendState(b)
	for _, name := range s.DimNames() {
		b = s.dims[name].appendState(b)
	}
	return b, nil
}

// RestoreSketch rebuilds a sketch from State output — the decoder of
// coordinator uploads and worker checkpoints, so it trusts nothing:
// besides each accumulator's own invariants it requires the parts to
// describe one record stream (the series and the value and duration
// dimensions each saw every record, the gap dimension at most that
// many), and it rejects trailing bytes.
func RestoreSketch(data []byte) (*Sketch, error) {
	in := &decoder{b: data}
	if err := in.header(); err != nil {
		return nil, err
	}
	kind, shard, records, window := in.str(), in.varint(), in.count(), in.float()
	series := &AggVar{}
	if err := series.readState(in); err != nil {
		return nil, err
	}
	if !(window > 0) {
		// NewSketch would default it to 1 s.
		return nil, fmt.Errorf("stream: sketch state has invalid window %g", window)
	}
	fresh, err := NewSketch(kind, int(shard), Config{WindowWidth: window, AggBinWidth: series.width})
	if err != nil {
		// A state's window is data, not configuration: %v drops
		// ErrConfig so a corrupt upload is never reported as misuse.
		return nil, fmt.Errorf("stream: sketch state: %v", err)
	}
	if n := series.Count(); n != records {
		return nil, fmt.Errorf("stream: count series holds %d events of %d records", n, records)
	}
	for _, name := range fresh.DimNames() {
		d := fresh.dims[name]
		if err := d.readState(in); err != nil {
			return nil, fmt.Errorf("stream: restoring dimension %q: %w", name, err)
		}
		if n := d.Moments.Count(); n > records || (name != "gap" && n != records) {
			return nil, fmt.Errorf("stream: dimension %q holds %d observations of %d records", name, n, records)
		}
	}
	if err := in.finish(); err != nil {
		return nil, err
	}
	fresh.aggVar, fresh.records = series, records
	return fresh, nil
}

// header checks the magic and the version. A JSON document is never
// a state of this version: its "v" field names an earlier one, and a
// JSON document claiming this version is rejected as corrupt.
func (in *decoder) header() error {
	var v int64
	switch {
	case len(in.b) > 0 && in.b[0] == '{':
		var st struct{ V int64 }
		if err := json.Unmarshal(in.b, &st); err != nil {
			return fmt.Errorf("stream: corrupt sketch state: %w", err)
		}
		if v = st.V; v == stateVersion {
			return fmt.Errorf("stream: corrupt sketch state: version %d is binary, not JSON", v)
		}
	case !bytes.HasPrefix(in.b, []byte(stateMagic)):
		return fmt.Errorf("stream: not a sketch state (no %q magic)", stateMagic)
	default:
		in.b = in.b[len(stateMagic):]
		if v = in.count(); in.err != nil {
			return in.err
		}
	}
	if v != stateVersion {
		return fmt.Errorf("stream: unsupported sketch state version %d (this build reads version %d only)", v, stateVersion)
	}
	return nil
}

// Clone deep-copies a sketch in memory. The copy serializes to the
// same bytes and continues exactly as RestoreSketch(s.State()) would:
// its reservoirs replay their RNGs from (seed, n) when first drawn
// from. The error is always nil.
func (s *Sketch) Clone() (*Sketch, error) {
	c := *s
	c.dims = make(map[string]*Dim, len(s.dims))
	for name, d := range s.dims {
		c.dims[name] = d.clone()
	}
	c.aggVar, c.scratch = s.aggVar.clone(), nil
	return &c, nil
}

// MergeSketches folds shard sketches into one, in ascending shard
// index regardless of the order the slice arrives in — the canonical
// ordering that makes the merged state byte-identical across shard
// arrival permutations (floating-point Merge is pure but not bitwise
// associative, so the fold order must be pinned). The inputs are not
// modified.
func MergeSketches(shards []*Sketch) (*Sketch, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("stream: no sketches to merge")
	}
	ordered := append([]*Sketch(nil), shards...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].shard < ordered[j].shard })
	out, err := ordered[0].Clone()
	if err != nil {
		return nil, err
	}
	for _, sh := range ordered[1:] {
		if err := out.Merge(sh); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DimSummary is the JSON-friendly digest of one dimension.
type DimSummary struct {
	Count  int64   `json:"count"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
}

// Summary is the JSON-friendly digest of a whole sketch, the block
// wanstream prints and wanstats -json embeds.
type Summary struct {
	TraceKind  string                `json:"trace_kind"`
	Records    int64                 `json:"records"`
	Dims       map[string]DimSummary `json:"dims"`
	Windows    int                   `json:"windows"`
	Rate       float64               `json:"rate_per_sec"`
	Dispersion float64               `json:"dispersion"`
	Lag1       float64               `json:"lag1_autocorr"`
	VTSlope    float64               `json:"vt_slope"`
	HurstVT    float64               `json:"hurst_vt"`
}

// finite maps NaN/±Inf (empty-sketch artifacts) to 0 so the summary
// always marshals.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Summarize digests the sketch. The variance-time slope is fitted
// over aggregation levels 10–500 with 5 points per decade, the same
// parameters the batch Section VII experiments use; slope −1 is
// Poisson, and H = 1 + slope/2.
func (s *Sketch) Summarize() Summary {
	arrivals := s.Arrivals()
	sum := Summary{
		TraceKind:  s.traceKind,
		Records:    s.records,
		Dims:       make(map[string]DimSummary, len(s.dims)),
		Windows:    arrivals.Windows(),
		Rate:       finite(arrivals.Rate()),
		Dispersion: finite(arrivals.Dispersion()),
		Lag1:       finite(arrivals.Lag1()),
	}
	for _, name := range s.DimNames() {
		d := s.dims[name]
		sum.Dims[name] = DimSummary{
			Count:  d.Moments.Count(),
			Mean:   finite(d.Moments.Mean()),
			StdDev: finite(d.Moments.StdDev()),
			Min:    finite(d.Moments.Min()),
			Max:    finite(d.Moments.Max()),
			P50:    finite(d.Quant.Quantile(0.5)),
			P90:    finite(d.Quant.Quantile(0.9)),
			P99:    finite(d.Quant.Quantile(0.99)),
		}
	}
	if s.aggVar.Bins() >= 20 {
		slope := s.aggVar.VTSlope(500, 5, 10, 500)
		sum.VTSlope = finite(slope)
		sum.HurstVT = finite(1 + slope/2)
	}
	return sum
}
