package observe

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"math/big"
	"math/bits"

	"wantraffic/internal/obs"
	"wantraffic/internal/stats"
	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// Observatory consumes a live record stream (connections or packets)
// and, at every estimator-window close, recomputes the rolling
// statistics the paper says distinguish real wide-area traffic from
// Poisson — rate, index of dispersion, lag-1 autocorrelation,
// variance-time Hurst slope, Hill tail index, per-protocol rates —
// renders them into a verdict ("poisson" / "bursty" / "warming"), and
// runs Page–Hinkley detectors over the estimator series to flag
// regime changes as classified change-point events.
//
// Every output path — the synchronous OnEvent callback, the obs.Bus,
// the metrics gauges, the structured log — carries values computed
// purely from the record sequence. The wall clock never enters, so a
// dilated replay is byte-identical to a full-speed one.
//
// Observatory is not goroutine-safe: it sits behind a single ingest
// loop (the replayer or a future wanload socket reader), matching the
// per-shard accumulator contract in internal/stream.
type Observatory struct {
	opt Options

	cur int64 // current estimator window index

	// ring is the one count series behind rate, dispersion, lag-1 and
	// the Hurst proxy: arrivals per Window/binsPerWindow bin, oldest
	// first, binsPerWindow bins per window, at most KeepWindows
	// windows, the newest of which is ringTop. It is empty until the
	// first record. ringLead bins at the front precede the first
	// record's bin: they count toward their window's sum but stay
	// out of the Hurst series, which starts at the first record.
	ring     []int64
	ringTop  int64
	ringLead int

	sizes *stream.Decayed // decayed size moments + log₂ tail sample
	quant *stream.GK      // sizes since the last window close (reset at each)

	records    int64 // records ever observed
	winRecords int64 // records in the open window
	skipped    int64 // windows fast-forwarded past without an estimate
	closed     int64 // windows closed (estimates emitted)
	changes    int64 // change-point events emitted

	protoWin   [nproto]int64 // records per protocol, open window
	protoTotal [nproto]int64

	detRate *PageHinkley
	detDisp *PageHinkley
	detTail *PageHinkley

	closeWM *obs.Watermark // window_close stamp, resolved once in New

	lastEst Estimate

	// Per-close scratch, sized once in New: prefix sums of the ring,
	// the variance-time levels M ≥ 2 up to the ring's largest maxM with
	// their log10(M), the fit points, and the Hill bucket buffer.
	prefix     []int64
	levels     []int
	logM       []float64
	fitX, fitY []float64
	hill       []stream.DecayedBucket
}

// nproto covers every trace.Protocol value (Other..WWW).
const nproto = 9

// binsPerWindow subdivides each estimator window for the
// variance-time curve: the Hurst slope needs counts at time scales
// *below* the estimator window to see short-range structure.
const binsPerWindow = 8

// vtPointsPerDecade is the variance-time curve's level density.
const vtPointsPerDecade = 5

// Options configures an Observatory. The zero value selects the
// defaults noted on each field.
type Options struct {
	// Window is the estimator window in seconds (default 5): every
	// Window of event time the estimators update and a verdict is
	// emitted.
	Window float64
	// KeepWindows is the rolling horizon in windows for rate,
	// dispersion and lag-1 (default 60 — five minutes at the default
	// Window).
	KeepWindows int
	// HalfLife is the exponential-decay half-life in seconds for the
	// size moments and the Hill tail sample (default 10·Window).
	HalfLife float64
	// TailFrac is the fraction of decayed mass treated as the tail by
	// the Hill estimator (default 0.1).
	TailFrac float64
	// Eps is the GK quantile error for the per-window p50/p95
	// (default stream.DefaultEpsilon).
	Eps float64
	// Warmup is the number of closed windows before verdicts leave
	// "warming" and detectors calibrate (default 8, minimum 2).
	Warmup int
	// Delta and Lambda are the Page–Hinkley drift and threshold as
	// fractions of each signal's calibrated scale (defaults 0.1 and
	// 3.0 — sized so Poisson counting noise at moderate rates stays
	// under the drift allowance while a 2x step alarms within a few
	// windows).
	Delta, Lambda float64
	// Cooldown is the quiet period in windows after a change-point
	// before the (re-warming) detector may fire again (default 4).
	Cooldown int

	// OnEvent, when set, receives every verdict and change-point
	// event synchronously in emission order — the deterministic
	// capture path (golden experiment, -follow stdout lines).
	OnEvent func(Event)
	// Bus, when set, receives the same events as non-blocking
	// StreamEvents (SSE /events). A nil bus no-ops.
	Bus *obs.Bus
	// Metrics, when set, carries the observe.* gauges the monitor
	// server exports. A nil registry no-ops.
	Metrics *obs.Registry
	// Marks, when set, stamps the window_close watermark with each
	// sealed window's end time, so freshness lag covers the estimator
	// stage too. A nil set no-ops.
	Marks *obs.Watermarks
	// Logger, when set, logs one structured record per event; the
	// Context's span stamps trace/span IDs.
	Logger  *slog.Logger
	Context context.Context
}

func (o Options) withDefaults() Options {
	if !(o.Window > 0) {
		o.Window = 5
	}
	if o.KeepWindows < 2 {
		o.KeepWindows = 60
	}
	if !(o.HalfLife > 0) {
		o.HalfLife = 10 * o.Window
	}
	if !(o.TailFrac > 0) || o.TailFrac > 1 {
		o.TailFrac = 0.1
	}
	if !(o.Eps > 0) {
		o.Eps = stream.DefaultEpsilon
	}
	if o.Warmup < 2 {
		o.Warmup = 8
	}
	if !(o.Delta > 0) {
		o.Delta = 0.1
	}
	if !(o.Lambda > 0) {
		o.Lambda = 3.0
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 4
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	return o
}

// Estimate is one window close's rolling statistics. Zero stands for
// "unavailable" on Hurst, TailAlpha, P50 and P95; every field is
// finite, so the JSON encoding is exact.
type Estimate struct {
	Window     int64              `json:"window"`      // closed window index
	TEnd       float64            `json:"t_end"`       // window end, seconds of event time
	Records    int64              `json:"records"`     // records inside the closed window
	Total      int64              `json:"total"`       // records since start
	Rate       float64            `json:"rate"`        // events/s over the rolling horizon
	Dispersion float64            `json:"dispersion"`  // var/mean of per-window counts (1 = Poisson)
	Lag1       float64            `json:"lag1"`        // lag-1 autocorrelation of counts
	Hurst      float64            `json:"hurst"`       // variance-time Hurst proxy (0.5 = Poisson)
	TailAlpha  float64            `json:"tail_alpha"`  // Hill tail index over the decayed sample
	TailWeight float64            `json:"tail_weight"` // decayed mass behind TailAlpha
	P50        float64            `json:"p50"`         // window median size
	P95        float64            `json:"p95"`         // window p95 size
	MeanSize   float64            `json:"mean_size"`   // decayed mean size
	Weight     float64            `json:"weight"`      // decayed sample weight
	ProtoRate  map[string]float64 `json:"proto_rate,omitempty"`
	Verdict    string             `json:"verdict"`
}

// Event is one observatory emission: a per-window verdict, or a
// change-point alarm. JSON field order is fixed and all floats are
// finite, so equal event sequences are byte-identical.
type Event struct {
	Kind   string  `json:"kind"` // obs.EventVerdict or obs.EventChangePoint
	Window int64   `json:"window"`
	TEnd   float64 `json:"t_end"`
	// Name is the verdict ("warming"/"poisson"/"bursty") or the
	// change-point class ("rate-step"/"dispersion-shift"/"tail-shift").
	Name string `json:"name"`
	// Change-point fields (empty/zero on verdicts).
	Signal    string  `json:"signal,omitempty"` // rate | dispersion | tail_alpha
	Direction string  `json:"direction,omitempty"`
	Value     float64 `json:"value,omitempty"`
	Baseline  float64 `json:"baseline,omitempty"`
	Score     float64 `json:"score,omitempty"`
	// Estimate rides along on verdict events.
	Estimate *Estimate `json:"estimate,omitempty"`
}

// New returns an Observatory with the given options.
func New(opt Options) *Observatory {
	opt = opt.withDefaults()
	bins := opt.KeepWindows * binsPerWindow
	o := &Observatory{
		opt:     opt,
		ring:    make([]int64, 0, bins),
		sizes:   stream.NewDecayed(opt.Window, opt.HalfLife),
		quant:   stream.NewGK(opt.Eps),
		detRate: NewPageHinkley(opt.Delta, opt.Lambda, opt.Warmup, opt.Cooldown),
		detDisp: NewPageHinkley(opt.Delta, opt.Lambda, opt.Warmup, opt.Cooldown),
		detTail: NewPageHinkley(opt.Delta, opt.Lambda, opt.Warmup, opt.Cooldown),
		closeWM: opt.Marks.Stage(obs.StageWindowClose),
		prefix:  make([]int64, bins+1),
	}
	for _, m := range stats.VTLevels(bins/4, vtPointsPerDecade) {
		if m >= 2 {
			o.levels = append(o.levels, m)
			o.logM = append(o.logM, math.Log10(float64(m)))
		}
	}
	o.fitX = make([]float64, 0, len(o.levels))
	o.fitY = make([]float64, 0, len(o.levels))
	return o
}

// Options returns the effective (defaulted) options.
func (o *Observatory) Options() Options { return o.opt }

// Records returns the total records observed.
func (o *Observatory) Records() int64 { return o.records }

// Windows returns the number of estimator windows closed.
func (o *Observatory) Windows() int64 { return o.closed }

// ChangePoints returns the number of change-point events emitted.
func (o *Observatory) ChangePoints() int64 { return o.changes }

// Last returns the most recent estimate (zero before the first
// window close).
func (o *Observatory) Last() Estimate { return o.lastEst }

// ObserveConn folds one connection record: its start time drives the
// windows, its total byte volume feeds the size estimators.
func (o *Observatory) ObserveConn(c trace.Conn) {
	o.observe(c.Start, float64(c.BytesOrig+c.BytesResp), c.Proto)
}

// ObservePacket folds one packet record.
func (o *Observatory) ObservePacket(p trace.Packet) {
	o.observe(p.Time, float64(p.Size), p.Proto)
}

func (o *Observatory) observe(t, x float64, p trace.Protocol) {
	if t < 0 || math.IsNaN(t) {
		t = 0
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		x = 0
	}
	w, b := o.bin(t)
	if len(o.ring) == 0 {
		o.cur, o.ringTop, o.ringLead = w, w, b
		o.ring = append(o.ring, make([]int64, binsPerWindow)...)
	} else if w > o.cur {
		o.closeThrough(w)
	}
	o.records++
	o.winRecords++
	pi := int(p)
	if pi >= nproto {
		pi = 0
	}
	o.protoWin[pi]++
	o.protoTotal[pi]++
	o.advance(w)
	// A record older than the ring's first window is counted but not
	// binned: its window has already left the rolling horizon.
	if base := o.ringTop - int64(len(o.ring)/binsPerWindow) + 1; w >= base {
		i := int(w-base)*binsPerWindow + b
		o.ring[i]++
	}
	o.sizes.ObserveAt(t, x)
	o.quant.Observe(x)
}

// Flush closes the currently open (partial) window so a finite trace
// ends with a final estimate. The next observation opens a fresh
// window.
func (o *Observatory) Flush() {
	if len(o.ring) == 0 {
		return
	}
	o.closeThrough(o.cur + 1)
}

// maxWindow caps the window index so a corrupted timestamp cannot
// force an astronomic fast-forward (or overflow the index arithmetic).
const maxWindow = math.MaxInt64 / 2

// bin maps an event time to its window index and its bin within that
// window. The bin derives from the window index: Window/binsPerWindow
// is a power-of-two scaling of Window, so t/(Window/8) rounds to
// exactly 8·(t/Window), and its integer part is 8·w plus the bin
// below. A capped time lands in bin 0 of the capped window.
func (o *Observatory) bin(t float64) (int64, int) {
	x := t / o.opt.Window
	if x >= maxWindow {
		return maxWindow, 0
	}
	w := int64(x)
	return w, int((x - float64(w)) * binsPerWindow)
}

// advance makes window w the ring's newest: the ring grows up to
// KeepWindows windows, then slides, zeroing the bins it exposes.
func (o *Observatory) advance(w int64) {
	shift := w - o.ringTop
	if shift <= 0 {
		return
	}
	o.ringTop = w
	for ; shift > 0 && len(o.ring) < o.opt.KeepWindows*binsPerWindow; shift-- {
		o.ring = append(o.ring, make([]int64, binsPerWindow)...)
	}
	if shift == 0 {
		return
	}
	if n := int64(len(o.ring) / binsPerWindow); shift >= n {
		clear(o.ring)
		o.ringLead = 0
		return
	}
	k := int(shift) * binsPerWindow
	o.ringLead = 0 // the first record's window has slid out
	copy(o.ring, o.ring[k:])
	clear(o.ring[len(o.ring)-k:])
}

// closeThrough closes every window in [cur, w) in order. A
// fast-forward farther than the rolling horizon (a trace gap, a
// corrupted timestamp) skips the intermediate estimates — they would
// all read an all-zero horizon anyway — and emits only the last one,
// with the skip accounted.
func (o *Observatory) closeThrough(w int64) {
	if gap := w - o.cur; gap > int64(o.opt.KeepWindows) {
		skip := gap - 1
		o.skipped += skip
		o.cur = w - 1
		o.winRecords = 0
		o.protoWin = [nproto]int64{}
	}
	for o.cur < w {
		o.closeWindow(o.cur)
		o.cur++
		o.winRecords = 0
		o.protoWin = [nproto]int64{}
	}
}

// closeWindow advances the ring and the decayed sizes to window wc,
// recomputes the estimators, empties the quantile summary for the
// next window, emits the verdict event and feeds the detectors.
func (o *Observatory) closeWindow(wc int64) {
	o.advance(wc)
	o.sizes.AdvanceTo((float64(wc) + 0.5) * o.opt.Window)

	est := o.estimate(wc)
	o.quant.Reset()
	o.closed++
	o.lastEst = est
	o.closeWM.Stamp(est.TEnd)
	o.emit(Event{
		Kind: obs.EventVerdict, Window: wc, TEnd: est.TEnd,
		Name: est.Verdict, Estimate: &est,
	})
	o.detect(est)
}

func (o *Observatory) estimate(wc int64) Estimate {
	est := Estimate{
		Window:   wc,
		TEnd:     float64(wc+1) * o.opt.Window,
		Records:  o.winRecords,
		Total:    o.records,
		MeanSize: finite(o.sizes.Mean()),
		Weight:   finite(o.sizes.Weight()),
	}
	// One pass fills the prefix sums and counts the Hurst series'
	// occupied bins (those from ringLead on holding a record).
	p := o.prefix[:len(o.ring)+1]
	var sum int64
	occupied := 0
	for i, c := range o.ring {
		sum += c
		p[i+1] = sum
		if c > 0 && i >= o.ringLead {
			occupied++
		}
	}
	est.Rate, est.Dispersion, est.Lag1 = o.windowStats(p)
	est.Rate, est.Dispersion, est.Lag1 = finite(est.Rate), finite(est.Dispersion), finite(est.Lag1)
	if o.quant.Count() > 0 {
		// The summary is reset right after this close, so flushing it
		// in place costs nothing later and spares Quantile its clone.
		o.quant.Flush()
		est.P50 = finite(o.quant.Quantile(0.50))
		est.P95 = finite(o.quant.Quantile(0.95))
	}
	o.hill = o.sizes.AppendBuckets(o.hill[:0])
	est.TailAlpha, est.TailWeight = HillBinned(o.hill, o.opt.TailFrac)
	est.TailAlpha, est.TailWeight = finite(est.TailAlpha), finite(est.TailWeight)
	est.Hurst = o.hurst(p[o.ringLead:], occupied)
	for pi, n := range o.protoWin {
		if n == 0 {
			continue
		}
		if est.ProtoRate == nil {
			est.ProtoRate = make(map[string]float64, 4)
		}
		est.ProtoRate[trace.Protocol(pi).String()] = float64(n) / o.opt.Window
	}
	est.Verdict = o.verdict(est)
	return est
}

// windowStats returns the rate, index of dispersion and lag-1
// autocorrelation of the per-window counts over the ring, given its
// prefix sums p (window i's count is p[8i+8]−p[8i]). The arithmetic
// is the batch one: integer sums, then float deviations in window
// order.
func (o *Observatory) windowStats(p []int64) (rate, disp, lag1 float64) {
	n := len(o.ring) / binsPerWindow
	if n == 0 {
		return 0, 0, 0
	}
	win := func(i int) float64 { return float64(p[(i+1)*binsPerWindow] - p[i*binsPerWindow]) }
	sum := p[len(p)-1]
	rate = float64(sum) / (float64(n) * o.opt.Window)
	mean := float64(sum) / float64(n)
	var ss, num float64
	for i := 0; i < n; i++ {
		d := win(i) - mean
		ss += d * d
		if i+1 < n {
			num += d * (win(i+1) - mean)
		}
	}
	if mean != 0 {
		disp = ss / float64(n) / mean
	}
	if n >= 3 && ss != 0 {
		lag1 = num / ss
	}
	return rate, disp, lag1
}

// hurst fits the variance-time slope over the fine-bin series with
// prefix sums p, of which occupied bins hold a record, and maps it to
// H = 1 + slope/2 (slope −1 ⇒ H = 0.5 ⇒ Poisson; DESIGN.md §9). It
// returns 0 until the retained horizon carries enough occupied bins
// to aggregate meaningfully.
//
// The curve is stats.VarianceTime's — the variance of the level-M
// block means over the squared mean bin count, for 2 ≤ M ≤ maxM —
// with each point computed exactly (normVar) and rounded once, then
// the least-squares line through (log10 M, log10 normVar).
func (o *Observatory) hurst(p []int64, occupied int) float64 {
	n := len(p) - 1
	if n < 4*binsPerWindow || occupied < 2*binsPerWindow {
		return 0
	}
	maxM := n / 4
	xs, ys := o.fitX[:0], o.fitY[:0]
	for i, m := range o.levels {
		if m > maxM {
			break
		}
		if v := normVar(p, m); v > 0 {
			xs = append(xs, o.logM[i])
			ys = append(ys, math.Log10(v))
		}
	}
	slope, _ := stats.LeastSquares(xs, ys)
	h := 1 + slope/2
	if math.IsNaN(h) || math.IsInf(h, 0) {
		return 0
	}
	// Clamp to the meaningful range: estimation noise outside (0, 1.5)
	// carries no signal the verdict could use.
	return math.Min(math.Max(h, 0.01), 1.5)
}

// normVar returns the normalized variance at aggregation level m of
// the n bins with prefix sums p, correctly rounded: over the nb = n/m
// whole blocks with sums B_j, S1 = ΣB_j and S2 = ΣB_j²,
//
//	Var(B_j/m) / (T/n)² = (nb·S2 − S1²)·n² / ((m·nb)²·T²)
//
// where T is the total over all n bins. Every count is a non-negative
// int64 whose total fits an int64, so S2 ≤ S1² < 2¹²⁶ accumulates
// exactly in 128 bits and the numerator nb·S2 − S1² in 192 bits. The
// quotient is rounded once: by one float64 division when both of its
// reduced operands are integers below 2⁵³ (any realistic horizon),
// else through math/big.
func normVar(p []int64, m int) float64 {
	n := len(p) - 1
	nb := n / m
	hi, lo := sumSquares(p[:nb*m+1], m) // S2
	s1 := uint64(p[nb*m] - p[0])
	// num = nb·S2 − S1², non-negative by Cauchy–Schwarz.
	a1, w0 := bits.Mul64(lo, uint64(nb))
	w2, b0 := bits.Mul64(hi, uint64(nb))
	w1, c := bits.Add64(a1, b0, 0)
	w2 += c
	sh, sl := bits.Mul64(s1, s1)
	var br uint64
	w0, br = bits.Sub64(w0, sl, 0)
	w1, br = bits.Sub64(w1, sh, br)
	w2 -= br
	if w2|w1|w0 == 0 {
		return 0
	}
	// Cancel the common factor of n and m·nb: the quotient is
	// num·a² / (d·T)².
	g := gcd(n, m*nb)
	a, d, total := uint64(n/g), uint64(m*nb/g), uint64(p[n]-p[0])
	const exact = 1 << 53
	if w2|w1 == 0 && a < 1<<26 {
		nh, nl := bits.Mul64(w0, a*a)
		dh, dl := bits.Mul64(d, total)
		if nh == 0 && nl <= exact && dh == 0 && dl < 1<<32 {
			if den := dl * dl; den <= exact {
				return float64(nl) / float64(den)
			}
		}
	}
	var buf [24]byte
	binary.BigEndian.PutUint64(buf[0:], w2)
	binary.BigEndian.PutUint64(buf[8:], w1)
	binary.BigEndian.PutUint64(buf[16:], w0)
	num := new(big.Int).SetBytes(buf[:])
	ba := new(big.Int).SetUint64(a)
	num.Mul(num, ba).Mul(num, ba)
	den := new(big.Int).SetUint64(d)
	den.Mul(den, new(big.Int).SetUint64(total)).Mul(den, den)
	v, _ := new(big.Rat).SetFrac(num, den).Float64()
	return v
}

// sumSquares returns, as a 128-bit hi:lo, the sum of the squared
// block sums B_j = p[(j+1)·m] − p[j·m] over the prefix sums p.
func sumSquares(p []int64, m int) (hi, lo uint64) {
	prev := p[0]
	for k := m; k < len(p); k += m {
		b := uint64(p[k] - prev)
		prev = p[k]
		h, l := bits.Mul64(b, b)
		var c uint64
		lo, c = bits.Add64(lo, l, 0)
		hi += h + c
	}
	return hi, lo
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// verdict classifies the window. "warming" until Warmup windows have
// closed AND the rolling horizon has filled once — dispersion and
// lag-1 over a partially-filled ring are biased low, and classifying
// off them would brand steady Poisson traffic bursty during start-up.
// Then "poisson" only when every available estimator agrees with a
// homogeneous Poisson process — dispersion near 1 (the variance of a
// Poisson count equals its mean), negligible lag-1 correlation, and a
// Hurst proxy near 0.5 — else "bursty", the paper's verdict for every
// wide-area trace it examined.
func (o *Observatory) verdict(est Estimate) string {
	warm := int64(o.opt.Warmup)
	if kw := int64(o.opt.KeepWindows); kw > warm {
		warm = kw
	}
	if o.closed+1 <= warm {
		return "warming"
	}
	// Tolerances scale with the estimators' own sampling noise over a
	// k-window horizon: for iid Poisson counts the dispersion estimate
	// has sd ≈ √(2/(k−1)) and lag-1 has sd ≈ 1/√k, so each band is the
	// larger of a fixed floor and ~2σ — "bursty" means the deviation
	// is significant at this horizon, not that the estimator is noisy.
	k := float64(o.opt.KeepWindows)
	dispTol := math.Max(0.33, 2*math.Sqrt(2/(k-1)))
	lagTol := math.Max(0.2, 2/math.Sqrt(k))
	hurstTol := math.Max(0.15, 1.2/math.Sqrt(k))
	poisson := math.Abs(est.Dispersion-1) <= dispTol &&
		math.Abs(est.Lag1) <= lagTol
	if est.Hurst > 0 && math.Abs(est.Hurst-0.5) > hurstTol {
		poisson = false
	}
	if poisson {
		return "poisson"
	}
	return "bursty"
}

// detect feeds the estimator series into the per-signal detectors and
// emits a classified change-point event per alarm.
//
// Page–Hinkley assumes roughly independent samples, so each signal is
// fed at its own decorrelation scale: the rate detector sees the
// *per-window* rate (window counts are independent under any renewal
// arrival process), while the dispersion and tail detectors — whose
// estimators are smoothed over the rolling horizon / decay half-life
// and therefore strongly autocorrelated window to window — are
// subsampled at a stride of a fraction of their smoothing length.
// Feeding a rolling estimate every window would let ordinary
// estimator noise, persisting across the shared horizon, accumulate
// into false alarms. Nothing samples the wall clock: strides key off
// the closed-window count, so the schedule is deterministic.
func (o *Observatory) detect(est Estimate) {
	if o.closed <= int64(o.opt.Warmup) {
		// The first windows read a degenerate horizon (dispersion of
		// one count is 0); keep the detectors out of them entirely.
		return
	}
	type probe struct {
		det    *PageHinkley
		signal string
		class  string
		value  float64
		ok     bool
	}
	winRate := float64(est.Records) / o.opt.Window
	probes := []probe{
		{o.detRate, "rate", "rate-step", winRate, true},
		{o.detDisp, "dispersion", "dispersion-shift", est.Dispersion,
			o.closed%int64(o.dispStride()) == 0},
		// The tail detector additionally waits out the decayed
		// sample's fill transient: until a few half-lives have
		// passed, the effective sample size — and with it Hill's
		// implicit threshold — is still growing, which reads as a
		// sustained α̂ ramp no drift allowance should have to absorb.
		{o.detTail, "tail_alpha", "tail-shift", est.TailAlpha,
			est.TailAlpha > 0 && o.closed > o.tailGate() &&
				o.closed%int64(o.tailStride()) == 0},
	}
	for _, pr := range probes {
		if !pr.ok {
			continue
		}
		sh, fired := pr.det.Update(pr.value)
		if !fired {
			continue
		}
		o.changes++
		o.emit(Event{
			Kind: obs.EventChangePoint, Window: est.Window, TEnd: est.TEnd,
			Name: pr.class, Signal: pr.signal, Direction: sh.Direction,
			Value: sh.Value, Baseline: sh.Baseline, Score: sh.Score,
		})
	}
}

// dispStride is the dispersion detector's subsampling interval: a
// quarter of the rolling horizon, so consecutive samples share only
// ~75% of their windows.
func (o *Observatory) dispStride() int {
	if s := o.opt.KeepWindows / 4; s > 1 {
		return s
	}
	return 1
}

// tailStride subsamples the tail index at half the decay half-life
// (in windows), the scale over which consecutive Hill estimates
// decorrelate.
func (o *Observatory) tailStride() int {
	if s := int(o.opt.HalfLife / o.opt.Window / 2); s > 2 {
		return s
	}
	return 2
}

// tailGate is the closed-window count before the tail detector takes
// its first sample: warmup plus four half-lives, by which point the
// decayed sample's effective size has reached ~94% of saturation.
func (o *Observatory) tailGate() int64 {
	return int64(o.opt.Warmup) + 4*int64(o.opt.HalfLife/o.opt.Window)
}

// emit delivers one event to every configured output path.
func (o *Observatory) emit(ev Event) {
	if o.opt.OnEvent != nil {
		o.opt.OnEvent(ev)
	}
	if o.opt.Bus != nil {
		o.opt.Bus.Publish(ev.Kind, ev.Name, ev.busAttrs())
	}
	o.gauges(ev)
	o.log(ev)
}

// busAttrs renders the event for the SSE bus: string attrs, floats at
// six significant digits (display precision; the exact values live on
// the OnEvent path).
func (ev Event) busAttrs() map[string]string {
	a := map[string]string{
		"window": fmt.Sprintf("%d", ev.Window),
		"t_end":  fmt.Sprintf("%.6g", ev.TEnd),
	}
	if ev.Kind == obs.EventChangePoint {
		a["signal"] = ev.Signal
		a["direction"] = ev.Direction
		a["value"] = fmt.Sprintf("%.6g", ev.Value)
		a["baseline"] = fmt.Sprintf("%.6g", ev.Baseline)
		a["score"] = fmt.Sprintf("%.6g", ev.Score)
		return a
	}
	if est := ev.Estimate; est != nil {
		a["records"] = fmt.Sprintf("%d", est.Records)
		a["rate"] = fmt.Sprintf("%.6g", est.Rate)
		a["dispersion"] = fmt.Sprintf("%.6g", est.Dispersion)
		a["lag1"] = fmt.Sprintf("%.6g", est.Lag1)
		a["hurst"] = fmt.Sprintf("%.6g", est.Hurst)
		a["tail_alpha"] = fmt.Sprintf("%.6g", est.TailAlpha)
		a["p95"] = fmt.Sprintf("%.6g", est.P95)
	}
	return a
}

// verdictCode maps verdicts onto the observe.verdict gauge:
// 0 warming, 1 poisson, 2 bursty.
func verdictCode(v string) float64 {
	switch v {
	case "poisson":
		return 1
	case "bursty":
		return 2
	}
	return 0
}

func (o *Observatory) gauges(ev Event) {
	m := o.opt.Metrics
	if m == nil {
		return
	}
	if ev.Kind == obs.EventChangePoint {
		m.Counter("observe.changepoints").Inc()
		return
	}
	est := ev.Estimate
	if est == nil {
		return
	}
	m.Gauge("observe.windows").Set(float64(o.closed))
	m.Gauge("observe.rate").Set(est.Rate)
	m.Gauge("observe.dispersion").Set(est.Dispersion)
	m.Gauge("observe.lag1").Set(est.Lag1)
	m.Gauge("observe.hurst_vt").Set(est.Hurst)
	m.Gauge("observe.tail_alpha").Set(est.TailAlpha)
	m.Gauge("observe.p95").Set(est.P95)
	m.Gauge("observe.verdict").Set(verdictCode(est.Verdict))
	for name, rate := range est.ProtoRate {
		m.Gauge("observe.rate.proto." + name).Set(rate)
	}
}

func (o *Observatory) log(ev Event) {
	lg := o.opt.Logger
	if lg == nil {
		return
	}
	if ev.Kind == obs.EventChangePoint {
		lg.LogAttrs(o.opt.Context, slog.LevelWarn, "changepoint",
			slog.String("class", ev.Name),
			slog.String("signal", ev.Signal),
			slog.String("direction", ev.Direction),
			slog.Int64("window", ev.Window),
			slog.Float64("value", ev.Value),
			slog.Float64("baseline", ev.Baseline),
		)
		return
	}
	est := ev.Estimate
	if est == nil {
		return
	}
	lg.LogAttrs(o.opt.Context, slog.LevelInfo, "verdict",
		slog.String("verdict", est.Verdict),
		slog.Int64("window", ev.Window),
		slog.Float64("rate", est.Rate),
		slog.Float64("dispersion", est.Dispersion),
		slog.Float64("hurst", est.Hurst),
		slog.Float64("tail_alpha", est.TailAlpha),
	)
}

// finite maps NaN/±Inf to 0, the Estimate's "unavailable" marker.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// stateVersion is obsState's format version. Restore rejects every
// other version; states are not migrated. Version 3 carries the GK
// and decayed sketch states without the per-sketch kind envelope of
// version 2.
const stateVersion = 3

// obsState is the observatory's serialized form (DESIGN.md §14): the
// count ring inline, the size sketches' states whole, detector states
// inline.
type obsState struct {
	V          int             `json:"v"`
	Window     float64         `json:"window"`
	Cur        int64           `json:"cur"`
	Closed     int64           `json:"closed"`
	Records    int64           `json:"records"`
	WinRecords int64           `json:"win_records"`
	Skipped    int64           `json:"skipped"`
	Changes    int64           `json:"changes"`
	ProtoWin   [nproto]int64   `json:"proto_win"`
	ProtoTotal [nproto]int64   `json:"proto_total"`
	RingTop    int64           `json:"ring_top"`
	RingLead   int             `json:"ring_lead"`
	Ring       []int64         `json:"ring"`
	Sizes      json.RawMessage `json:"sizes"`
	Quant      json.RawMessage `json:"quant"`
	DetRate    PHState         `json:"det_rate"`
	DetDisp    PHState         `json:"det_disp"`
	DetTail    PHState         `json:"det_tail"`
	LastEst    Estimate        `json:"last_est"`
}

// State serializes the observatory deterministically. Restoring into
// a fresh Observatory built with the same Options and continuing the
// stream reproduces the uninterrupted run's event sequence exactly.
func (o *Observatory) State() ([]byte, error) {
	st := obsState{
		V: stateVersion, Window: o.opt.Window, Cur: o.cur,
		Closed: o.closed, Records: o.records, WinRecords: o.winRecords,
		Skipped: o.skipped, Changes: o.changes,
		ProtoWin: o.protoWin, ProtoTotal: o.protoTotal,
		RingTop: o.ringTop, RingLead: o.ringLead, Ring: o.ring,
		DetRate: o.detRate.State(), DetDisp: o.detDisp.State(), DetTail: o.detTail.State(),
		LastEst: o.lastEst,
	}
	var err error
	if st.Sizes, err = o.sizes.State(); err != nil {
		return nil, err
	}
	if st.Quant, err = o.quant.State(); err != nil {
		return nil, err
	}
	return json.Marshal(st)
}

// Restore replaces the observatory's analytical state from State
// output. The receiver must have been built with the same Options the
// serialized observatory ran under; output wiring (OnEvent, Bus,
// Metrics, Logger) is the receiver's own. A state whose fields
// contradict each other is rejected and leaves the receiver as it
// was.
func (o *Observatory) Restore(data []byte) error {
	var st obsState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("observe: decoding state: %w", err)
	}
	if st.V != stateVersion {
		return fmt.Errorf("observe: unsupported state version %d (this build reads version %d only)", st.V, stateVersion)
	}
	if st.Window != o.opt.Window {
		return fmt.Errorf("observe: state window %g does not match options window %g", st.Window, o.opt.Window)
	}
	if err := o.checkState(&st); err != nil {
		return err
	}
	sizes := stream.NewDecayed(o.opt.Window, o.opt.HalfLife)
	if err := sizes.Restore(st.Sizes); err != nil {
		return fmt.Errorf("observe: sizes: %w", err)
	}
	quant := stream.NewGK(o.opt.Eps)
	if err := quant.Restore(st.Quant); err != nil {
		return fmt.Errorf("observe: quantiles: %w", err)
	}
	dets := []*PageHinkley{
		NewPageHinkley(o.opt.Delta, o.opt.Lambda, o.opt.Warmup, o.opt.Cooldown),
		NewPageHinkley(o.opt.Delta, o.opt.Lambda, o.opt.Warmup, o.opt.Cooldown),
		NewPageHinkley(o.opt.Delta, o.opt.Lambda, o.opt.Warmup, o.opt.Cooldown),
	}
	for i, ds := range []PHState{st.DetRate, st.DetDisp, st.DetTail} {
		if err := dets[i].Restore(ds); err != nil {
			return err
		}
	}
	o.sizes, o.quant = sizes, quant
	o.detRate, o.detDisp, o.detTail = dets[0], dets[1], dets[2]
	o.cur = st.Cur
	o.ring = append(o.ring[:0], st.Ring...)
	o.ringTop, o.ringLead = st.RingTop, st.RingLead
	o.closed, o.records, o.winRecords = st.Closed, st.Records, st.WinRecords
	o.skipped, o.changes = st.Skipped, st.Changes
	o.protoWin, o.protoTotal = st.ProtoWin, st.ProtoTotal
	o.lastEst = st.LastEst
	return nil
}

// checkState rejects a state whose counters and ring contradict each
// other or the receiver's options: anything that could index outside
// the ring, or that no record sequence produces.
func (o *Observatory) checkState(st *obsState) error {
	if st.Records < 0 || st.Closed < 0 || st.WinRecords < 0 || st.Skipped < 0 || st.Changes < 0 {
		return fmt.Errorf("observe: state has negative counters")
	}
	if st.Cur < 0 {
		return fmt.Errorf("observe: state window index %d is negative", st.Cur)
	}
	if err := sumsTo("proto_total", st.ProtoTotal[:], st.Records); err != nil {
		return err
	}
	if err := sumsTo("proto_win", st.ProtoWin[:], st.WinRecords); err != nil {
		return err
	}
	n := len(st.Ring)
	if n%binsPerWindow != 0 || n > o.opt.KeepWindows*binsPerWindow {
		return fmt.Errorf("observe: state ring holds %d bins, want a multiple of %d up to %d",
			n, binsPerWindow, o.opt.KeepWindows*binsPerWindow)
	}
	if st.RingLead < 0 || st.RingLead >= binsPerWindow || (n == 0 && st.RingLead != 0) {
		return fmt.Errorf("observe: state ring lead %d out of range", st.RingLead)
	}
	binned := st.Records
	for _, c := range st.Ring {
		if c < 0 || c > binned {
			return fmt.Errorf("observe: state ring counts negative or beyond %d records", st.Records)
		}
		binned -= c
	}
	if n == 0 {
		if st.Records != 0 || st.Closed != 0 || st.Cur != 0 || st.RingTop != 0 {
			return fmt.Errorf("observe: state has counters but no ring")
		}
		return nil
	}
	if st.RingTop > st.Cur || st.RingTop < int64(n/binsPerWindow)-1 {
		return fmt.Errorf("observe: state ring spans windows [%d, %d], outside [0, cur %d]",
			st.RingTop-int64(n/binsPerWindow)+1, st.RingTop, st.Cur)
	}
	return nil
}

// sumsTo reports whether the non-negative parts add up to total, with
// no int64 overflow on the way.
func sumsTo(name string, parts []int64, total int64) error {
	left := total
	for _, v := range parts {
		if v < 0 || v > left {
			return fmt.Errorf("observe: state %s does not sum to %d", name, total)
		}
		left -= v
	}
	if left != 0 {
		return fmt.Errorf("observe: state %s does not sum to %d", name, total)
	}
	return nil
}
