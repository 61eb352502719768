package observe

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"wantraffic/internal/stats"
	"wantraffic/internal/trace"
)

// ringTimes builds a time-ordered arrival stream that exercises the
// ring: the first record lands mid-window (so the Hurst series starts
// mid-window during warm-up), Poisson and clustered phases alternate,
// and the stream crosses a 10-window gap and a gap longer than
// KeepWindows.
func ringTimes(seed int64, window float64, keep int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	t := window * (3 + rng.Float64()*4)
	var ts []float64
	phase := func(until float64, bursty bool) {
		for t < until {
			if bursty {
				for k := 8 + rng.Intn(24); k > 0; k-- {
					t += rng.ExpFloat64() * 0.01
					ts = append(ts, t)
				}
				t += rng.ExpFloat64() * 0.8
				continue
			}
			t += rng.ExpFloat64() / 8
			ts = append(ts, t)
		}
	}
	phase(t+40*window, false)
	phase(t+40*window, true)
	t += 10 * window // gap of ten windows: every window still closes
	phase(t+30*window, false)
	t += float64(3*keep) * window // gap past the horizon: fast-forward
	phase(t+40*window, true)
	return ts
}

// TestEstimatesMatchBatchRecompute pins the ring's estimators to the
// batch statistics over the same records, cut to the horizon the
// observatory retains. Rate, Dispersion and Lag1 equal, bit for bit,
// a recomputation from the stats.CountProcess per-window counts.
// Hurst equals, bit for bit, exactHurst over the fine bins, lies
// within 1e-12 of the float batch path (stats.VarianceTime +
// stats.VTSlope), and the batch path's Hurst yields the same verdict.
func TestEstimatesMatchBatchRecompute(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		opt := Options{Window: 5, KeepWindows: 24, Warmup: 6}
		if seed%2 == 0 {
			opt.Window, opt.KeepWindows = 2.5, 12
		}
		var ests []Estimate
		opt.OnEvent = func(ev Event) {
			if ev.Estimate != nil {
				ests = append(ests, *ev.Estimate)
			}
		}
		ts := ringTimes(seed, opt.Window, opt.KeepWindows)
		o := New(opt)
		for _, tm := range ts {
			o.ObserveConn(trace.Conn{Start: tm, Proto: trace.FTPData, BytesResp: 100})
		}
		o.Flush()

		w, k := opt.Window, int64(opt.KeepWindows)
		last := ests[len(ests)-1].Window
		horizon := float64(last+1) * w
		wins := stats.CountProcess(ts, w, horizon)
		bins := stats.CountProcess(ts, w/binsPerWindow, horizon)
		w0 := int64(ts[0] / w)
		b0 := int64(ts[0] / (w / binsPerWindow))
		var hursts, gapped int
		ref := New(opt)
		for i, est := range ests {
			wc := est.Window
			counts := wins[max(w0, wc-k+1) : wc+1]
			var sum float64
			for _, c := range counts {
				sum += c
			}
			fine := bins[max(b0, binsPerWindow*(wc-k+1)) : binsPerWindow*(wc+1)]
			want := Estimate{
				Rate:       finite(sum / (float64(len(counts)) * w)),
				Dispersion: finite(stats.Variance(counts) / stats.Mean(counts)),
				Lag1:       finite(stats.Autocorrelation(counts, 1)),
				Hurst:      exactHurst(toCounts(fine)),
			}
			got := Estimate{Rate: est.Rate, Dispersion: est.Dispersion, Lag1: est.Lag1, Hurst: est.Hurst}
			if !sameBits(got, want) {
				t.Fatalf("seed %d window %d: ring estimate %+v, batch recompute %+v", seed, wc, got, want)
			}
			batch := batchHurst(fine)
			if d := math.Abs(est.Hurst - batch); d > 1e-12 {
				t.Fatalf("seed %d window %d: Hurst %v is %g from the batch path's %v", seed, wc, est.Hurst, d, batch)
			}
			// The i-th estimate was computed with i windows closed.
			ref.closed = int64(i)
			batchEst := est
			batchEst.Hurst = batch
			if v := ref.verdict(batchEst); v != est.Verdict {
				t.Fatalf("seed %d window %d: verdict %s, %s with the batch path's Hurst", seed, wc, est.Verdict, v)
			}
			if est.Hurst > 0 {
				hursts++
			}
			if sum == 0 {
				gapped++
			}
		}
		if hursts < 20 || gapped == 0 {
			t.Fatalf("seed %d: %d Hurst estimates, %d all-empty horizons: stream too tame", seed, hursts, gapped)
		}
	}
}

// TestHurstExactNearInt64Limits feeds the Hurst proxy bins of ~2³¹
// records, where block sums squared pass 2⁶³ (an int64 ΣB² wraps) and
// the normalization needs more than float64's 53 bits, and a horizon
// of just under 2³² records nearly all in one bin, where ΣB² nears
// 2⁶⁴: the proxy still equals exactHurst bit for bit.
func TestHurstExactNearInt64Limits(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	o := New(Options{Window: 5, KeepWindows: 24})
	n := len(o.prefix) - 1
	var cases [][]int64
	for _, spread := range []int64{2, 1 << 10, 1 << 30} {
		bins := make([]int64, n)
		for i := range bins {
			bins[i] = 1<<31 - rng.Int63n(spread)
		}
		cases = append(cases, bins)
	}
	peak := make([]int64, n)
	for i := 0; i < n; i += 3 {
		peak[i] = 1
	}
	peak[n/2] = 1<<32 - 1 - int64(n/3)
	cases = append(cases, peak)
	for ci, bins := range cases {
		p := make([]int64, len(bins)+1)
		for i, c := range bins {
			p[i+1] = p[i] + c
		}
		var occupied int
		for _, c := range bins {
			if c > 0 {
				occupied++
			}
		}
		got, want := o.hurst(p, occupied), exactHurst(bins)
		if want == 0 || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d: Hurst %v, exact reference %v", ci, got, want)
		}
	}
}

// TestNormVarCorrectlyRounded: each variance-time point equals the
// exact rational rounded once, on horizons whose bin counts run from
// sparse to ~2³¹, so both the float64 division and the math/big
// rounding are exercised.
func TestNormVarCorrectlyRounded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 32 + rng.Intn(480)
		top := int64(1) << rng.Intn(32)
		bins := make([]int64, n)
		for i := range bins {
			if rng.Intn(3) > 0 {
				bins[i] = rng.Int63n(top) + 1
			}
		}
		p := make([]int64, n+1)
		for i, c := range bins {
			p[i+1] = p[i] + c
		}
		if p[n] == 0 {
			continue
		}
		for _, m := range stats.VTLevels(n/4, vtPointsPerDecade) {
			if m < 2 {
				continue
			}
			want, _ := exactNormVar(bins, m).Float64()
			if got := normVar(p, m); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d, n %d, m %d, counts up to %d: normVar %v, exact %v", trial, n, m, top, got, want)
			}
		}
	}
}

// exactNormVar is the variance of the level-m block means over the
// squared mean bin count, in exact rational arithmetic.
func exactNormVar(bins []int64, m int) *big.Rat {
	n, nb := len(bins), len(bins)/m
	total := new(big.Rat)
	for _, c := range bins {
		total.Add(total, new(big.Rat).SetInt64(c))
	}
	mean := new(big.Rat).Quo(total, new(big.Rat).SetInt64(int64(n)))
	means := make([]*big.Rat, nb)
	mu := new(big.Rat)
	for j := range means {
		var s int64
		for _, c := range bins[j*m : (j+1)*m] {
			s += c
		}
		means[j] = big.NewRat(s, int64(m))
		mu.Add(mu, means[j])
	}
	mu.Quo(mu, new(big.Rat).SetInt64(int64(nb)))
	ss := new(big.Rat)
	for _, x := range means {
		d := new(big.Rat).Sub(x, mu)
		ss.Add(ss, d.Mul(d, d))
	}
	ss.Quo(ss, new(big.Rat).SetInt64(int64(nb)))
	return ss.Quo(ss, new(big.Rat).Mul(mean, mean))
}

// exactHurst is the observatory's Hurst proxy with every variance-time
// point computed by exactNormVar and rounded to float64 once, then
// fitted as the observatory fits.
func exactHurst(bins []int64) float64 {
	n := len(bins)
	var nonzero int
	for _, c := range bins {
		if c > 0 {
			nonzero++
		}
	}
	if n < 4*binsPerWindow || nonzero < 2*binsPerWindow {
		return 0
	}
	maxM := n / 4
	var xs, ys []float64
	for _, m := range stats.VTLevels(maxM, vtPointsPerDecade) {
		if m < 2 {
			continue
		}
		if v, _ := exactNormVar(bins, m).Float64(); v > 0 {
			xs = append(xs, math.Log10(float64(m)))
			ys = append(ys, math.Log10(v))
		}
	}
	slope, _ := stats.LeastSquares(xs, ys)
	h := 1 + slope/2
	if math.IsNaN(h) || math.IsInf(h, 0) {
		return 0
	}
	return math.Min(math.Max(h, 0.01), 1.5)
}

func toCounts(bins []float64) []int64 {
	out := make([]int64, len(bins))
	for i, c := range bins {
		out[i] = int64(c)
	}
	return out
}

// batchHurst is the observatory's Hurst proxy computed the float
// batch way.
func batchHurst(bins []float64) float64 {
	if len(bins) < 4*binsPerWindow {
		return 0
	}
	var nonzero int
	for _, c := range bins {
		if c > 0 {
			nonzero++
		}
	}
	if nonzero < 2*binsPerWindow {
		return 0
	}
	maxM := len(bins) / 4
	h := 1 + stats.VTSlope(stats.VarianceTime(bins, maxM, vtPointsPerDecade), 2, maxM)/2
	if math.IsNaN(h) || math.IsInf(h, 0) {
		return 0
	}
	return math.Min(math.Max(h, 0.01), 1.5)
}

func sameBits(a, b Estimate) bool {
	for _, p := range [][2]float64{{a.Rate, b.Rate}, {a.Dispersion, b.Dispersion}, {a.Lag1, b.Lag1}, {a.Hurst, b.Hurst}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return true
}

// ringSum is the number of records binned in the ring.
func ringSum(o *Observatory) int64 {
	var n int64
	for _, c := range o.ring {
		n += c
	}
	return n
}

// TestObservatoryRingEviction: the ring holds exactly KeepWindows
// windows, a record older than its first window is counted but not
// binned, and a fast-forward past the horizon empties it.
func TestObservatoryRingEviction(t *testing.T) {
	o := New(Options{Window: 1, KeepWindows: 4})
	for i := 0; i < 10; i++ {
		o.ObserveConn(trace.Conn{Start: float64(i) + 0.5}) // one record per window 0..9
	}
	if len(o.ring) != 4*binsPerWindow || o.ringTop != 9 || ringSum(o) != 4 {
		t.Fatalf("ring holds %d bins up to window %d with %d records, want 4 windows up to 9 with 4",
			len(o.ring), o.ringTop, ringSum(o))
	}
	if got := o.Last().Rate; got != 1 {
		t.Fatalf("rate = %g, want 1", got)
	}
	o.ObserveConn(trace.Conn{Start: 0.5}) // window 0 left the horizon
	if o.Records() != 11 || ringSum(o) != 4 {
		t.Fatalf("records = %d, binned = %d after a stale record, want 11/4", o.Records(), ringSum(o))
	}
	o.ObserveConn(trace.Conn{Start: 1000.5})
	if o.ringTop != 1000 || ringSum(o) != 1 || o.skipped == 0 {
		t.Fatalf("after fast-forward: top %d, binned %d, skipped %d; want 1000, 1, >0",
			o.ringTop, ringSum(o), o.skipped)
	}
	if est := o.Last(); est.Window != 999 || est.Rate != 0 || est.Dispersion != 0 {
		t.Fatalf("fast-forwarded estimate %+v, want window 999 over an empty horizon", est)
	}
}

// TestObservatoryDispersionPoissonVsBursty: evenly spread arrivals
// read dispersion 0, clustered ones far above 1.
func TestObservatoryDispersionPoissonVsBursty(t *testing.T) {
	smooth := New(Options{Window: 1, KeepWindows: 64})
	bursty := New(Options{Window: 1, KeepWindows: 64})
	for i := 0; i < 64; i++ {
		smooth.ObserveConn(trace.Conn{Start: float64(i) + 0.25})
		bursty.ObserveConn(trace.Conn{Start: float64(i/16)*16 + 0.25}) // 4 bursts of 16
	}
	smooth.Flush()
	bursty.Flush()
	if d := smooth.Last().Dispersion; d != 0 {
		t.Fatalf("smooth dispersion = %g, want 0", d)
	}
	if d := bursty.Last().Dispersion; d < 5 {
		t.Fatalf("bursty dispersion = %g, want >= 5", d)
	}
}

// TestObservatoryQuantilesPerWindow: each verdict's p50/p95 cover
// exactly the records since the previous close; the empty windows a
// gap crosses report none; a late record folds into the open window.
func TestObservatoryQuantilesPerWindow(t *testing.T) {
	var ests []Estimate
	o := New(Options{Window: 10, OnEvent: func(ev Event) {
		if ev.Estimate != nil {
			ests = append(ests, *ev.Estimate)
		}
	}})
	for i := 0; i < 35; i++ {
		o.ObserveConn(trace.Conn{Start: float64(i), BytesResp: int64(i)})
	}
	o.Flush()
	if len(ests) != 4 {
		t.Fatalf("%d estimates, want 4", len(ests))
	}
	for i, est := range ests {
		lo, hi := float64(10*i), float64(10*i+9)
		if i == 3 {
			hi = 34
		}
		if est.P50 < lo || est.P50 > hi || est.P95 < est.P50 || est.P95 > hi {
			t.Fatalf("window %d: p50 %g p95 %g outside its own records [%g, %g]", i, est.P50, est.P95, lo, hi)
		}
	}
	ests = ests[:0]
	o.ObserveConn(trace.Conn{Start: 100, BytesResp: 2})
	o.ObserveConn(trace.Conn{Start: 250, BytesResp: 2})
	if len(ests) != 21 || ests[0].P50 != 0 || ests[6].P50 != 2 || ests[7].P50 != 0 {
		t.Fatalf("gap closes: %d estimates, want windows 4..24 with only window 10 holding a record", len(ests))
	}
	o.ObserveConn(trace.Conn{Start: 40, BytesResp: 1 << 20}) // late: folds into window 25
	o.Flush()
	if est := o.Last(); est.Window != 25 || est.Records != 2 || est.P95 != 1<<20 {
		t.Fatalf("late record: window %d, %d records, p95 %g; want 25, 2, %d", est.Window, est.Records, est.P95, 1<<20)
	}
}

// midStreamState is a valid state with a partly filled ring.
func midStreamState(t *testing.T) []byte {
	t.Helper()
	var evs []Event
	o := New(testOptions(&evs))
	for _, c := range regimeSwapConns(47, 100, 200)[:600] {
		o.ObserveConn(c)
	}
	st, err := o.State()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// editState returns st with the named top-level fields replaced.
func editState(t testing.TB, st []byte, fields map[string]any) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(st, &m); err != nil {
		t.Fatal(err)
	}
	for k, v := range fields {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		m[k] = raw
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sizesWithBuckets returns st's decayed-sizes state with its bucket
// list replaced by the JSON array buckets.
func sizesWithBuckets(t testing.TB, st []byte, buckets string) json.RawMessage {
	t.Helper()
	var s obsState
	if err := json.Unmarshal(st, &s); err != nil {
		t.Fatal(err)
	}
	return json.RawMessage(editState(t, s.Sizes, map[string]any{"buckets": json.RawMessage(buckets)}))
}

// TestObservatoryRestoreRejectsInconsistentState: Restore cross-checks
// the ring against the window index and the counters against each
// other, and a rejected state leaves the observatory untouched.
func TestObservatoryRestoreRejectsInconsistentState(t *testing.T) {
	var evs []Event
	st := midStreamState(t)
	var s obsState
	if err := json.Unmarshal(st, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Ring) == 0 || s.Cur < 2 {
		t.Fatal("fixture state has no ring to corrupt")
	}
	long := make([]int64, 24*binsPerWindow+binsPerWindow)
	negative := append([]int64(nil), s.Ring...)
	negative[len(negative)-1] = -1
	ragged := s.Ring[:len(s.Ring)-1]
	protoTotal, protoWin := s.ProtoTotal, s.ProtoWin
	protoTotal[3]++
	protoWin[3]++
	cases := map[string]map[string]any{
		"cur far negative":      {"cur": int64(-9e18)},
		"ring past keep":        {"ring": long},
		"negative count":        {"ring": negative},
		"ring not whole window": {"ring": ragged},
		"ring top past cur":     {"ring_top": s.Cur + 1},
		"ring before window 0":  {"ring_top": int64(len(s.Ring)/binsPerWindow) - 2},
		"lead out of range":     {"ring_lead": binsPerWindow},
		"proto_total sum":       {"proto_total": protoTotal},
		"proto_win sum":         {"proto_win": protoWin},
		"records without ring":  {"ring": []int64{}, "ring_top": 0, "ring_lead": 0},
		"ring beyond records":   {"ring": append([]int64{s.Records + 1}, s.Ring[1:]...)},
		"size exponents ±2^30": {"sizes": sizesWithBuckets(t, st,
			`[{"exp":-1073741824,"w":1},{"exp":1073741824,"w":1}]`)},
		"zero-weight size bucket": {"sizes": sizesWithBuckets(t, st, `[{"exp":3,"w":0},{"exp":9,"w":2}]`)},
	}
	for name, fields := range cases {
		o := New(testOptions(&evs))
		if err := o.Restore(st); err != nil {
			t.Fatal(err)
		}
		if err := o.Restore(editState(t, st, fields)); err == nil {
			t.Errorf("%s: inconsistent state accepted", name)
			continue
		}
		if after, err := o.State(); err != nil || !bytes.Equal(after, st) {
			t.Errorf("%s: rejected restore modified the observatory", name)
		}
	}
	// Version 1 and 2 states are refused with a version error, not a
	// field-decoding error.
	for _, v := range []int{1, 2} {
		err := New(testOptions(&evs)).Restore(editState(t, st, map[string]any{"v": v}))
		if want := fmt.Sprintf("version %d (this build reads version 3 only)", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d state: got %v, want a version error", v, err)
		}
	}
}
