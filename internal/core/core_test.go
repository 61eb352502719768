package core

import (
	"math"
	"math/rand"
	"testing"

	"wantraffic/internal/datasets"
	"wantraffic/internal/fit"
	"wantraffic/internal/model"
	"wantraffic/internal/selfsim"
	"wantraffic/internal/trace"
)

func burstsFixture() *trace.ConnTrace {
	// Session 1: two connections 1 s apart (one burst), then a third
	// 100 s later (second burst). Session 2: one connection.
	return &trace.ConnTrace{
		Horizon: 3600,
		Conns: []trace.Conn{
			{Start: 10, Duration: 2, Proto: trace.FTPData, BytesResp: 1000, SessionID: 1},
			{Start: 13, Duration: 1, Proto: trace.FTPData, BytesResp: 500, SessionID: 1},
			{Start: 114, Duration: 5, Proto: trace.FTPData, BytesResp: 8000, SessionID: 1},
			{Start: 50, Duration: 3, Proto: trace.FTPData, BytesResp: 300, SessionID: 2},
			{Start: 5, Duration: 200, Proto: trace.FTP, BytesOrig: 100, SessionID: 1},
			{Start: 40, Duration: 60, Proto: trace.Telnet, BytesOrig: 50},
		},
	}
}

func TestExtractBursts(t *testing.T) {
	bursts := ExtractBursts(burstsFixture(), DefaultBurstCutoff)
	if len(bursts) != 3 {
		t.Fatalf("bursts %d want 3", len(bursts))
	}
	// Sorted by start: s1-burst1 (10), s2 (50), s1-burst2 (114).
	if bursts[0].Start != 10 || bursts[1].Start != 50 || bursts[2].Start != 114 {
		t.Errorf("burst starts %v %v %v", bursts[0].Start, bursts[1].Start, bursts[2].Start)
	}
	if len(bursts[0].Conns) != 2 || bursts[0].Bytes != 1500 {
		t.Errorf("first burst %+v", bursts[0])
	}
	if bursts[0].End != 14 {
		t.Errorf("first burst end %g", bursts[0].End)
	}
}

func TestExtractBurstsCutoffSensitivity(t *testing.T) {
	tr := burstsFixture()
	// A tiny cutoff splits the 1 s gap into two bursts.
	if got := len(ExtractBursts(tr, 0.5)); got != 4 {
		t.Errorf("0.5s cutoff bursts %d want 4", got)
	}
	// A huge cutoff merges each session into one burst.
	if got := len(ExtractBursts(tr, 1000)); got != 2 {
		t.Errorf("1000s cutoff bursts %d want 2", got)
	}
}

func TestIntraSessionSpacings(t *testing.T) {
	gaps := IntraSessionSpacings(burstsFixture())
	// Session 1: 13-12=1 and 114-14=100; session 2 has one conn.
	if len(gaps) != 2 || gaps[0] != 1 || gaps[1] != 100 {
		t.Errorf("gaps %v", gaps)
	}
}

func TestTailShare(t *testing.T) {
	bursts := []Burst{
		{Bytes: 1}, {Bytes: 1}, {Bytes: 1}, {Bytes: 1},
		{Bytes: 1}, {Bytes: 1}, {Bytes: 1}, {Bytes: 1},
		{Bytes: 1}, {Bytes: 991},
	}
	if got := TailShare(bursts, 0.1); math.Abs(got-0.991) > 1e-12 {
		t.Errorf("top 10%% share %g", got)
	}
	if got := TailShare(bursts, 1); got != 1 {
		t.Errorf("full share %g", got)
	}
	if TailShare(nil, 0.5) != 0 {
		t.Error("empty bursts share")
	}
}

func TestTopBursts(t *testing.T) {
	bursts := []Burst{{Bytes: 5}, {Bytes: 50}, {Bytes: 500}}
	top := TopBursts(bursts, 0.34)
	if len(top) != 2 || top[0].Bytes != 500 || top[1].Bytes != 50 {
		t.Errorf("top bursts %+v", top)
	}
	if got := TopBursts(bursts, 1); len(got) != 3 {
		t.Error("full selection")
	}
	if TopBursts(nil, 0.5) != nil {
		t.Error("empty")
	}
}

// TestFig9Shape: on a synthetic month of FTP traffic, the top 0.5% of
// bursts carry 30–60% of the bytes and the top 2% carry over half, as
// in Fig. 9.
func TestFig9Shape(t *testing.T) {
	tr := datasets.Conn("LBL-6")
	bursts := ExtractBursts(tr, DefaultBurstCutoff)
	if len(bursts) < 2000 {
		t.Fatalf("bursts %d too few", len(bursts))
	}
	s05 := TailShare(bursts, 0.005)
	s2 := TailShare(bursts, 0.02)
	if s05 < 0.25 || s05 > 0.70 {
		t.Errorf("top 0.5%% share %g, want ~0.3-0.6", s05)
	}
	if s2 < s05 || s2 < 0.4 {
		t.Errorf("top 2%% share %g", s2)
	}
}

// TestBurstTailIsPareto: Section VI fits the upper 5% of bytes-per-
// burst to a Pareto with 0.9 <= β <= 1.4.
func TestBurstTailIsPareto(t *testing.T) {
	tr := datasets.Conn("LBL-6")
	bursts := ExtractBursts(tr, DefaultBurstCutoff)
	sizes := BurstSizesDescending(bursts)
	p := fit.HillTailFraction(sizes, 0.05)
	if p.Beta < 0.8 || p.Beta > 1.6 {
		t.Errorf("burst tail shape %g, want ~0.9-1.4", p.Beta)
	}
}

func TestBurstTimeline(t *testing.T) {
	bursts := ExtractBursts(burstsFixture(), DefaultBurstCutoff)
	tl := BurstTimeline(bursts, 3600)
	if len(tl.Total) != 60 {
		t.Fatalf("bins %d", len(tl.Total))
	}
	var total float64
	for _, v := range tl.Total {
		total += v
	}
	if math.Abs(total-9800) > 1e-6 {
		t.Errorf("total bytes %g want 9800", total)
	}
	// With 3 bursts, top 2% and 0.5% are the single largest (8000 B).
	var top2 float64
	for _, v := range tl.Top2 {
		top2 += v
	}
	if math.Abs(top2-8000) > 1e-6 {
		t.Errorf("top2 bytes %g want 8000", top2)
	}
	if tl.ConnsInTop2 != 1 {
		t.Errorf("conns in top2 %d", tl.ConnsInTop2)
	}
	// Byte conservation between Total and per-minute attribution of
	// each connection: minute 0 carries burst-1 bytes (ends at 14 s).
	if tl.Total[0] != 1500+300 {
		t.Errorf("minute 0 bytes %g", tl.Total[0])
	}
}

func TestSpreadAcrossMinutes(t *testing.T) {
	bins := make([]float64, 3)
	c := trace.Conn{Start: 30, Duration: 120, BytesResp: 1200}
	spread(bins, c, 180)
	// 30s in bin0, 60s in bin1, 30s in bin2 at 10 B/s.
	if bins[0] != 300 || bins[1] != 600 || bins[2] != 300 {
		t.Errorf("spread %v", bins)
	}
	// Zero-duration connection.
	bins2 := make([]float64, 2)
	spread(bins2, trace.Conn{Start: 70, Duration: 0, BytesResp: 10}, 120)
	if bins2[1] != 10 {
		t.Errorf("instant spread %v", bins2)
	}
}

func TestEvaluatePoissonOnDataset(t *testing.T) {
	tr := datasets.Conn("UK")
	res := EvaluatePoisson(tr, trace.Telnet, 3600)
	if res.Tested == 0 {
		t.Fatal("no intervals tested")
	}
	// One-day UK trace: TELNET should pass or come close.
	if res.PctExp < 70 {
		t.Errorf("TELNET exponential pass rate %g%% too low", res.PctExp)
	}
}

func TestVarianceTimeOfTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	times := model.PoissonArrivals(rng, 50, 2000)
	pts, slope := VarianceTimeOfTimes(times, 0.1, 2000, 1000)
	if len(pts) == 0 {
		t.Fatal("no VT points")
	}
	if slope > -0.85 || slope < -1.15 {
		t.Errorf("Poisson VT slope %g want ~-1", slope)
	}
}

func TestAssessSelfSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// fGn with H=0.8 must be flagged LRD and consistent with fGn.
	x := selfsim.FGNTraffic(rng, 8192, 0.8, 100, 10)
	res := AssessSelfSimilarity(x, 300)
	if !res.LargeScaleCorrelated {
		t.Errorf("fGn not flagged correlated (slope %g)", res.VTSlope)
	}
	if math.Abs(res.Whittle.H-0.8) > 0.06 {
		t.Errorf("H %g want ~0.8", res.Whittle.H)
	}
	// Poisson counts must not be flagged.
	y := make([]float64, 8192)
	for i := range y {
		y[i] = float64(rng.Intn(10)) // iid
	}
	res2 := AssessSelfSimilarity(y, 300)
	if res2.LargeScaleCorrelated {
		t.Errorf("iid counts flagged correlated (slope %g)", res2.VTSlope)
	}
}

func TestCorePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"cutoff": func() { ExtractBursts(&trace.ConnTrace{}, 0) },
		"frac":   func() { TailShare([]Burst{{Bytes: 1}}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkExtractBursts(b *testing.B) {
	tr := datasets.Conn("UK")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractBursts(tr, DefaultBurstCutoff)
	}
}

func BenchmarkAssessSelfSimilarity(b *testing.B) {
	rng := rand.New(rand.NewSource(100))
	counts := selfsim.FGNTraffic(rng, 8192, 0.8, 100, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AssessSelfSimilarity(counts, 300)
	}
}
