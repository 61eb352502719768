package observe

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// The BENCH_observe.json numbers come from these benchmarks: the
// per-record cost of running the full observatory, the per-window
// estimator recompute, the detector update alone, and the overhead of
// bolting the observatory onto a plain pipeline ingest.

func benchConns(n int) []trace.Conn {
	rng := rand.New(rand.NewSource(5))
	out := make([]trace.Conn, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / 40 // 40 records/s → ~200 per default window
		out[i] = trace.Conn{
			Start: t, Duration: rng.ExpFloat64() * 5,
			Proto:     trace.Protocol(1 + i%8),
			BytesOrig: 1 + int64(rng.ExpFloat64()*300),
			BytesResp: 1 + int64(rng.ExpFloat64()*2000),
		}
	}
	return out
}

// BenchmarkObserveConn is the observatory's full per-record cost,
// window closes amortized in at the default density (~200 records per
// window).
func BenchmarkObserveConn(b *testing.B) {
	conns := benchConns(100000)
	o := New(Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.ObserveConn(conns[i%len(conns)])
	}
}

// windowCloseCases are the window shapes the close benchmark and the
// allocation budget drive; feed(o, i) observes window i's records, so
// each call also closes window i−1.
var windowCloseCases = []struct {
	name string
	feed func(o *Observatory, i int)
}{
	// One record per window: the bare estimator recompute (rate,
	// dispersion, lag-1, variance-time slope, Hill, quantiles, verdict,
	// detectors).
	{"one-record", func(o *Observatory, i int) {
		w := o.Options().Window
		o.ObserveConn(trace.Conn{Start: (float64(i) + 0.5) * w, Proto: trace.WWW, BytesResp: int64(100 + i%1000)})
	}},
	// LBL-like windows: 4–11 records over eight protocols, sizes
	// spread over 24 power-of-two exponents, and every 16th window a
	// burst of 120 that flushes the GK buffer before the close does.
	{"lbl-like", func(o *Observatory, i int) {
		w := o.Options().Window
		n := 4 + i%8
		if i%16 == 0 {
			n = 120
		}
		for k := 0; k < n; k++ {
			o.ObserveConn(trace.Conn{
				Start:     (float64(i) + (float64(k)+0.5)/float64(n)) * w,
				Proto:     trace.Protocol(1 + (i+k)%8),
				BytesResp: int64(1)<<((7*i+5*k)%24) + int64(k),
			})
		}
	}},
}

// BenchmarkWindowClose is the per-window cost in each of
// windowCloseCases: one close plus that window's records.
func BenchmarkWindowClose(b *testing.B) {
	for _, wc := range windowCloseCases {
		b.Run(wc.name, func(b *testing.B) {
			o := New(Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wc.feed(o, i)
			}
		})
	}
}

// BenchmarkPageHinkleyUpdate is the detector alone.
func BenchmarkPageHinkleyUpdate(b *testing.B) {
	det := NewPageHinkley(0.1, 1e12, 8, 4) // threshold unreachably high: no resets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Update(10 + float64(i%7))
	}
}

// BenchmarkPipelineIngest is the plain sharded-pipeline baseline over
// the same trace bytes the replayer consumes — the denominator for
// the observatory-overhead ratio recorded in BENCH_observe.json.
func BenchmarkPipelineIngest(b *testing.B) {
	tr := &trace.ConnTrace{Name: "bench", Horizon: 2500, Conns: benchConns(50000)}
	var buf bytes.Buffer
	if err := trace.WriteConnTraceBinary(&buf, tr); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := stream.Ingest(context.Background(), bytes.NewReader(buf.Bytes()),
			trace.DecodeOptions{}, stream.PipelineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Sketch.Records() != int64(len(tr.Conns)) {
			b.Fatal("short ingest")
		}
	}
}

// BenchmarkReplayFullSpeed measures the replayer's decode+observe
// throughput over a binary trace.
func BenchmarkReplayFullSpeed(b *testing.B) {
	tr := &trace.ConnTrace{Name: "bench", Horizon: 2500, Conns: benchConns(50000)}
	var buf bytes.Buffer
	if err := trace.WriteConnTraceBinary(&buf, tr); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := New(Options{})
		if _, err := Replay(bytes.NewReader(buf.Bytes()), o, ReplayOptions{Flush: true}); err != nil {
			b.Fatal(err)
		}
	}
}
