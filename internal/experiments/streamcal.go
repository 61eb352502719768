package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"wantraffic/internal/datasets"
	"wantraffic/internal/stats"
	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// streamCalShards/streamCalChunk pin the pipeline decomposition: the
// chunk→shard assignment is part of the sketch bytes, so the golden
// artifact requires these exact values regardless of the host.
const (
	streamCalShards = 4
	streamCalChunk  = 512
)

// StreamCal calibrates the one-pass sharded streaming pipeline
// (internal/stream) against the batch statistics every other driver
// uses: moments and count processes must agree exactly (up to
// float-summation noise for the moments), quantiles must land within
// the documented 2ε merged rank-error bound, and merging the shard
// sketches in any order must produce byte-identical serialized state.
func StreamCal(ctx context.Context) string {
	out := "Streaming sketch calibration: sharded one-pass pipeline vs batch statistics\n"
	out += fmt.Sprintf("(shards=%d, chunk=%d, seed=42; quantile eps=%.3g, merged rank-error bound %.3g)\n\n",
		streamCalShards, streamCalChunk, stream.DefaultEpsilon, 2*stream.DefaultEpsilon)
	out += streamCalConn(ctx)
	out += "\n"
	out += streamCalPacket(ctx)
	out += "\n"
	out += streamCalMergeOrder(ctx)
	return out
}

// streamCalOpts is the pinned pipeline configuration for a trace.
func streamCalOpts(horizon, bin float64) stream.PipelineOptions {
	return stream.PipelineOptions{
		Shards:    streamCalShards,
		ChunkSize: streamCalChunk,
		Config: stream.Config{
			Seed:        42,
			Horizon:     horizon,
			AggBinWidth: bin,
			WindowWidth: 1,
		},
	}
}

func streamCalConn(ctx context.Context) string {
	defer phase(ctx, "conn")()
	tr := datasets.Conn("UK")
	var buf bytes.Buffer
	if err := trace.WriteConnTrace(&buf, tr); err != nil {
		return "conn encode failed: " + err.Error() + "\n"
	}
	res, err := stream.Ingest(context.Background(), &buf, trace.DecodeOptions{},
		streamCalOpts(tr.Horizon, 1))
	if err != nil {
		return "conn ingest failed: " + err.Error() + "\n"
	}
	var byteVals, durVals, gapVals, times []float64
	for i, c := range tr.Conns {
		byteVals = append(byteVals, float64(c.Bytes()))
		durVals = append(durVals, c.Duration)
		times = append(times, c.Start)
		if i > 0 {
			gapVals = append(gapVals, c.Start-tr.Conns[i-1].Start)
		}
	}
	out := fmt.Sprintf("UK connection trace (%d records, %.0f h)\n", len(tr.Conns), tr.Horizon/3600)
	out += dimRows(res.Sketch, map[string][]float64{
		"bytes": byteVals, "duration": durVals, "gap": gapVals,
	})
	out += countRows(res.Sketch, times, tr.Horizon, 1)
	return out
}

func streamCalPacket(ctx context.Context) string {
	defer phase(ctx, "packet")()
	tr := datasets.Packet("LBL-PKT-1")
	var buf bytes.Buffer
	if err := trace.WritePacketTrace(&buf, tr); err != nil {
		return "packet encode failed: " + err.Error() + "\n"
	}
	res, err := stream.Ingest(context.Background(), &buf, trace.DecodeOptions{},
		streamCalOpts(tr.Horizon, 0.01))
	if err != nil {
		return "packet ingest failed: " + err.Error() + "\n"
	}
	var sizeVals, gapVals, times []float64
	for i, p := range tr.Packets {
		sizeVals = append(sizeVals, float64(p.Size))
		times = append(times, p.Time)
		if i > 0 {
			gapVals = append(gapVals, p.Time-tr.Packets[i-1].Time)
		}
	}
	out := fmt.Sprintf("LBL-PKT-1 packet trace (%d records, %.0f h)\n", len(tr.Packets), tr.Horizon/3600)
	out += dimRows(res.Sketch, map[string][]float64{
		"size": sizeVals, "gap": gapVals,
	})
	out += countRows(res.Sketch, times, tr.Horizon, 0.01)
	return out
}

// dimRows compares each streamed dimension against its batch values:
// exact count, relative moment error, achieved quantile rank error.
func dimRows(sk *stream.Sketch, batch map[string][]float64) string {
	var rows [][]string
	for _, name := range sk.DimNames() {
		d := sk.Dim(name)
		vals := batch[name]
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		rows = append(rows, []string{
			name,
			fmt.Sprintf("n %d (batch %d)", d.Moments.Count(), len(vals)),
			fmt.Sprintf("mean Δrel %.1e", relDelta(d.Moments.Mean(), stats.Mean(vals))),
			fmt.Sprintf("var Δrel %.1e", relDelta(d.Moments.Variance(), stats.Variance(vals))),
			fmt.Sprintf("p50 rankerr %.3f%%", 100*rankErr(sorted, d.Quant.Quantile(0.5), 0.5)),
			fmt.Sprintf("p90 rankerr %.3f%%", 100*rankErr(sorted, d.Quant.Quantile(0.9), 0.9)),
			fmt.Sprintf("p99 rankerr %.3f%%", 100*rankErr(sorted, d.Quant.Quantile(0.99), 0.99)),
		})
	}
	return table(nil, rows)
}

// countRows checks the integer count-process state: the variance-time
// accumulator must reproduce stats.CountProcess bin-for-bin (and
// therefore the batch VT slope to the bit), and the arrival windows
// must match a CountProcess over the spanned horizon.
func countRows(sk *stream.Sketch, times []float64, horizon, bin float64) string {
	vtBatch := stats.CountProcess(times, bin, horizon)
	vtStream := sk.AggVar().Counts()
	slopeStream := sk.AggVar().VTSlope(500, 5, 10, 500)
	slopeBatch := stats.VTSlope(stats.VarianceTime(vtBatch, 500, 5), 10, 500)
	winStream := sk.Arrivals().Counts()
	winBatch := stats.CountProcess(times, 1, float64(sk.Arrivals().Windows()))
	return fmt.Sprintf("  count process (%.3g s bins): identical to batch: %v;  VT slope %.4f (batch %.4f)\n"+
		"  arrival windows (1 s): identical to batch: %v;  dispersion %.3f, lag-1 %+.3f\n",
		bin, floatsEqual(vtStream, vtBatch), slopeStream, slopeBatch,
		floatsEqual(winStream, winBatch), sk.Arrivals().Dispersion(), sk.Arrivals().Lag1())
}

// streamCalMergeOrder verifies the acceptance criterion directly:
// shard sketches merged in every tested arrival order serialize to the
// same bytes.
func streamCalMergeOrder(ctx context.Context) string {
	defer phase(ctx, "merge-order")()
	rng := rand.New(rand.NewSource(99))
	shards := make([]*stream.Sketch, 6)
	for i := range shards {
		s, err := stream.NewSketch(stream.ConnSketch, i, stream.Config{Seed: 42})
		if err != nil {
			return "merge-order setup failed: " + err.Error() + "\n"
		}
		shards[i] = s
	}
	batches := make([][]stream.Obs, len(shards))
	prev := 0.0
	for i := 0; i < 30000; i++ {
		t := prev + rng.ExpFloat64()*2
		batches[i%len(shards)] = append(batches[i%len(shards)], stream.Obs{
			Time: t, Value: math.Exp(rng.NormFloat64() * 3), Duration: rng.ExpFloat64() * 10,
			Gap: t - prev, HasGap: i > 0,
		})
		prev = t
	}
	for i, b := range batches {
		shards[i].ObserveBatch(b)
	}
	perms := [][]int{
		{0, 1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1, 0},
		{3, 0, 5, 1, 4, 2},
	}
	var states [][]byte
	for _, p := range perms {
		ordered := make([]*stream.Sketch, len(p))
		for i, j := range p {
			ordered[i] = shards[j]
		}
		merged, err := stream.MergeSketches(ordered)
		if err != nil {
			return "merge-order merge failed: " + err.Error() + "\n"
		}
		data, err := merged.State()
		if err != nil {
			return "merge-order serialize failed: " + err.Error() + "\n"
		}
		states = append(states, data)
	}
	identical := bytes.Equal(states[0], states[1]) && bytes.Equal(states[0], states[2])
	h := sha256.Sum256(states[0])
	return fmt.Sprintf("shard-merge determinism: 6 shards, %d permutations, byte-identical state: %v (sha256 %s)\n",
		len(perms), identical, hex.EncodeToString(h[:8]))
}

// relDelta is |a-b| / max(|b|, 1), the relative moment error.
func relDelta(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Abs(b); m > 1 {
		return d / m
	}
	return d
}

// rankErr is the achieved quantile rank error: the distance from p to
// the rank interval the returned value occupies in the sorted batch.
func rankErr(sorted []float64, v, p float64) float64 {
	n := float64(len(sorted))
	if n == 0 {
		return 0
	}
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

// floatsEqual is exact element-wise equality.
func floatsEqual(a, b []float64) bool {
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
