package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"wantraffic/internal/coord"
	"wantraffic/internal/observe"
	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// perLayer lists the --trace 1 metrics and their units, by layer.
var perLayer = []struct{ name, unit string }{
	{"load.gen_s", "s"},
	{"load.ns_per_record", "ns"},
	{"load.bytes_per_record", "bytes"},
	{"load.late_end_ms", "ms"},
	{"trace.decode_s", "s"},
	{"trace.decode.ns_per_record", "ns"},
	{"stream.ingest_s", "s"},
	{"stream.ingest_1p_s", "s"},
	{"stream.ingest.ns_per_record", "ns"},
	{"stream.ingest.alloc_bytes_per_record", "bytes"},
	{"stream.merge_s", "s"},
	{"stream.clone_s", "s"},
	{"stream.state_encode_s", "s"},
	{"stream.state_restore_s", "s"},
	{"stream.state.countseries_share", "ratio"},
	{"observe.replay_s", "s"},
	{"observe.ns_per_record", "ns"},
	{"observe.windows", "count"},
	{"observe.records_per_window", "count"},
	{"observe.us_per_window", "us"},
	{"observe.alloc_bytes_per_window", "bytes"},
	{"observe.events", "count"},
	{"observe.change_points", "count"},
	{"observe.state_bytes", "bytes"},
	{"coord.uploads", "count"},
	{"coord.upload_bytes", "bytes"},
	{"coord.apply_p50_ms", "ms"},
	{"coord.apply_tail_ms", "ms"},
	{"coord.rtt_p50_ms", "ms"},
	{"coord.retries", "count"},
	{"coord.rejects", "count"},
	{"coord.merged_s", "s"},
	{"coord.results_s", "s"},
	{"tracing.overhead_pct", "%"},
	{"tracing.oneshot_accounted_pct", "%"},
	{"tracing.follow_accounted_pct", "%"},
}

// maxUnaccounted is how far the layer spans of a serial path may sum
// from its wall time.
const maxUnaccounted = 0.10

// layerRun is one traced run: its spans and the per-layer samples.
type layerRun struct {
	*bench
	t       *tracer
	samples map[string][]float64
	// merged and state are the latest serial one-shot's outputs, which
	// the stream-state step clones and restores.
	merged *stream.Sketch
	state  []byte
}

func (l *layerRun) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

// layers runs every layer serially under spans, round after round,
// and reports each per-layer metric's median.
func (b *bench) layers() error {
	l := &layerRun{bench: b, t: &tracer{}, samples: map[string][]float64{}}
	err := rounds(b.cfg.seconds, func(i int) error {
		l.t.setRun(fmt.Sprintf("%s/seed%d/round%d", b.e.w.name, b.e.seed, i))
		for _, step := range []func() error{l.oneshot, l.streamState, l.follow, l.paced, l.fleet} {
			runtime.GC()
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, m := range perLayer {
		b.timing(m.name, m.unit, l.samples[m.name])
	}
	l.t.report(b.out)
	if err := l.t.write(b.cfg.spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(b.out, "spans written to %s\n", b.cfg.spans)
	return nil
}

// rounds runs round until the next one would end past the deadline,
// always at least once.
func rounds(seconds float64, round func(i int) error) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 1; ; i++ {
		start := time.Now()
		if err := round(i); err != nil {
			return err
		}
		if time.Now().Add(time.Since(start)).After(deadline) {
			return nil
		}
	}
}

// serialOneshot generates the corpus into memory, then ingests,
// merges and encodes it, opening one stage per layer call.
func (l *layerRun) serialOneshot(stage stageFunc) (corpus []byte, merged *stream.Sketch, state []byte, err error) {
	e, ctx := l.e, context.Background()
	d, err := e.w.newDaemon(e.seed, 0, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	sess, err := stream.NewSession(e.kind, stream.PipelineOptions{})
	if err != nil {
		return nil, nil, nil, err
	}
	var buf bytes.Buffer
	buf.Grow(len(e.corpus))

	end := stage("load.gen")
	rep, err := d.Run(ctx, &buf)
	end(map[string]int64{"records": rep.Records, "bytes": int64(buf.Len())})
	if err != nil {
		return nil, nil, nil, err
	}
	allocs := heapAllocs()
	end = stage("stream.ingest")
	_, dstats, err := sess.IngestReader(ctx, bytes.NewReader(buf.Bytes()), trace.DecodeOptions{})
	end(map[string]int64{"records": sess.Records(), "skipped": int64(dstats.RecordsSkipped)})
	if err != nil {
		return nil, nil, nil, err
	}
	l.add("stream.ingest.alloc_bytes_per_record", float64(heapAllocs()-allocs)/float64(sess.Records()))
	l.ops(sess.Records(), int64(dstats.RecordsSkipped))
	end = stage("stream.merge")
	merged, err = sess.Merged(ctx)
	end(nil)
	if err != nil {
		return nil, nil, nil, err
	}
	end = stage("stream.state_encode")
	state, err = merged.State()
	end(map[string]int64{"bytes": int64(len(state))})
	return buf.Bytes(), merged, state, err
}

// oneshot times the serial one-shot path once untraced and once
// under spans; their difference is the tracing overhead.
func (l *layerRun) oneshot() error {
	start := time.Now()
	if _, _, _, err := l.serialOneshot(noStage); err != nil {
		return err
	}
	untraced := time.Since(start)

	runtime.GC()
	root, endRoot := l.t.start(0, "oneshot.serial")
	corpus, merged, state, err := l.serialOneshot(l.t.under(root))
	endRoot(nil)
	if err != nil {
		return err
	}
	l.check(bytes.Equal(corpus, l.e.corpus), "serial generator output differs from the set-up corpus")
	l.check(coord.Digest(state) == l.ref.oneshot, "serial one-shot digest %.12s, reference %.12s", coord.Digest(state), l.ref.oneshot)

	traced := l.t.get(root).dur()
	l.add("tracing.overhead_pct", 100*float64(traced-untraced)/float64(untraced))
	l.accounted(root, "tracing.oneshot_accounted_pct", "one-shot")
	for _, c := range l.t.children(root) {
		l.add(c.Name+"_s", c.dur().Seconds())
		switch c.Name {
		case "load.gen":
			l.add("load.ns_per_record", perRecord(c))
			l.add("load.bytes_per_record", float64(c.Counts["bytes"])/float64(c.Counts["records"]))
		case "stream.ingest":
			l.add("stream.ingest.ns_per_record", perRecord(c))
		}
	}
	l.merged, l.state = merged, state
	return nil
}

// accounted records how much of a serial path's wall time its layer
// spans explain, and checks it is within maxUnaccounted.
func (l *layerRun) accounted(root int, metric, path string) {
	acc := l.t.accounted(root)
	l.add(metric, 100*acc)
	l.check(acc > 1-maxUnaccounted && acc < 1+maxUnaccounted, "%s layer spans account for %.1f%% of its wall time", path, 100*acc)
}

// perRecord is a span's nanoseconds per record counted at its boundary.
func perRecord(s span) float64 {
	return float64(s.dur().Nanoseconds()) / float64(s.Counts["records"])
}

// timed runs f under a root span and returns the span.
func (l *layerRun) timed(name string, f func() (map[string]int64, error)) (span, error) {
	id, end := l.t.start(0, name)
	counts, err := f()
	end(counts)
	return l.t.get(id), err
}

// streamState times the stream layer's remaining calls on the corpus
// and the merged sketch: ingest at GOMAXPROCS 1, a decode-only pass,
// Clone and RestoreSketch.
func (l *layerRun) streamState() error {
	e, ctx, merged, state := l.e, context.Background(), l.merged, l.state

	sess, err := stream.NewSession(e.kind, stream.PipelineOptions{})
	if err != nil {
		return err
	}
	prev := runtime.GOMAXPROCS(1)
	s, err := l.timed("stream.ingest_1p", func() (map[string]int64, error) {
		_, _, err := sess.IngestReader(ctx, bytes.NewReader(e.corpus), trace.DecodeOptions{})
		return map[string]int64{"records": sess.Records()}, err
	})
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	l.add("stream.ingest_1p_s", s.dur().Seconds())
	digest, _, err := mergedDigest(ctx, sess)
	if err != nil {
		return err
	}
	l.check(digest == l.ref.oneshot, "one-shot at GOMAXPROCS 1: digest %.12s, reference %.12s", digest, l.ref.oneshot)

	s, err = l.timed("trace.decode", func() (map[string]int64, error) {
		n, err := decodeOnly(e.corpus)
		return map[string]int64{"records": n}, err
	})
	if err != nil {
		return err
	}
	l.check(s.Counts["records"] == e.records, "decode pass: %d records, corpus has %d", s.Counts["records"], e.records)
	l.add("trace.decode_s", s.dur().Seconds())
	l.add("trace.decode.ns_per_record", perRecord(s))

	s, err = l.timed("stream.clone", func() (map[string]int64, error) {
		_, err := merged.Clone()
		return nil, err
	})
	if err != nil {
		return err
	}
	l.add("stream.clone_s", s.dur().Seconds())
	s, err = l.timed("stream.state_restore", func() (map[string]int64, error) {
		_, err := stream.RestoreSketch(state)
		return map[string]int64{"bytes": int64(len(state))}, err
	})
	if err != nil {
		return err
	}
	l.add("stream.state_restore_s", s.dur().Seconds())

	arrivals, err := merged.Arrivals().State()
	if err != nil {
		return err
	}
	aggVar, err := merged.AggVar().State()
	if err != nil {
		return err
	}
	l.add("stream.state.countseries_share", float64(len(arrivals)+len(aggVar))/float64(len(state)))
	return nil
}

// follow times the serial follow path: generate into memory, then
// observe.Replay at full speed.
func (l *layerRun) follow() error {
	e := l.e
	d, err := e.w.newDaemon(e.seed, 0, 0)
	if err != nil {
		return err
	}
	var events int64
	o := observe.New(observe.Options{OnEvent: func(observe.Event) { events++ }})
	var buf bytes.Buffer
	buf.Grow(len(e.corpus))

	root, endRoot := l.t.start(0, "follow.serial")
	stage := l.t.under(root)
	end := stage("load.gen")
	rep, err := d.Run(context.Background(), &buf)
	end(map[string]int64{"records": rep.Records, "bytes": int64(buf.Len())})
	if err != nil {
		endRoot(nil)
		return err
	}
	allocs := heapAllocs()
	end = stage("observe.replay")
	st, err := observe.Replay(bytes.NewReader(buf.Bytes()), o, observe.ReplayOptions{Flush: true})
	end(map[string]int64{"records": st.Records, "windows": o.Windows(), "events": events})
	endRoot(nil)
	if err != nil {
		return err
	}
	alloc := heapAllocs() - allocs
	l.ops(st.Records, int64(st.Decode.RecordsSkipped))
	l.check(st.Records == e.records, "follow: %d records, corpus has %d", st.Records, e.records)
	l.accounted(root, "tracing.follow_accounted_pct", "follow")
	state, err := o.State()
	if err != nil {
		return err
	}

	for _, c := range l.t.children(root) {
		switch c.Name {
		case "load.gen":
			l.add("load.gen_s", c.dur().Seconds())
			l.add("load.ns_per_record", perRecord(c))
		case "observe.replay":
			windows := float64(o.Windows())
			l.add("observe.replay_s", c.dur().Seconds())
			l.add("observe.ns_per_record", perRecord(c))
			l.add("observe.windows", windows)
			l.add("observe.records_per_window", float64(st.Records)/windows)
			l.add("observe.us_per_window", c.dur().Seconds()*1e6/windows)
			l.add("observe.alloc_bytes_per_window", float64(alloc)/windows)
		}
	}
	l.add("observe.events", float64(events))
	l.add("observe.change_points", float64(o.ChangePoints()))
	l.add("observe.state_bytes", float64(len(state)))
	return nil
}

// paced runs the paced live phase with its two stages under spans.
func (l *layerRun) paced() error {
	root, endRoot := l.t.start(0, "paced")
	p, err := paced(l.e, l.t.under(root))
	endRoot(map[string]int64{"records": p.records})
	if err != nil {
		return err
	}
	l.ops(p.records, p.skipped)
	l.check(p.events == l.ref.events, "paced live run: event digest %.12s, unpaced replay %.12s", p.events, l.ref.events)
	l.add("load.late_end_ms", float64(p.lateEnd)/float64(time.Millisecond))
	return nil
}

// fleet runs the fleet with its workers, uploads, applies and the
// coordinator's merge under spans.
func (l *layerRun) fleet() error {
	root, endRoot := l.t.start(0, "fleet")
	hooks := &fleetHooks{span: func(name string, start, end time.Time, counts map[string]int64) {
		l.t.record(root, name, start, end, counts)
	}}
	f, err := fleet(l.e, hooks, l.t.under(root))
	if err != nil {
		endRoot(nil)
		return err
	}
	end := l.t.under(root)("coord.merged")
	state, digest, err := f.coord.Merged()
	end(map[string]int64{"bytes": int64(len(state))})
	endRoot(map[string]int64{"records": f.records})
	if err != nil {
		return err
	}
	l.ops(f.uploads+f.records, f.retries+f.rejects)
	l.check(f.digest == l.ref.fleet, "fleet: results digest %.12s, single-process shard ingest %.12s", f.digest, l.ref.fleet)
	l.check(digest == l.ref.fleet, "fleet: Coordinator.Merged digest %.12s, single-process shard ingest %.12s", digest, l.ref.fleet)

	applyTail, _ := tail(hooks.applyMS)
	l.add("coord.uploads", float64(f.uploads))
	l.add("coord.upload_bytes", float64(hooks.bytes))
	l.add("coord.apply_p50_ms", median(hooks.applyMS))
	l.add("coord.apply_tail_ms", applyTail)
	l.add("coord.rtt_p50_ms", median(hooks.rttMS))
	l.add("coord.retries", float64(f.retries))
	l.add("coord.rejects", float64(f.rejects))
	for _, c := range l.t.children(root) {
		switch c.Name {
		case "coord.merged", "coord.results":
			l.add(c.Name+"_s", c.dur().Seconds())
		}
	}
	return nil
}

// decodeOnly scans the corpus in batches without observing anything.
func decodeOnly(corpus []byte) (int64, error) {
	br := bufio.NewReader(bytes.NewReader(corpus))
	kind, _, err := trace.SniffHeader(br)
	if err != nil {
		return 0, err
	}
	var n int64
	if kind == trace.KindConn {
		sc := trace.NewConnBinaryScanner(br, trace.DecodeOptions{})
		buf := make([]trace.Conn, stream.DefaultChunkSize)
		for {
			k, err := sc.ScanBatch(buf)
			n += int64(k)
			if err == io.EOF {
				return n, nil
			}
			if err != nil {
				return n, err
			}
		}
	}
	sc := trace.NewPacketBinaryScanner(br, trace.DecodeOptions{})
	buf := make([]trace.Packet, stream.DefaultChunkSize)
	for {
		k, err := sc.ScanBatch(buf)
		n += int64(k)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}
