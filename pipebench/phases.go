package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"wantraffic/internal/coord"
	"wantraffic/internal/load"
	"wantraffic/internal/obs"
	"wantraffic/internal/observe"
	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// The end-to-end phases. Each builds its generator and consumer
// untimed, then times only the calls into the modules' public
// functions, with the generator writing into an io.Pipe the consumer
// reads, as `wanload | wanstream` would.

// jobResult is one timed pipeline job.
type jobResult struct {
	elapsed time.Duration
	records int64
	skipped int64 // decode skips
	digest  string
}

func (r jobResult) rate() float64 { return float64(r.records) / r.elapsed.Seconds() }

// piped starts the generator writing into a pipe and returns its read
// end plus a wait function that closes the read end (unblocking a
// generator whose consumer stopped early) and returns the
// generator's report and error.
func piped(d *load.Daemon) (io.Reader, func() (load.Report, error)) {
	pr, pw := io.Pipe()
	type result struct {
		rep load.Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := d.Run(context.Background(), pw)
		pw.CloseWithError(err)
		done <- result{rep, err}
	}()
	return pr, func() (load.Report, error) {
		pr.Close()
		r := <-done
		return r.rep, r.err
	}
}

// oneshot is `wanload | wanstream`: generator → Session.IngestReader
// → Merged → Sketch.State, timed from generator start to the SHA-256
// of the merged state, at the given GOMAXPROCS.
func oneshot(e *env, procs int) (jobResult, error) {
	d, err := e.w.newDaemon(e.seed, 0, 0)
	if err != nil {
		return jobResult{}, err
	}
	sess, err := stream.NewSession(e.kind, stream.PipelineOptions{})
	if err != nil {
		return jobResult{}, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	ctx := context.Background()
	start := time.Now()
	r, wait := piped(d)
	_, dstats, err := sess.IngestReader(ctx, r, trace.DecodeOptions{})
	if _, gerr := wait(); err == nil {
		err = gerr
	}
	if err != nil {
		return jobResult{}, fmt.Errorf("one-shot ingest: %w", err)
	}
	digest, _, err := mergedDigest(ctx, sess)
	if err != nil {
		return jobResult{}, err
	}
	return jobResult{elapsed: time.Since(start), records: sess.Records(), skipped: int64(dstats.RecordsSkipped), digest: digest}, nil
}

// mergedDigest is Session.Merged → Sketch.State → SHA-256; it also
// returns the state's size.
func mergedDigest(ctx context.Context, sess *stream.Session) (string, int, error) {
	merged, err := sess.Merged(ctx)
	if err != nil {
		return "", 0, err
	}
	state, err := merged.State()
	if err != nil {
		return "", 0, err
	}
	return coord.Digest(state), len(state), nil
}

// follow is `wanload | wanstream -follow -dilate 0`: generator →
// observe.Replay, timed up to the final verdict and the digest of
// Observatory.State.
func follow(e *env) (jobResult, error) {
	d, err := e.w.newDaemon(e.seed, 0, 0)
	if err != nil {
		return jobResult{}, err
	}
	o := observe.New(observe.Options{})
	start := time.Now()
	r, wait := piped(d)
	st, err := observe.Replay(r, o, observe.ReplayOptions{Flush: true})
	if _, gerr := wait(); err == nil {
		err = gerr
	}
	if err != nil {
		return jobResult{}, fmt.Errorf("follow replay: %w", err)
	}
	state, err := o.State()
	if err != nil {
		return jobResult{}, err
	}
	return jobResult{elapsed: time.Since(start), records: st.Records, skipped: int64(st.Decode.RecordsSkipped), digest: coord.Digest(state)}, nil
}

// eventHasher digests an observatory event sequence.
type eventHasher struct {
	h      hash.Hash
	events int64
	err    error
}

func newEventHasher() *eventHasher { return &eventHasher{h: sha256.New()} }

func (eh *eventHasher) add(ev observe.Event) {
	raw, err := json.Marshal(ev)
	if err != nil && eh.err == nil {
		eh.err = err
	}
	eh.h.Write(raw)
	eh.h.Write([]byte{'\n'})
	eh.events++
}

func (eh *eventHasher) sum() string { return hex.EncodeToString(eh.h.Sum(nil)) }

// pacedResult is one paced live run.
type pacedResult struct {
	lagsMS  []float64 // per verdict, due time to OnEvent
	lateEnd time.Duration
	records int64
	skipped int64
	events  string // event-sequence digest
}

// paced runs the slice open-loop: the generator paces itself at the
// workload's dilation into a pipe that observe.Replay consumes as
// records arrive. Each verdict's lag runs from when its window end
// was due on the generator's schedule to its OnEvent callback. The
// final verdict, closed by the end-of-stream flush rather than by a
// later record, is not timed. stage opens a span around each of the
// two stages (noStage for none).
func paced(e *env, stage stageFunc) (pacedResult, error) {
	d, err := e.w.newDaemon(e.seed, e.w.dilate, e.w.slice)
	if err != nil {
		return pacedResult{}, err
	}
	var res pacedResult
	eh := newEventHasher()
	var start time.Time
	flushing := false
	due := func(tEnd float64) time.Time {
		return start.Add(time.Duration((tEnd - e.sliceT0) / e.w.dilate * float64(time.Second)))
	}
	o := observe.New(observe.Options{OnEvent: func(ev observe.Event) {
		if ev.Kind == obs.EventVerdict && !flushing {
			res.lagsMS = append(res.lagsMS, float64(time.Since(due(ev.TEnd)))/float64(time.Millisecond))
		}
		eh.add(ev)
	}})

	pr, pw := io.Pipe()
	type genResult struct {
		rep load.Report
		end time.Time
		err error
	}
	done := make(chan genResult, 1)
	start = time.Now()
	go func() {
		endGen := stage("load.run")
		rep, err := d.Run(context.Background(), pw)
		end := time.Now()
		endGen(map[string]int64{"records": rep.Records})
		pw.CloseWithError(err)
		done <- genResult{rep, end, err}
	}()
	endObs := stage("observe.replay")
	st, err := observe.Replay(pr, o, observe.ReplayOptions{})
	flushing = true
	o.Flush()
	endObs(map[string]int64{"records": st.Records, "windows": o.Windows(), "events": eh.events})
	pr.Close()
	g := <-done
	if err == nil {
		err = g.err
	}
	if err == nil {
		err = eh.err
	}
	if err != nil {
		return pacedResult{}, fmt.Errorf("paced live run: %w", err)
	}
	res.lateEnd = g.end.Sub(due(g.rep.TraceSeconds))
	res.records, res.skipped, res.events = st.Records, int64(st.Decode.RecordsSkipped), eh.sum()
	return res, nil
}

// fleetHooks instruments a fleet run: a Handlers guard timing each
// upload's apply on the coordinator and a transport timing each
// upload's round trip.
type fleetHooks struct {
	mu      sync.Mutex
	applyMS []float64
	rttMS   []float64
	bytes   int64
	span    func(name string, start, end time.Time, counts map[string]int64)
}

func (h *fleetHooks) guard(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		h.mu.Lock()
		h.applyMS = append(h.applyMS, float64(end.Sub(start))/float64(time.Millisecond))
		h.mu.Unlock()
		h.span("coord.apply", start, end, map[string]int64{"bytes": r.ContentLength})
	})
}

type timedTransport struct {
	base  http.RoundTripper
	hooks *fleetHooks
}

func (t timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	end := time.Now()
	t.hooks.mu.Lock()
	t.hooks.rttMS = append(t.hooks.rttMS, float64(end.Sub(start))/float64(time.Millisecond))
	t.hooks.bytes += r.ContentLength
	t.hooks.mu.Unlock()
	t.hooks.span("coord.upload", start, end, map[string]int64{"bytes": r.ContentLength})
	return resp, err
}

// fleetResult is one fleet run.
type fleetResult struct {
	jobResult
	uploads, retries, rejects int64
	coord                     *coord.Coordinator
}

// fleet runs two coord.RunWorker workers over the shard files against
// a fresh coordinator served on the loopback listener, timed from
// worker start until Coordinator.Results reports the run complete.
// hooks, when non-nil, instruments the uploads; stage opens a span
// around each worker and the results call (noStage for none).
func fleet(e *env, hooks *fleetHooks, stage stageFunc) (fleetResult, error) {
	reg := obs.NewRegistry()
	c, err := coord.New(coord.Options{ExpectedWorkers: len(e.shards), Metrics: reg})
	if err != nil {
		return fleetResult{}, err
	}
	var guard func(http.Handler) http.Handler
	tr := &http.Transport{MaxConnsPerHost: len(e.shards), MaxIdleConnsPerHost: len(e.shards)}
	defer tr.CloseIdleConnections()
	var rt http.RoundTripper = tr
	if hooks != nil {
		guard = hooks.guard
		rt = timedTransport{base: tr, hooks: hooks}
	}
	e.srv.mount(c.Handlers(guard))
	hc := &http.Client{Transport: rt}

	start := time.Now()
	reports := make([]coord.WorkerReport, len(e.shards))
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	for i, path := range e.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			end := stage("coord.worker")
			reports[i], errs[i] = coord.RunWorker(context.Background(), coord.WorkerOptions{
				ID: fmt.Sprintf("w%d", i), Shard: i, TracePath: path,
				Client:  &coord.Client{Base: e.srv.url, HTTPClient: hc, Seed: uint64(e.seed) + uint64(i), Metrics: reg},
				Metrics: reg,
			})
			end(map[string]int64{"records": reports[i].Records, "uploads": int64(reports[i].Uploads)})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fleetResult{}, fmt.Errorf("fleet worker %d: %w", i, err)
		}
	}
	end := stage("coord.results")
	res, err := c.Results()
	if err != nil {
		return fleetResult{}, err
	}
	end(map[string]int64{"records": res.Records})
	if res.Status != coord.ResultComplete {
		return fleetResult{}, fmt.Errorf("fleet results %s: %d/%d workers final", res.Status, res.Finalized, res.Expected)
	}
	out := fleetResult{
		jobResult: jobResult{elapsed: time.Since(start), records: res.Records, digest: res.Digest},
		retries:   reg.Counter("coord.client.retries").Value(),
		rejects:   reg.Counter("coord.uploads.rejected").Value() + reg.Counter("coord.uploads.stale").Value(),
		coord:     c,
	}
	for _, r := range reports {
		out.uploads += int64(r.Uploads)
	}
	return out, nil
}

// references are the correctness gate's expected outputs, each from
// the simplest serial path over the same inputs.
type references struct {
	oneshot    string // serial Session over the in-memory corpus
	stateBytes int    // its merged Sketch.State size
	fleet      string // single-process ingest of the shard files
	events     string // unpaced Replay of the slice
}

func computeReferences(e *env) (references, error) {
	var ref references
	ctx := context.Background()
	sess, err := stream.NewSession(e.kind, stream.PipelineOptions{})
	if err != nil {
		return ref, err
	}
	if _, _, err := sess.IngestReader(ctx, bytes.NewReader(e.corpus), trace.DecodeOptions{}); err != nil {
		return ref, err
	}
	if ref.oneshot, ref.stateBytes, err = mergedDigest(ctx, sess); err != nil {
		return ref, err
	}
	if ref.fleet, err = shardFilesDigest(ctx, e); err != nil {
		return ref, err
	}
	eh := newEventHasher()
	o := observe.New(observe.Options{OnEvent: eh.add})
	if _, err := observe.Replay(bytes.NewReader(e.slice), o, observe.ReplayOptions{Flush: true}); err != nil {
		return ref, err
	}
	ref.events = eh.sum()
	return ref, eh.err
}

// shardFilesDigest ingests shard file i as global shard i and folds
// the sketches canonically: `wanstream shard0 shard1`.
func shardFilesDigest(ctx context.Context, e *env) (string, error) {
	sketches := make([]*stream.Sketch, len(e.shards))
	for i, path := range e.shards {
		sess, err := stream.NewSession(e.kind, stream.PipelineOptions{Shards: 1, ShardOffset: i})
		if err != nil {
			return "", err
		}
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		_, _, err = sess.IngestReader(ctx, f, trace.DecodeOptions{})
		f.Close()
		if err != nil {
			return "", fmt.Errorf("%s: %w", path, err)
		}
		if sketches[i], err = sess.Merged(ctx); err != nil {
			return "", err
		}
	}
	merged, err := stream.MergeSketches(sketches)
	if err != nil {
		return "", err
	}
	state, err := merged.State()
	if err != nil {
		return "", err
	}
	return coord.Digest(state), nil
}
