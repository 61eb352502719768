// Command pipebench is the repository's end-to-end pipeline
// benchmark. It drives the real path in one process — load.Daemon.Run
// writing into an io.Pipe that feeds either a stream.Session (the
// one-shot `wanload | wanstream`) or observe.Replay (the live
// observatory), and two coord.RunWorker workers uploading to a
// coord.Coordinator served on a loopback listener — and times only the
// calls into those modules' public functions.
//
// Usage:
//
//	pipebench --workload lbl1-10d --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the same layers serially under in-memory spans and reports the
// per-layer split. Either way the run checks its outputs against the
// simplest serial path over the same inputs, prints a human-readable
// report, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// It exits 1 when a correctness check fails or a layer errors, 2 on a
// usage error. NOTES.md records why each workload was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"
)

// setupRepeats is how many times a --trace 0 run sets up; setup_s is
// the median.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the --trace 0 metrics and their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"oneshot_records_per_s", "1/s"},
	{"oneshot_1p_records_per_s", "1/s"},
	{"follow_records_per_s", "1/s"},
	{"verdict_lag_p50_ms", "ms"},
	{"verdict_lag_tail_ms", "ms"},
	{"fleet_records_per_s", "1/s"},
	{"state_bytes", "bytes"},
	{"peak_heap_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// config is one benchmark invocation.
type config struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	workDir string // the fleet's shard files go here
	spans   string // traced runs write their spans here
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "lbl1-10d", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed (the generator's scenario seed)")
	seconds := fs.Float64("seconds", 55, "measure for this long (at least one round of every phase)")
	traced := fs.Int("trace", 0, "1: per-layer traced run, 0: end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "pipebench: usage: --workload {%s} --seed N --seconds S --trace {0|1}\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	res, err := run(config{
		w: w, seed: *seed, seconds: *seconds, traced: *traced == 1,
		workDir: filepath.Join(".bench_build", "work"),
		spans:   filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed)),
	}, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "pipebench: %v\n", err)
		return 1
	}
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "pipebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ",")
}

// bench is one run's state: the set-up inputs, the gate's references
// and tally, and the metrics so far.
type bench struct {
	cfg     config
	e       *env
	ref     references
	out     io.Writer
	metrics map[string]metric

	attempted, failed int64
	mismatches        []string
}

// ops counts operations attempted and failed (decode skips, upload
// retries and rejects).
func (b *bench) ops(attempted, failed int64) {
	b.attempted += attempted
	b.failed += failed
}

// check is one correctness-gate comparison.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		b.mismatches = append(b.mismatches, fmt.Sprintf(format, args...))
	}
}

func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// timing reports the median of samples with its sample count and
// range.
func (b *bench) timing(name, unit string, samples []float64) {
	v := median(samples)
	b.set(name, unit, v)
	fmt.Fprintf(b.out, "%-38s %14.6g %-5s median of %d (%.6g .. %.6g)\n", name, v, unit, len(samples), slices.Min(samples), slices.Max(samples))
}

// run sets the workload up, measures it and checks its outputs.
func run(cfg config, out io.Writer) (result, error) {
	repeats := setupRepeats
	if cfg.traced {
		repeats = 1
	}
	var e *env
	var setupS []float64
	for i := 0; i < repeats; i++ {
		start := time.Now()
		next, err := setup(cfg.w, cfg.seed, cfg.workDir)
		if err != nil {
			if e != nil {
				e.close()
			}
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if e != nil {
			if err := e.close(); err != nil {
				return result{}, err
			}
		}
		e = next
	}
	b := &bench{cfg: cfg, e: e, out: out, metrics: map[string]metric{}}
	err := b.measure(setupS)
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	for _, m := range b.mismatches {
		fmt.Fprintf(out, "MISMATCH: %s\n", m)
	}
	return result{Correct: len(b.mismatches) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}, nil
}

func (b *bench) measure(setupS []float64) error {
	e := b.e
	var err error
	if b.ref, err = computeReferences(e); err != nil {
		return fmt.Errorf("references: %w", err)
	}
	fmt.Fprintf(b.out, "workload %s seed %d: %d records, %d bytes; paced slice %gs at dilation %g; %d-worker fleet\n",
		e.w.name, e.seed, e.records, len(e.corpus), e.w.slice, e.w.dilate, len(e.shards))
	if b.cfg.traced {
		return b.layers()
	}
	b.timing("setup_s", "s", setupS)
	return b.endToEnd()
}

// sampleHeapPeak samples the heap bytes in use until the returned
// function is called, which stops the sampler and returns the peak.
func sampleHeapPeak(every time.Duration) func() uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	stop, done := make(chan struct{}), make(chan uint64)
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		return <-done
	}
}

// heapAllocs is the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
