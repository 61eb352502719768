package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload to seconds of work: LBL-1 at its Table I
// rate over two days, or two minutes of FULL-TEL.
func tiny(w workload) workload {
	if w.name == "fulltel-1h" {
		w.duration, w.slice = 120, 120
	} else {
		w.scale, w.duration, w.slice = 1, 2*86400, 7200
	}
	return w
}

type specMetric struct{ Name, Unit string }

type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesProgram pins BENCHMARK.json to the program: the same
// workloads and the same metric names and units.
func TestSpecMatchesProgram(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		what string
		spec []specMetric
		prog []struct{ name, unit string }
	}{{"end_to_end", s.EndToEnd, endToEnd}, {"per_layer", s.PerLayer, perLayer}} {
		if len(c.spec) != len(c.prog) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program %d", c.what, len(c.spec), len(c.prog))
		}
		for i, m := range c.spec {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", c.what, i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}

// TestTinyWorkloads runs every workload at tiny scale, untraced and
// traced, and checks the correctness gate passes, the metric set and
// units match BENCHMARK.json, and the serial paths' layer spans sum to
// their wall time within 10%.
func TestTinyWorkloads(t *testing.T) {
	s := readSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			want := s.EndToEnd
			if traced {
				name, want = w.name+"/traced", s.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				spans := filepath.Join(dir, "spans.jsonl")
				var out bytes.Buffer
				res, err := run(config{w: tiny(w), seed: 7, traced: traced, workDir: dir, spans: spans}, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
				if !traced {
					return
				}
				for _, m := range []string{"tracing.oneshot_accounted_pct", "tracing.follow_accounted_pct"} {
					if v := res.Metrics[m].Value; v < 90 || v > 110 {
						t.Errorf("%s = %.2f, want within 10%% of 100", m, v)
					}
				}
				checkSpans(t, spans)
			})
		}
	}
}

// checkSpans reads the written spans back: every span has a name, a
// run id and an end not before its start, and every parent exists.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ids := map[int]bool{}
	var all []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		ids[s.ID] = true
		all = append(all, s)
	}
	if len(all) == 0 {
		t.Fatal("no spans written")
	}
	for _, s := range all {
		if s.Name == "" || s.Run == "" || s.End.Before(s.Start) || (s.Parent != 0 && !ids[s.Parent]) {
			t.Errorf("bad span %+v", s)
		}
	}
}

// TestGateCatchesMismatch feeds the end-to-end run wrong references and
// expects every gate comparison to fail and count against ok_ratio.
func TestGateCatchesMismatch(t *testing.T) {
	w := tiny(workloads[0])
	e, err := setup(w, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	b := &bench{cfg: config{w: w, seed: 3}, e: e, out: io.Discard, metrics: map[string]metric{}}
	if b.ref, err = computeReferences(e); err != nil {
		t.Fatal(err)
	}
	b.ref.oneshot, b.ref.fleet, b.ref.events = "x", "y", "z"
	if err := b.endToEnd(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"one-shot at GOMAXPROCS 1", "paced live run", "fleet: results", "fleet: Coordinator.Merged"} {
		found := false
		for _, m := range b.mismatches {
			found = found || strings.HasPrefix(m, want)
		}
		if !found {
			t.Errorf("no mismatch reported for %q; got %q", want, b.mismatches)
		}
	}
	if b.metrics["ok_ratio"].Value >= 1 {
		t.Errorf("ok_ratio %v with failed checks", b.metrics["ok_ratio"].Value)
	}
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{{"--workload", "nope"}, {"--trace", "2"}, {"extra"}} {
		if code := runMain(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); p != 99 || v != 990 {
		t.Errorf("tail of 1..1000 = %v at p%v, want 990 at p99", v, p)
	}
	if v, p := tail(xs[:5]); p != 100 || v != 5 {
		t.Errorf("tail of 1..5 = %v at p%v, want the maximum", v, p)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := span{Start: at(0), End: at(100)}
	kids := []span{
		{Start: at(10), End: at(40)},
		{Start: at(30), End: at(50)}, // overlaps the first
		{Start: at(90), End: at(120)},
	}
	if got, want := selfTime(root, kids), 50*time.Millisecond; got != want {
		t.Errorf("self time %v, want %v", got, want)
	}
}
