package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one round share a
// run id; parent 0 marks a root.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Run    string           `json:"run"`
	Name   string           `json:"name"`
	Start  time.Time        `json:"start"`
	End    time.Time        `json:"end"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: the paced and fleet phases record from several
// goroutines.
type tracer struct {
	mu    sync.Mutex
	run   string
	spans []span
}

// setRun stamps the spans started from now on with a run id.
func (t *tracer) setRun(run string) {
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
}

// start opens a span under parent and returns the function that
// closes it with the counts measured at the same boundary.
func (t *tracer) start(parent int, name string) (int, func(counts map[string]int64)) {
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: time.Now()})
	t.mu.Unlock()
	return id, func(counts map[string]int64) {
		end := time.Now()
		t.mu.Lock()
		t.spans[id-1].End, t.spans[id-1].Counts = end, counts
		t.mu.Unlock()
	}
}

// record adds a span measured elsewhere.
func (t *tracer) record(parent int, name string, start, end time.Time, counts map[string]int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: start, End: end, Counts: counts})
	t.mu.Unlock()
}

// stageFunc opens a span named for a pipeline stage and returns the
// function that closes it with the counts measured at its boundary.
type stageFunc func(name string) func(counts map[string]int64)

// noStage opens no span.
func noStage(string) func(map[string]int64) { return func(map[string]int64) {} }

// under returns the stage opener for children of parent.
func (t *tracer) under(parent int) stageFunc {
	return func(name string) func(map[string]int64) {
		_, end := t.start(parent, name)
		return end
	}
}

// get returns span id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// accounted is the children's summed duration as a share of the
// span's own: for a serial path, how much of its wall time the layer
// spans explain.
func (t *tracer) accounted(id int) float64 {
	var sum time.Duration
	for _, c := range t.children(id) {
		sum += c.dur()
	}
	return float64(sum) / float64(t.get(id).dur())
}

// selfTime is a span's duration minus the part of it its children
// cover (children may overlap one another).
func selfTime(s span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(s.End) {
			b = s.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.dur() - covered
}

// report prints, per span path (parent name/name), the call count,
// total and self time and the summed boundary counts.
func (t *tracer) report(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	path := func(s span) string {
		if s.Parent == 0 {
			return s.Name
		}
		return t.spans[s.Parent-1].Name + "/" + s.Name
	}
	type agg struct {
		n           int
		total, self time.Duration
		counts      map[string]int64
	}
	byName := map[string]*agg{}
	var names []string
	for _, s := range t.spans {
		a := byName[path(s)]
		if a == nil {
			a = &agg{counts: map[string]int64{}}
			byName[path(s)] = a
			names = append(names, path(s))
		}
		a.n++
		a.total += s.dur()
		a.self += selfTime(s, kids[s.ID])
		for k, v := range s.Counts {
			a.counts[k] += v
		}
	}
	fmt.Fprintf(w, "%-34s %5s %12s %12s  %s\n", "span", "calls", "total_ms", "self_ms", "counts")
	for _, name := range names {
		a := byName[name]
		keys := make([]string, 0, len(a.counts))
		for k := range a.counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		counts := ""
		for _, k := range keys {
			counts += fmt.Sprintf(" %s=%d", k, a.counts[k])
		}
		fmt.Fprintf(w, "%-34s %5d %12.3f %12.3f %s\n", name, a.n,
			float64(a.total)/float64(time.Millisecond), float64(a.self)/float64(time.Millisecond), counts)
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
