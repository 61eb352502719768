package observe

import (
	"bytes"
	"math"
	"testing"

	"wantraffic/internal/trace"
)

// fuzzOptions are the options every fuzzed state restores into.
func fuzzOptions() Options { return Options{Window: 5, KeepWindows: 6, HalfLife: 30, Warmup: 2} }

// FuzzObservatoryRestore: arbitrary bytes never panic Restore; a
// state Restore accepts re-serializes canonically (State, then
// Restore and State of that, is byte-identical); and the restored
// observatory keeps observing — in-order, late, gapped and
// adversarial records, then a flush — without panicking, into a state
// that restores again.
func FuzzObservatoryRestore(f *testing.F) {
	conns := regimeSwapConns(5, 60, 120)
	for _, cut := range []int{0, 1, len(conns) / 2, len(conns)} {
		o := New(fuzzOptions())
		for _, c := range conns[:cut] {
			o.ObserveConn(c)
		}
		st, err := o.State()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(st)
	}
	// A decayed size histogram spanning exponents ±2³⁰ (which a dense
	// histogram must not allocate), and one with a zero-weight bucket
	// (which State would not reproduce).
	half := New(fuzzOptions())
	for _, c := range conns[:len(conns)/2] {
		half.ObserveConn(c)
	}
	st, err := half.State()
	if err != nil {
		f.Fatal(err)
	}
	for _, buckets := range []string{
		`[{"exp":-1073741824,"w":1},{"exp":1073741824,"w":1}]`,
		`[{"exp":3,"w":0},{"exp":9,"w":2}]`,
	} {
		f.Add(editState(f, st, map[string]any{"sizes": sizesWithBuckets(f, st, buckets)}))
	}
	f.Add([]byte(`{"v":1,"window":5,"cur":3}`))
	f.Add([]byte(`{"v":3,"window":5,"cur":-9000000000000000000,"ring":[1,0,0,0,0,0,0,0],"ring_top":0}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		o := New(fuzzOptions())
		if o.Restore(data) != nil {
			return
		}
		s1, err := o.State()
		if err != nil {
			t.Fatalf("accepted state does not re-serialize: %v", err)
		}
		back := New(fuzzOptions())
		if err := back.Restore(s1); err != nil {
			t.Fatalf("canonical state rejected: %v\n%s", err, s1)
		}
		if s2, err := back.State(); err != nil || !bytes.Equal(s1, s2) {
			t.Fatalf("state round-trip not byte-identical:\n%s\n%s", s1, s2)
		}
		tEnd := float64(o.cur+1) * o.opt.Window
		for _, tm := range []float64{tEnd - 1, tEnd + 2, 1, tEnd + 7*o.opt.Window, math.NaN(), math.Inf(1), tEnd} {
			o.ObserveConn(trace.Conn{Start: tm, Proto: trace.WWW, BytesResp: 100})
		}
		o.Flush()
		s3, err := o.State()
		if err != nil {
			t.Fatalf("state after observing: %v", err)
		}
		if err := New(fuzzOptions()).Restore(s3); err != nil {
			t.Fatalf("state after observing rejected: %v", err)
		}
	})
}
