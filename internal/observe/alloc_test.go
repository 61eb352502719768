package observe

import (
	"runtime"
	"testing"

	"wantraffic/internal/trace"
)

// windowCloseAllocBudget caps the allocations of one window close as
// BenchmarkWindowClose drives it (one record per window, default
// options, full ring). What remains is per-estimate output — the
// ProtoRate map, the Hill bucket slice, the escaping Event — and the
// fresh GK summary for the next window; the count ring, prefix sums
// and variance-time fit reuse buffers the observatory keeps, and no
// goroutine starts.
const windowCloseAllocBudget = 16

// windowCloseByteBudget caps the bytes one such close allocates.
const windowCloseByteBudget = 2048

// TestAllocWindowClose pins the window-close allocation budget.
// Skipped under -race; CI runs it in the alloc-regression job.
func TestAllocWindowClose(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o := New(Options{})
	w := o.Options().Window
	i := 0
	next := func() {
		o.ObserveConn(trace.Conn{Start: (float64(i) + 0.5) * w, Proto: trace.WWW, BytesResp: int64(100 + i%1000)})
		i++
	}
	for i < 2*o.Options().KeepWindows {
		next() // fill the ring and pass warm-up
	}
	if got := testing.AllocsPerRun(200, next); got > windowCloseAllocBudget {
		t.Fatalf("window close allocates %.1f times, budget %d", got, windowCloseAllocBudget)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		next()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > windowCloseByteBudget {
		t.Fatalf("window close allocates %d bytes, budget %d", got, windowCloseByteBudget)
	}
}
