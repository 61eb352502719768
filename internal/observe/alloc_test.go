package observe

import (
	"runtime"
	"testing"
)

// windowCloseAllocBudget caps the allocations of one window close,
// in both shapes the close benchmarks drive (default options, full
// ring): what remains is per-estimate output — the ProtoRate map and
// the escaping Event. The count ring, prefix sums, variance-time fit,
// Hill bucket buffer, decayed histogram and GK summary reuse memory
// the observatory keeps, and no goroutine starts.
const windowCloseAllocBudget = 3

// windowCloseByteBudget caps the bytes one such close allocates.
const windowCloseByteBudget = 400

// TestAllocWindowClose pins the window-close allocation budget.
// Skipped under -race; CI runs it in the alloc-regression job.
func TestAllocWindowClose(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, wc := range windowCloseCases {
		t.Run(wc.name, func(t *testing.T) {
			o := New(Options{})
			i := 0
			next := func() {
				wc.feed(o, i)
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
		})
	}
}
