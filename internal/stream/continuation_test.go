package stream

import (
	"bytes"
	"math/rand"
	"testing"
)

// These tests pin the crash-recovery invariant the distributed
// workers rely on: State is a non-mutating, exact capture, so
//
//	observe(a) ; State/Restore ; observe(b)  ==  observe(a+b)
//
// byte-for-byte, at ANY cut point — and merely serializing (a
// periodic upload, a monitor peek) never changes the bytes a sketch
// eventually produces.

func contObs(n int) []float64 {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, n)
	t := 0.0
	for i := range xs {
		t += rng.ExpFloat64()
		xs[i] = t // monotone times work for aggvar, generic for the rest
	}
	return xs
}

func TestAccumulatorContinuationExact(t *testing.T) {
	xs := contObs(3000)
	cuts := []int{0, 1, 17, 64, 99, 100, 512, 1500, 2999, 3000}
	for _, k := range accKinds {
		kind, mk := k.name, k.fresh
		straight := mk()
		straight.ObserveMany(xs)
		want, err := straight.encode()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for _, cut := range cuts {
			acc := mk()
			acc.ObserveMany(xs[:cut])
			mid, err := acc.encode()
			if err != nil {
				t.Fatalf("%s cut %d: %v", kind, cut, err)
			}
			// The capture must not disturb the original's continuation.
			restored := mk()
			if err := restored.decode(mid); err != nil {
				t.Fatalf("%s cut %d: restore: %v", kind, cut, err)
			}
			for _, trail := range []struct {
				name string
				acc  testAcc
			}{{"original-after-state", acc}, {"restored", restored}} {
				trail.acc.ObserveMany(xs[cut:])
				got, err := trail.acc.encode()
				if err != nil {
					t.Fatalf("%s cut %d %s: %v", kind, cut, trail.name, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: %s at cut %d diverges from the uninterrupted run", kind, trail.name, cut)
				}
			}
		}
	}
}

// TestSketchContinuationExact is the same invariant at the Sketch
// level, through ObserveBatch and across several serialize points —
// the exact shape of a worker checkpointing every UploadEvery records.
func TestSketchContinuationExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	obs := make([]Obs, 4000)
	tm := 0.0
	for i := range obs {
		gap := rng.ExpFloat64() * 2
		tm += gap
		obs[i] = Obs{Time: tm, Value: float64(rng.Int63n(1 << 20)), Duration: rng.ExpFloat64() * 10}
		if i > 0 {
			obs[i].Gap, obs[i].HasGap = gap, true
		}
	}
	cfg := Config{Seed: 31}

	straight, err := NewSketch(ConnSketch, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	straight.ObserveBatch(obs)
	want, err := straight.State()
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: serialize every 700 observations, restore at one
	// random cut, keep going.
	acc, err := NewSketch(ConnSketch, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var resumeAt = 2100
	var resumed *Sketch
	for i := 0; i < len(obs); i += 700 {
		end := i + 700
		if end > len(obs) {
			end = len(obs)
		}
		acc.ObserveBatch(obs[i:end])
		state, err := acc.State()
		if err != nil {
			t.Fatal(err)
		}
		if end == resumeAt {
			if resumed, err = RestoreSketch(state); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := acc.State()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("periodic serialization changed the final sketch bytes")
	}

	resumed.ObserveBatch(obs[resumeAt:])
	got, err = resumed.State()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("checkpoint-restored sketch diverges from the uninterrupted run")
	}
}
