package stream

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// Decayed keeps the accumulator continuation guarantees (DESIGN.md
// §10): State/Restore at any cut is invisible, and adversarial inputs
// round-trip.

func newTestDecayed() *Decayed { return NewDecayed(1, 30) }

// timedObs yields (time, value) pairs with monotone times and
// heavy-tailed values, plus a few adversarial ones.
func timedObs(n int, seed int64) (ts, xs []float64) {
	rng := rand.New(rand.NewSource(seed))
	ts = make([]float64, n)
	xs = make([]float64, n)
	tm := 0.0
	for i := range ts {
		tm += rng.ExpFloat64() * 0.3
		ts[i] = tm
		switch i % 97 {
		case 13:
			xs[i] = 0 // non-positive: exercises the nonPos path
		case 41:
			xs[i] = -2.5
		default:
			// Pareto-ish: heavy tail so the histogram spans buckets.
			xs[i] = math.Pow(rng.Float64(), -0.9)
		}
	}
	return ts, xs
}

func TestWindowedContinuationExact(t *testing.T) {
	ts, xs := timedObs(3000, 7)
	cuts := []int{0, 1, 17, 64, 99, 100, 512, 1500, 2999, 3000}
	straight := newTestDecayed()
	for i := range ts {
		straight.ObserveAt(ts[i], xs[i])
	}
	want, err := straight.State()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range cuts {
		acc := newTestDecayed()
		for i := 0; i < cut; i++ {
			acc.ObserveAt(ts[i], xs[i])
		}
		mid, err := acc.State()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		restored := newTestDecayed()
		if err := restored.Restore(mid); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		for _, trail := range []struct {
			name string
			acc  *Decayed
		}{{"original-after-state", acc}, {"restored", restored}} {
			for i := cut; i < len(ts); i++ {
				trail.acc.ObserveAt(ts[i], xs[i])
			}
			got, err := trail.acc.State()
			if err != nil {
				t.Fatalf("cut %d %s: %v", cut, trail.name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s at cut %d diverges from the uninterrupted run", trail.name, cut)
			}
		}
	}
}

func TestDecayedHalfLife(t *testing.T) {
	// One observation, then advance exactly one half-life: weight 1/2.
	d := NewDecayed(1, 8)
	d.ObserveAt(0.5, 4)
	if w := d.Weight(); w != 1 {
		t.Fatalf("weight = %g, want 1", w)
	}
	d.AdvanceTo(8.5) // 8 windows of 1 s at halfLife 8 s
	if w := d.Weight(); math.Abs(w-0.5) > 1e-12 {
		t.Fatalf("weight after one half-life = %g, want 0.5", w)
	}
	bs := d.AppendBuckets(nil)
	if len(bs) != 1 || bs[0].Exp != 2 || math.Abs(float64(bs[0].Weight)-0.5) > 1e-12 {
		t.Fatalf("buckets after decay: %+v", bs)
	}
	// The mean is unaffected by pure decay.
	if m := d.Mean(); m != 4 {
		t.Fatalf("mean = %g, want 4", m)
	}
	// Long silence drops the bucket mass below the floor entirely.
	d.AdvanceTo(8 * 40)
	if len(d.AppendBuckets(nil)) != 0 {
		t.Fatalf("buckets not garbage-collected after long silence: %+v", d.AppendBuckets(nil))
	}
}

func TestDecayedTracksRecentRegime(t *testing.T) {
	// Regime A: values near 2^1. Regime B: values near 2^10. With a
	// short half-life the mean should land near regime B's level.
	d := NewDecayed(1, 5)
	tm := 0.0
	for i := 0; i < 500; i++ {
		tm += 0.1
		d.ObserveAt(tm, 2)
	}
	for i := 0; i < 500; i++ {
		tm += 0.1
		d.ObserveAt(tm, 1024)
	}
	if m := d.Mean(); m < 900 {
		t.Fatalf("decayed mean = %g, want close to 1024 (recent regime)", m)
	}
	// An undecayed Welford over the same stream would sit near 513.
}

func TestWindowedAdversarialInputs(t *testing.T) {
	a := newTestDecayed()
	a.ObserveAt(math.NaN(), math.NaN())
	a.ObserveAt(-5, math.Inf(1))
	a.ObserveAt(math.Inf(1), 1) // capped window index
	a.ObserveAt(3, 2)
	if a.Count() != 4 {
		t.Fatalf("count = %d, want 4", a.Count())
	}
	state, err := a.State()
	if err != nil {
		t.Fatalf("state after adversarial inputs: %v", err)
	}
	b := newTestDecayed()
	if err := b.Restore(state); err != nil {
		t.Fatalf("restore after adversarial inputs: %v", err)
	}
	got, err := b.State()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state, got) {
		t.Fatal("adversarial state does not round-trip")
	}
}

func TestWindowedRestoreRejectsCorruption(t *testing.T) {
	cases := map[string]string{
		"decayed-shape":   `{"kind":"decayed","v":1,"state":{"width":0,"half_life":8,"weight":0,"total":0,"buckets":[]}}`,
		"decayed-weight":  `{"kind":"decayed","v":1,"state":{"width":1,"half_life":8,"weight":-1,"total":0,"buckets":[]}}`,
		"decayed-bucket":  `{"kind":"decayed","v":1,"state":{"width":1,"half_life":8,"weight":1,"total":1,"buckets":[{"exp":0,"w":-4}]}}`,
		"mismatched-kind": `{"kind":"moments","v":1,"state":{}}`,
	}
	for name, raw := range cases {
		if err := newTestDecayed().Restore([]byte(raw)); err == nil {
			t.Fatalf("%s: corrupted state accepted", name)
		}
	}
}

// TestDecayedDenseMatchesMap: the dense histogram equals, bit for bit,
// a map of independently decayed weights with the same floor, as the
// occupied exponent range widens at both ends, empties at both ends
// under decay, and empties entirely.
func TestDecayedDenseMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDecayed(1, 4)
	ref := map[int]float64{}
	cur, open := int64(0), false
	tm := 0.0
	for i := 0; i < 20000; i++ {
		switch {
		case i%997 == 0:
			tm += 200 // long silence: every bucket decays away
		case i%50 == 0:
			tm += 10 + rng.Float64()*30
		default:
			tm += rng.ExpFloat64() * 0.5
		}
		x := math.Ldexp(1+rng.Float64(), rng.Intn(60)-30)
		if i%7 == 0 {
			x = math.Ldexp(1, minExp+rng.Intn(maxExp-minExp+1))
		}
		d.ObserveAt(tm, x)
		if w := int64(tm); !open {
			cur, open = w, true
		} else if w > cur {
			g := math.Exp2(-float64(w-cur) * 1 / 4)
			for e, v := range ref {
				if v *= g; v < decayedFloor {
					delete(ref, e)
				} else {
					ref[e] = v
				}
			}
			cur = w
		}
		ref[Exponent(x)]++
		got := d.AppendBuckets(nil)
		if len(got) != len(ref) {
			t.Fatalf("step %d: %d buckets, map reference has %d", i, len(got), len(ref))
		}
		for j, b := range got {
			if j > 0 && b.Exp <= got[j-1].Exp {
				t.Fatalf("step %d: buckets not ascending: %+v", i, got)
			}
			if math.Float64bits(float64(b.Weight)) != math.Float64bits(ref[b.Exp]) {
				t.Fatalf("step %d: bucket %d weighs %v, map reference %v", i, b.Exp, b.Weight, ref[b.Exp])
			}
		}
	}
}

// TestDecayedRestoreBoundsBuckets: Restore accepts only bucket lists
// State can emit — strictly ascending exponents of finite positive
// float64s, weights of at least decayedFloor — and a rejected state
// leaves the sketch as it was. Exponents of ±2³⁰ would otherwise size
// the dense histogram at gigabytes, and a zero weight would not
// survive State(Restore(s)).
func TestDecayedRestoreBoundsBuckets(t *testing.T) {
	d := NewDecayed(1, 8)
	d.ObserveAt(0.5, 3)
	d.ObserveAt(0.7, 1e6)
	st, err := d.State()
	if err != nil {
		t.Fatal(err)
	}
	withBuckets := func(buckets string) []byte {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(st, &m); err != nil {
			t.Fatal(err)
		}
		m["buckets"] = json.RawMessage(buckets)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for name, buckets := range map[string]string{
		"exponent 2^30":    `[{"exp":1073741824,"w":1}]`,
		"exponent -2^30":   `[{"exp":-1073741824,"w":1}]`,
		"exponents ±2^30":  `[{"exp":-1073741824,"w":1},{"exp":1073741824,"w":1}]`,
		"above max":        `[{"exp":1024,"w":1}]`,
		"below min":        `[{"exp":-1075,"w":1}]`,
		"duplicate":        `[{"exp":3,"w":1},{"exp":3,"w":2}]`,
		"unsorted":         `[{"exp":5,"w":1},{"exp":3,"w":1}]`,
		"zero weight":      `[{"exp":3,"w":0}]`,
		"below floor":      `[{"exp":3,"w":1e-10}]`,
		"negative weight":  `[{"exp":3,"w":-4}]`,
		"non-finite":       `[{"exp":3,"w":"+Inf"}]`,
		"zero among valid": `[{"exp":1,"w":1},{"exp":3,"w":0},{"exp":19,"w":1}]`,
	} {
		if err := d.Restore(withBuckets(buckets)); err == nil {
			t.Errorf("%s: state accepted", name)
			continue
		}
		if after, err := d.State(); err != nil || !bytes.Equal(after, st) {
			t.Errorf("%s: rejected restore modified the sketch", name)
		}
	}
	// The extreme exponents themselves are valid and round-trip.
	edge := withBuckets(`[{"exp":-1074,"w":1},{"exp":1023,"w":1e-9}]`)
	if err := d.Restore(edge); err != nil {
		t.Fatalf("extreme exponents rejected: %v", err)
	}
	if bs := d.AppendBuckets(nil); len(bs) != 2 || bs[0].Exp != -1074 || bs[1].Exp != 1023 || bs[1].Weight != 1e-9 {
		t.Fatalf("extreme exponents restored as %+v", bs)
	}
	s1, err := d.State()
	if err != nil {
		t.Fatal(err)
	}
	back := NewDecayed(1, 8)
	if err := back.Restore(s1); err != nil {
		t.Fatal(err)
	}
	if s2, err := back.State(); err != nil || !bytes.Equal(s1, s2) {
		t.Fatalf("extreme exponents do not round-trip:\n%s\n%s", s1, s2)
	}
}
