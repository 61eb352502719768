package stream

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// seedStates builds valid serialized sketch states for the fuzz
// corpus: populated conn and packet sketches including non-finite
// observations, both also with a pinned horizon, and an empty one.
func seedStates(t interface{ Fatal(...any) }) [][]byte {
	var out [][]byte
	for _, tc := range []struct {
		kind string
		cfg  Config
	}{
		{ConnSketch, Config{Seed: 7}},
		{PacketSketch, Config{Seed: 7, WindowWidth: 0.5}},
		{ConnSketch, Config{Seed: 7, Horizon: 4}},
		{PacketSketch, Config{Seed: 7, Horizon: 1}},
	} {
		s, err := NewSketch(tc.kind, 1, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		// A few records over about a second keep the seeds to a few KB:
		// the fuzzer minimizes every new interesting input, for up to a
		// minute each on a 15 KB state.
		obs := make([]Obs, 16)
		tm := 0.0
		for i := range obs {
			gap := rng.ExpFloat64() * 0.05
			tm += gap
			obs[i] = Obs{Time: tm, Value: rng.Float64() * 50, Duration: rng.ExpFloat64(), Gap: gap, HasGap: i > 0}
		}
		obs[3].Value, obs[4].Value, obs[5].Time = math.Inf(1), math.NaN(), math.NaN()
		s.ObserveBatch(obs)
		state, err := s.State()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, state)
	}
	empty, err := NewSketch(ConnSketch, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	state, err := empty.State()
	if err != nil {
		t.Fatal(err)
	}
	return append(out, state)
}

// forgedHeader is a v3 sketch state's header — magic, version, kind,
// shard 0, records and window — for hand-built states.
func forgedHeader(kind string, records int64, window float64) []byte {
	b := binary.AppendUvarint([]byte(stateMagic), stateVersion)
	b = binary.AppendUvarint(b, uint64(len(kind)))
	b = append(b, kind...)
	b = binary.AppendVarint(b, 0)
	b = appendUint(b, records)
	return appendFloat(b, window)
}

// FuzzRestore fuzzes RestoreSketch, the decoder of coordinator uploads
// and worker checkpoints. Arbitrary bytes must never panic it; a JSON
// document (an earlier version's state) is always rejected; any
// bytes it accepts must re-serialize canonically (RestoreSketch then
// State, then RestoreSketch of THAT state, reproduces the state
// byte-for-byte); and the restored sketch must survive further
// ingest and a merge with a fresh sketch of its kind.
func FuzzRestore(f *testing.F) {
	seeds := seedStates(f)
	for _, s := range seeds {
		f.Add(s)
	}
	empty := func(width, horizon float64, bins int) []byte {
		return appendSeries(nil, width, horizon, 0, 0, 0, make([]int64, bins))
	}
	f.Add(append(forgedHeader(ConnSketch, 9999, 1), empty(1, 0, 0)...))
	f.Add(append(forgedHeader(PacketSketch, 0, 1), empty(1, 10, 0)...))
	f.Add(append(forgedHeader(ConnSketch, 0, 1), empty(0.3, 0, 4)...))
	f.Add(seeds[0][:len(seeds[0])/2])
	// A v2 JSON state: rejected with the version error.
	f.Add([]byte(`{"v":2,"trace_kind":"conn","records":9999,"window":1,"dims":{},"series":{"width":1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sk, err := RestoreSketch(data)
		if err != nil {
			return // rejected, as long as it didn't panic
		}
		if bytes.HasPrefix(data, []byte("{")) {
			t.Fatal("a JSON state was accepted")
		}
		s1, err := sk.State()
		if err != nil {
			t.Fatalf("restored sketch does not re-serialize: %v", err)
		}
		back, err := RestoreSketch(s1)
		if err != nil {
			t.Fatalf("canonical state rejected: %v", err)
		}
		s2, err := back.State()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s1, s2) {
			t.Fatalf("state round-trip not byte-identical:\n%x\n%x", s1, s2)
		}

		fresh, err := NewSketch(sk.TraceKind(), sk.Shard(), Config{
			WindowWidth: sk.window, AggBinWidth: sk.aggVar.BinWidth(), Horizon: sk.aggVar.horizon,
		})
		if err != nil {
			t.Fatalf("restored sketch's config rejected: %v", err)
		}
		if err := sk.Merge(fresh); err == nil {
			// Folding an empty sketch in is a byte-level no-op.
			if s3, _ := sk.State(); !bytes.Equal(s3, s1) {
				t.Fatal("merging a fresh sketch changed the restored state")
			}
		}
		_ = fresh.Merge(back)
		sk.ObserveBatch([]Obs{{Time: 0.5, Value: 3}, {Time: 1e300, Value: -1, Gap: 2, HasGap: true}})
		_ = sk.Summarize()
		if _, err := sk.State(); err != nil {
			t.Fatalf("sketch does not serialize after ingest: %v", err)
		}
	})
}

// fuzzFill folds n deterministic observations into acc. Values stay
// mostly non-negative so every kind exercises its main path, with a
// sprinkling of negatives and zeros for the drop/non-positive paths.
func fuzzFill(acc testAcc, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 100
		switch i % 17 {
		case 3:
			xs[i] = 0
		case 11:
			xs[i] = -xs[i]
		}
	}
	acc.ObserveMany(xs)
}

// FuzzMerge: for every kind, merging empty is a byte-level no-op,
// merging disjoint streams adds counts, self-merge doubles the count,
// and the merged sketch still round-trips byte-identically.
func FuzzMerge(f *testing.F) {
	f.Add(int64(1), uint16(100), uint16(200))
	f.Add(int64(42), uint16(0), uint16(1))
	f.Add(int64(-7), uint16(2000), uint16(0))
	f.Add(int64(977), uint16(1), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, rawA, rawB uint16) {
		nA, nB := int(rawA)%2048, int(rawB)%2048
		for _, k := range accKinds {
			kind := k.name
			a, b, empty := k.fresh(), k.fresh(), k.fresh()
			fuzzFill(a, seed, nA)
			fuzzFill(b, seed+1, nB)

			before, err := a.encode()
			if err != nil {
				t.Fatal(err)
			}
			if err := a.mergeAcc(empty); err != nil {
				t.Fatalf("%s: merge empty: %v", kind, err)
			}
			after, _ := a.encode()
			if !bytes.Equal(before, after) {
				t.Fatalf("%s: merging an empty sketch changed state", kind)
			}

			if err := a.mergeAcc(b); err != nil {
				t.Fatalf("%s: merge disjoint: %v", kind, err)
			}
			if got, want := a.Count(), int64(nA+nB); got != want {
				t.Fatalf("%s: merged count %d, want %d", kind, got, want)
			}
			if b.Count() != int64(nB) {
				t.Fatalf("%s: merge mutated its argument", kind)
			}

			if err := a.mergeAcc(a); err != nil {
				t.Fatalf("%s: self-merge: %v", kind, err)
			}
			if got, want := a.Count(), int64(2*(nA+nB)); got != want {
				t.Fatalf("%s: self-merged count %d, want %d", kind, got, want)
			}

			s1, err := a.encode()
			if err != nil {
				t.Fatalf("%s: merged state does not serialize: %v", kind, err)
			}
			back := k.fresh()
			if err := back.decode(s1); err != nil {
				t.Fatalf("%s: merged state rejected on restore: %v", kind, err)
			}
			s2, _ := back.encode()
			if !bytes.Equal(s1, s2) {
				t.Fatalf("%s: merged state round-trip not byte-identical", kind)
			}
		}
	})
}
