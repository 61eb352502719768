package stream

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// allocDuring returns the bytes f allocates.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRestoreSketchBoundsLengths: a state of a few dozen bytes that
// claims a huge length is rejected before anything is allocated for
// it, and malformed varints and trailing bytes are rejected. A series
// may legitimately claim up to MaxWindows bins in a few bytes (one
// empty-bin run), so its bins are allocated only once its tokens have
// been checked: claiming MaxWindows bins with no tokens, or with a
// run that stops short, allocates nothing for them. The GK,
// reservoir and trailing-byte cases go through the section decoders
// RestoreSketch runs, because every sketch state carries fixed-size
// sections ahead of them; a whole state with one trailing byte is
// checked too.
func TestRestoreSketchBoundsLengths(t *testing.T) {
	series := func(bins uint64) []byte {
		b := appendFloat(appendFloat(nil, 1), 0)
		b = append(b, 0, 0, 0) // early, late, total
		return binary.AppendUvarint(b, bins)
	}
	gk := binary.AppendUvarint(appendUint(appendFloat(nil, DefaultEpsilon), 1<<40), 1<<40)
	reservoir := binary.AppendUvarint(appendUint(binary.AppendVarint(appendUint(nil, 1<<60), 1), 1<<60), 1<<60)
	header := forgedHeader(ConnSketch, 0, 1)
	truncated := append(append([]byte(nil), header...), series(1000)...)
	emptyState, err := NewSketch(PacketSketch, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := emptyState.State()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		data   []byte
		decode func([]byte) error
		want   string
	}{
		{"MaxWindows+1 bins", append(header, series(MaxWindows+1)...), restoreErr, "bins (limit"},
		{"MaxWindows bins, no tokens", append(header, series(MaxWindows)...), restoreErr, "truncated varint"},
		{"MaxWindows bins, cut after a run", binary.AppendUvarint(append(header, series(MaxWindows)...), (MaxWindows-2)<<1|1), restoreErr, "truncated varint"},
		{"2^40 GK tuples", gk, NewGK(DefaultEpsilon).decode, "exceeds the"},
		{"2^60 reservoir samples", reservoir, NewReservoir(1, 1).decode, "exceeds the"},
		{"truncated mid-varint", truncated[:len(truncated)-1], restoreErr, "truncated varint"},
		{"non-minimal varint", []byte("WTSK\x83\x00"), restoreErr, "non-minimal varint"},
		{"trailing bytes", append(series(0), 0), NewAggVar(1, 0).decode, "trailing bytes"},
		{"whole state, trailing byte", append(whole, 0), restoreErr, "trailing bytes"},
	} {
		if tc.name != "whole state, trailing byte" && len(tc.data) >= 64 {
			t.Fatalf("%s: %d-byte state, want under 64", tc.name, len(tc.data))
		}
		var err error
		if alloc := allocDuring(func() { err = tc.decode(tc.data) }); alloc >= 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes", tc.name, alloc)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := RestoreSketch(whole); err != nil {
		t.Fatalf("the whole state itself is rejected: %v", err)
	}
}

// TestRestoreSeriesRejectsBadTokens: a series' bin tokens must expand
// to exactly its bin count and binned events, with each run of empty
// bins folded whole.
func TestRestoreSeriesRejectsBadTokens(t *testing.T) {
	series := func(total int64, bins int, tokens ...uint64) []byte {
		b := appendFloat(appendFloat(nil, 1), 0)
		b = appendUint(append(b, 0, 0), total) // early, late, total
		b = appendUint(b, int64(bins))
		for _, tok := range tokens {
			b = binary.AppendUvarint(b, tok)
		}
		return b
	}
	run := func(n uint64) uint64 { return (n-1)<<1 | 1 }
	count := func(c uint64) uint64 { return (c - 1) << 1 }
	a := NewAggVar(1, 0)
	if err := a.decode(series(5, 4, count(2), run(2), count(3))); err != nil {
		t.Fatalf("canonical series rejected: %v", err)
	}
	if got := a.Counts(); len(got) != 4 || got[0] != 2 || got[1] != 0 || got[2] != 0 || got[3] != 3 {
		t.Fatalf("decoded counts %v, want [2 0 0 3]", got)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"run after run", series(1, 3, run(1), run(1), count(1)), "not a canonical run"},
		{"run past the bins", series(0, 2, run(3)), "not a canonical run"},
		{"count past the events", series(1, 1, count(2)), "exceeds the series' 1 binned events"},
		{"counts short of the events", series(2, 1, count(1)), "bin counts sum to 1"},
		{"tokens past the bins", series(1, 1, count(1), count(1)), "trailing bytes"},
		{"non-minimal token", append(series(1, 1), 0x80, 0x00), "non-minimal varint"},
		{"truncated token", append(series(1, 1), 0x80), "truncated varint"},
	} {
		if err := NewAggVar(1, 0).decode(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func restoreErr(data []byte) error {
	_, err := RestoreSketch(data)
	return err
}

// forgeReplayPast returns a restored sketch whose value and duration
// reservoirs claim more draws than maxReplayDraws: every count of
// those dimensions and of the record stream is raised by the same
// amount, the series tallying the extra records as early events.
func forgeReplayPast(t *testing.T, s *Sketch) *Sketch {
	t.Helper()
	extra := int64(maxReplayDraws) + 1
	c, err := s.Clone()
	if err != nil {
		t.Fatal(err)
	}
	c.records += extra
	c.aggVar.total += extra
	c.aggVar.early += extra
	for _, name := range []string{"bytes", "duration"} {
		d := c.dims[name]
		d.Moments.n += extra
		d.Quant.n += extra
		d.Hist.total += extra
		d.Hist.nonPos += extra
		d.Sample.n += extra
	}
	st, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	forged, err := RestoreSketch(st)
	if err != nil {
		t.Fatalf("forged state rejected: %v", err)
	}
	return forged
}

// TestCloneMatchesStateRoundTrip: Clone is an in-memory deep copy
// that serializes to the same bytes as its original and continues
// exactly as RestoreSketch(State()) does, for an unmerged shard
// sketch, a MergeSketches output and a state past maxReplayDraws. A
// restored or cloned reservoir replays its RNG only when it draws.
func TestCloneMatchesStateRoundTrip(t *testing.T) {
	cfg := Config{Seed: 5, ReservoirSize: 16}
	rng := rand.New(rand.NewSource(8))
	tm := 0.0
	batch := func(n int) []Obs {
		obs := make([]Obs, n)
		for i := range obs {
			gap := rng.ExpFloat64()
			tm += gap
			obs[i] = Obs{Time: tm, Value: float64(rng.Int63n(1 << 12)), Duration: rng.ExpFloat64(), Gap: gap, HasGap: true}
		}
		return obs
	}
	shard := func(i int) *Sketch {
		s, err := NewSketch(ConnSketch, i, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.ObserveBatch(batch(300))
		return s
	}
	unmerged := shard(1)
	merged, err := MergeSketches([]*Sketch{shard(2), shard(0), unmerged})
	if err != nil {
		t.Fatal(err)
	}
	further := [][]Obs{batch(5), batch(200), batch(1)}
	for _, tc := range []struct {
		name string
		s    *Sketch
	}{
		{"unmerged", unmerged},
		{"merged", merged},
		{"past maxReplayDraws", forgeReplayPast(t, unmerged)},
	} {
		want, err := tc.s.State()
		if err != nil {
			t.Fatal(err)
		}
		clone, err := tc.s.Clone()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreSketch(want)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, r := range []*Sketch{clone, restored} {
			for _, name := range r.DimNames() {
				if r.dims[name].Sample.rng != nil {
					t.Fatalf("%s: %s reservoir replayed before its first draw", tc.name, name)
				}
			}
		}
		for i := 0; i <= len(further); i++ {
			cs, _ := clone.State()
			rs, _ := restored.State()
			if !bytes.Equal(cs, rs) || (i == 0 && !bytes.Equal(cs, want)) {
				t.Fatalf("%s: clone and restore differ after %d further batches", tc.name, i)
			}
			if i < len(further) {
				clone.ObserveBatch(further[i])
				restored.ObserveBatch(further[i])
			}
		}
		if after, _ := tc.s.State(); !bytes.Equal(after, want) {
			t.Fatalf("%s: observing the clone changed its original", tc.name)
		}
	}
	// An unmerged sketch's clone also continues as the original does.
	clone, err := unmerged.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Sketch{unmerged, clone} {
		for _, b := range further {
			s.ObserveBatch(b)
		}
	}
	if a, b := mustSketchState(t, unmerged), mustSketchState(t, clone); !bytes.Equal(a, b) {
		t.Fatal("an unmerged clone diverges from its original")
	}
}

func mustSketchState(t *testing.T, s *Sketch) []byte {
	t.Helper()
	st, err := s.State()
	if err != nil {
		t.Fatal(err)
	}
	return st
}
