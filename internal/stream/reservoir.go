package stream

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// DefaultReservoirSize is the default sample capacity.
const DefaultReservoirSize = 1024

// Reservoir keeps a uniform random sample of up to k observations
// from an unbounded stream (Vitter's Algorithm R), seeded so a given
// (seed, observation sequence) pair always yields the same sample.
//
// Merge draws the combined sample from the two parents in proportion
// to their stream sizes, without replacement within each parent. The
// merge RNG is seeded deterministically from both parents' seeds and
// counts, so Merge is a pure function of the two states; like every
// cross-shard reduction it is canonicalized by MergeSketches rather
// than being order-independent itself.
type Reservoir struct {
	k      int
	seed   int64
	n      int64
	sample []float64
	// rng is nil until a draw needs it; replay then rebuilds it from
	// (seed, n). A restored or cloned reservoir that is only merged
	// never pays for the replay.
	rng *rand.Rand
}

// NewReservoir returns an empty reservoir holding up to k samples
// (k < 1 selects DefaultReservoirSize).
func NewReservoir(k int, seed int64) *Reservoir {
	if k < 1 {
		k = DefaultReservoirSize
	}
	return &Reservoir{k: k, seed: seed}
}

// Count returns the number of observations seen (not kept).
func (r *Reservoir) Count() int64 { return r.n }

// Cap returns the sample capacity k.
func (r *Reservoir) Cap() int { return r.k }

// Sample returns the current sample in reservoir order. The returned
// slice aliases internal state; callers must not modify it.
func (r *Reservoir) Sample() []float64 { return r.sample }

// ObserveMany folds a batch in (Algorithm R): one RNG draw per
// observation past the k-th, so the sample depends only on the seed
// and the observation sequence, not on the batch boundaries.
func (r *Reservoir) ObserveMany(xs []float64) {
	i := 0
	for ; i < len(xs) && len(r.sample) < r.k; i++ {
		r.n++
		r.sample = append(r.sample, xs[i])
	}
	if i < len(xs) && r.rng == nil {
		r.rng = r.replay()
	}
	for ; i < len(xs); i++ {
		r.n++
		if j := r.rng.Int63n(r.n); j < int64(r.k) {
			r.sample[j] = xs[i]
		}
	}
}

// Merge combines another reservoir of the same capacity: each slot of
// the merged sample is drawn from parent A with probability nA/(nA+nB)
// (without replacement within each parent), preserving uniformity
// when both parents are uniform samples of disjoint streams.
func (r *Reservoir) Merge(o *Reservoir) error {
	if o.k != r.k {
		return fmt.Errorf("stream: merging reservoirs with different capacities (%d vs %d)", o.k, r.k)
	}
	if o.n == 0 {
		return nil
	}
	if r.n == 0 {
		r.n = o.n
		r.sample = append(r.sample[:0], o.sample...)
		// Reseed so the continuation differs from the parent's but
		// stays a pure function of both states.
		r.rng = rand.New(rand.NewSource(mergeSeed(r.seed, r.n, o.seed, o.n)))
		return nil
	}
	a := append([]float64(nil), r.sample...)
	b := append([]float64(nil), o.sample...)
	rng := rand.New(rand.NewSource(mergeSeed(r.seed, r.n, o.seed, o.n)))
	merged := make([]float64, 0, min(r.k, len(a)+len(b)))
	nA, nB := r.n, o.n
	for len(merged) < r.k && (len(a) > 0 || len(b) > 0) {
		takeA := len(b) == 0
		if len(a) > 0 && len(b) > 0 {
			takeA = rng.Int63n(nA+nB) < nA
		}
		if takeA {
			i := rng.Intn(len(a))
			merged = append(merged, a[i])
			a[i] = a[len(a)-1]
			a = a[:len(a)-1]
		} else {
			i := rng.Intn(len(b))
			merged = append(merged, b[i])
			b[i] = b[len(b)-1]
			b = b[:len(b)-1]
		}
	}
	r.n += o.n
	r.sample = merged
	r.rng = rng
	return nil
}

// mergeSeed derives the deterministic RNG seed of a merge from both
// parents' identities (an FNV-style mix).
func mergeSeed(seedA, nA, seedB, nB int64) int64 {
	h := uint64(1469598103934665603)
	for _, v := range []int64{seedA, nA, seedB, nB} {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return int64(h & (1<<62 - 1))
}

// replay returns the RNG an unmerged reservoir of n observations has
// consumed. math/rand exposes no RNG state, but the draw sequence of
// an unmerged reservoir is fully determined by (seed, n): Algorithm R
// consumes exactly one Int63n(m) per observation m = k+1..n. Replaying
// it against a fresh seed-keyed source reconstructs the exact RNG
// position, so a sketch checkpointed mid-stream and restored continues
// byte-identically to the uninterrupted original (the crash-recovery
// invariant the distributed workers rely on). Post-merge reservoirs
// follow a merge-seeded trajectory instead; they are only ever
// serialized as final results, never resumed into.
func (r *Reservoir) replay() *rand.Rand {
	if r.n-int64(r.k) > maxReplayDraws {
		// A forged or astronomically large state would make the replay
		// unbounded; fall back to a deterministic reseed. Real shard
		// streams sit far below the cap.
		return rand.New(rand.NewSource(mergeSeed(r.seed, r.n, r.seed, r.n)))
	}
	rng := rand.New(rand.NewSource(r.seed))
	for m := int64(r.k) + 1; m <= r.n; m++ {
		rng.Int63n(m)
	}
	return rng
}

// maxReplayDraws bounds replay (~1s of draws); states past it — none
// produced by real ingest — lose continuation exactness but stay
// deterministic.
const maxReplayDraws = 1 << 27

// clone deep-copies the sample and leaves the RNG to replay, so the
// copy continues exactly as a restore of the reservoir's state would.
func (r *Reservoir) clone() *Reservoir {
	return &Reservoir{k: r.k, seed: r.seed, n: r.n, sample: append([]float64(nil), r.sample...)}
}

// appendState appends the reservoir section: capacity, zig-zag seed,
// observation count and the sample. The RNG is not stored; replay
// rebuilds it.
func (r *Reservoir) appendState(b []byte) []byte {
	b = appendUint(b, int64(r.k))
	b = binary.AppendVarint(b, r.seed)
	b = appendUint(b, r.n)
	return appendFloats(b, r.sample)
}

// readState replaces the reservoir from its state section, which must
// hold min(k, n) samples.
func (r *Reservoir) readState(in *decoder) error {
	k, seed, n := in.count(), in.varint(), in.count()
	sample := in.floats()
	if in.err != nil {
		return in.err
	}
	if k < 1 || k > math.MaxInt || int64(len(sample)) != min(k, n) {
		return fmt.Errorf("stream: reservoir state k=%d n=%d holds %d samples", k, n, len(sample))
	}
	*r = Reservoir{k: int(k), seed: seed, n: n, sample: sample}
	return nil
}
