// Package stream is the one-pass, bounded-memory analytics layer: a
// library of deterministic, mergeable accumulators (exact moments,
// ε-approximate quantiles, seedable reservoir samples, log₂
// histograms, and the fine-bin count series behind both the
// Appendix-A window counts and the Section VII variance-time
// pipeline) plus a sharded ingestion pipeline that feeds them from a
// trace scanner (internal/trace) without ever materializing the
// record slice.
//
// Every analysis in the paper is, at heart, a statistic of an event
// stream; the batch implementations in internal/stats load the whole
// trace first, which caps them at available memory. The accumulators
// here ingest an unbounded stream in O(1) (or O(bins)) memory and
// merge across shards, the shape Alasmar et al. use to fit volume
// distributions over multi-terabyte captures and the scale Clegg et
// al. demand of trustworthy Hurst estimation (PAPERS.md).
//
// # The accumulator contract
//
// Each accumulator (Moments, GK, Log2Hist, Reservoir, AggVar) has the
// same shape without sharing an interface: ObserveMany folds a batch
// of observations in, Count reports how many were folded, and Merge
// folds another accumulator of its own type into the receiver. A
// Sketch bundles them per trace and is the unit that serializes:
// State writes one versioned binary document (codec.go) and
// RestoreSketch reads it back, allocating nothing for a length the
// input cannot back (a count series' bins only once its tokens are
// checked) and checking that the parts agree with each other. Two sketches with
// equal state produce byte-identical State output,
// RestoreSketch(State()) is an exact round-trip, and Clone is the same
// round-trip done in memory.
//
// # Determinism rules (DESIGN.md §10)
//
//   - Within one accumulator, results are a pure function of the
//     observation sequence (and the seed, for Reservoir), whatever
//     the batch boundaries.
//   - Merge(a, b) is a pure function of both states, but — like any
//     floating-point reduction — not bitwise associative. Cross-shard
//     reductions therefore canonicalize: MergeSketches folds shards
//     in ascending shard index regardless of arrival order, so any
//     permutation of the same shard states yields byte-identical
//     merged state.
//   - Integer statistics (counts, histogram buckets, bin counts,
//     reservoir contents) are exact and merge exactly; floating
//     moments match the batch internal/stats results to documented
//     tolerance, and quantiles carry an explicit rank-error bound ε.
package stream

import (
	"encoding/json"
	"fmt"
)

// decodeState parses one JSON state document of the named kind.
func decodeState[S any](kind string, data []byte) (S, error) {
	var st S
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("stream: corrupt %s state: %w", kind, err)
	}
	return st, nil
}
