package stream

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"sort"
)

// Log2Hist bins positive observations into logarithmic buckets
// [2^k, 2^(k+1)) keyed by the integer exponent k — the streaming
// counterpart of the log-spaced stats.NewLogHistogram views behind
// Figs. 3 and 8, with buckets pinned to powers of two so shard merges
// are exact integer adds regardless of the data range each shard saw.
// Non-positive observations (interarrival ties, zero-byte records)
// land in a dedicated bucket rather than distorting the scale.
//
// Memory is O(distinct exponents) ≤ 2098 for float64, independent of
// stream length; counts are exact (property-tested against a direct
// batch binning).
type Log2Hist struct {
	counts map[int]int64
	nonPos int64
	total  int64
}

// NewLog2Hist returns an empty histogram.
func NewLog2Hist() *Log2Hist { return &Log2Hist{counts: make(map[int]int64)} }

// Count returns the number of observations, including non-positive
// ones.
func (h *Log2Hist) Count() int64 { return h.total }

// NonPositive returns the count of observations ≤ 0 (or NaN).
func (h *Log2Hist) NonPositive() int64 { return h.nonPos }

// Exponent returns the bucket key of a positive observation:
// k such that 2^k ≤ x < 2^(k+1).
func Exponent(x float64) int { return math.Ilogb(x) }

// ObserveMany folds a batch in — exact integer bucket adds.
func (h *Log2Hist) ObserveMany(xs []float64) {
	for _, x := range xs {
		h.total++
		if !(x > 0) || math.IsInf(x, 1) {
			h.nonPos++
			continue
		}
		h.counts[Exponent(x)]++
	}
}

// BucketCount returns the count of bucket [2^k, 2^(k+1)).
func (h *Log2Hist) BucketCount(k int) int64 { return h.counts[k] }

// Bucket is one populated histogram bucket.
type Bucket struct {
	Exp   int     `json:"exp"` // bucket is [2^exp, 2^(exp+1))
	Count int64   `json:"n"`
	Lo    float64 `json:"-"`
	Hi    float64 `json:"-"`
}

// Buckets returns the populated buckets in ascending exponent order
// with their edges materialized.
func (h *Log2Hist) Buckets() []Bucket {
	out := make([]Bucket, 0, len(h.counts))
	for k, n := range h.counts {
		out = append(out, Bucket{Exp: k, Count: n, Lo: math.Ldexp(1, k), Hi: math.Ldexp(1, k+1)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Exp < out[j].Exp })
	return out
}

// CDFBelow returns the fraction of observations below 2^k,
// non-positive observations counted below everything.
func (h *Log2Hist) CDFBelow(k int) float64 {
	if h.total == 0 {
		return 0
	}
	c := h.nonPos
	for e, n := range h.counts {
		if e < k {
			c += n
		}
	}
	return float64(c) / float64(h.total)
}

// Merge adds another histogram's buckets — exact and commutative.
func (h *Log2Hist) Merge(o *Log2Hist) error {
	if o == h {
		h.total *= 2
		h.nonPos *= 2
		for k := range h.counts {
			h.counts[k] *= 2
		}
		return nil
	}
	h.total += o.total
	h.nonPos += o.nonPos
	for k, n := range o.counts {
		h.counts[k] += n
	}
	return nil
}

// clone deep-copies the histogram.
func (h *Log2Hist) clone() *Log2Hist {
	c := *h
	c.counts = maps.Clone(h.counts)
	return &c
}

// appendState appends the histogram section: the non-positive and
// total tallies, then the populated buckets in ascending exponent
// order, each a zig-zag exponent and its count.
func (h *Log2Hist) appendState(b []byte) []byte {
	b = appendUint(b, h.nonPos)
	b = appendUint(b, h.total)
	b = binary.AppendUvarint(b, uint64(len(h.counts)))
	for _, bk := range h.Buckets() {
		b = binary.AppendVarint(b, int64(bk.Exp))
		b = appendUint(b, bk.Count)
	}
	return b
}

// readState replaces the histogram from its state section. Buckets
// must be what appendState writes: strictly ascending exponents of
// finite positive float64s, each holding at least one observation,
// summing with the non-positive tally to the total.
func (h *Log2Hist) readState(in *decoder) error {
	nonPos, total := in.count(), in.count()
	n := in.length(2)
	if in.err != nil {
		return in.err
	}
	if n > maxExp-minExp+1 {
		return fmt.Errorf("stream: log2hist state claims %d buckets", n)
	}
	counts := make(map[int]int64, n)
	left := total - nonPos
	prev := int64(math.MinInt64)
	for i := 0; i < n; i++ {
		k, c := in.varint(), in.count()
		if in.err != nil {
			return in.err
		}
		if k <= prev || k < minExp || k > maxExp || c < 1 || c > left {
			return fmt.Errorf("stream: log2hist bucket %d (count %d) out of order, empty or past the total", k, c)
		}
		counts[int(k)] = c
		left -= c
		prev = k
	}
	if nonPos > total || left != 0 {
		return fmt.Errorf("stream: log2hist buckets and %d non-positive do not sum to the total %d", nonPos, total)
	}
	*h = Log2Hist{counts: counts, nonPos: nonPos, total: total}
	return nil
}
