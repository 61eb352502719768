package stream

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary state codec (DESIGN.md §10, "Sketch state v3"). Every
// accumulator appends its section with appendState and reads it back
// through a decoder. The primitives:
//
//   - integers and lengths are uvarints (zig-zag for the signed ones),
//     and a decoder accepts only their minimal encoding, so each state
//     has one byte form;
//   - floats are their raw IEEE-754 bits, 8 bytes little-endian, which
//     carry NaN and ±Inf as they are;
//   - a length prefix is checked against the bytes that remain before
//     anything is allocated for it. A count series is the exception:
//     one empty-bin run token can stand for up to MaxWindows bins, so
//     its bins are allocated only after every token has been checked.

// appendFloat appends v's IEEE-754 bits.
func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// appendFloats appends a length-prefixed float slice.
func appendFloats(b []byte, xs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = appendFloat(b, x)
	}
	return b
}

// appendUint appends a non-negative integer as a uvarint.
func appendUint(b []byte, v int64) []byte { return binary.AppendUvarint(b, uint64(v)) }

// decoder reads one state document. The first malformed field sets
// err; every later read returns zero, so a section decodes straight
// through and checks err once.
type decoder struct {
	b   []byte
	err error
}

func (in *decoder) fail(format string, args ...any) {
	if in.err == nil {
		in.err = fmt.Errorf("stream: corrupt sketch state: "+format, args...)
	}
}

// uvarint reads one minimally encoded uvarint.
func (in *decoder) uvarint() uint64 {
	if in.err != nil {
		return 0
	}
	v, n := binary.Uvarint(in.b)
	switch {
	case n == 0:
		in.fail("truncated varint")
	case n < 0:
		in.fail("varint overflows 64 bits")
	case n > 1 && in.b[n-1] == 0:
		// A multi-byte varint ending in a zero byte has a shorter form.
		in.fail("non-minimal varint")
	default:
		in.b = in.b[n:]
		return v
	}
	return 0
}

// varint reads a zig-zag signed integer (binary.AppendVarint's form).
func (in *decoder) varint() int64 {
	u := in.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

// count reads a non-negative int64.
func (in *decoder) count() int64 {
	u := in.uvarint()
	if u > math.MaxInt64 {
		in.fail("count %d overflows int64", u)
		return 0
	}
	return int64(u)
}

// float reads one IEEE-754 float64.
func (in *decoder) float() float64 {
	if in.err != nil {
		return 0
	}
	if len(in.b) < 8 {
		in.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(in.b))
	in.b = in.b[8:]
	return v
}

// length reads a length prefix of items encoded in at least size bytes
// each, rejecting one the remaining bytes cannot hold.
func (in *decoder) length(size int) int {
	u := in.uvarint()
	if in.err == nil && u > uint64(len(in.b)/size) {
		in.fail("length %d exceeds the %d bytes left", u, len(in.b))
		return 0
	}
	return int(u)
}

// floats reads a length-prefixed float slice (nil when empty).
func (in *decoder) floats() []float64 {
	n := in.length(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(in.b[8*i:]))
	}
	in.b = in.b[8*n:]
	return out
}

// str reads a length-prefixed string.
func (in *decoder) str() string {
	n := in.length(1)
	s := string(in.b[:n])
	in.b = in.b[n:]
	return s
}

// finish rejects trailing bytes and returns the first decode error.
func (in *decoder) finish() error {
	if in.err == nil && len(in.b) > 0 {
		in.fail("%d trailing bytes", len(in.b))
	}
	return in.err
}

// appendSeries writes a count series: width and horizon, the early,
// late and total tallies, the bin count, then one token per run of
// bins. A bin holding c ≥ 1 events is the token (c−1)<<1; a maximal
// run of r ≥ 1 empty bins is the token (r−1)<<1 | 1. Sparse day-scale
// series are mostly empty bins and small counts, so most tokens fit
// one byte and a quiet stretch of any length fits a few.
func appendSeries(b []byte, width, horizon float64, early, late, total int64, counts []int64) []byte {
	b = appendFloat(b, width)
	b = appendFloat(b, horizon)
	b = appendUint(b, early)
	b = appendUint(b, late)
	b = appendUint(b, total)
	b = appendUint(b, int64(len(counts)))
	for i := 0; i < len(counts); {
		tok := uint64(counts[i]-1) << 1
		n := 1
		if counts[i] == 0 {
			for i+n < len(counts) && counts[i+n] == 0 {
				n++
			}
			tok = uint64(n-1)<<1 | 1
		}
		b = binary.AppendUvarint(b, tok)
		i += n
	}
	return b
}

// readSeriesCounts decodes a series' bin tokens into bins counts
// summing to exactly sum. A first pass checks every token without
// allocating, so a short or garbage state that claims many bins fails
// before the bins are allocated: it rejects a malformed varint, a run
// of empty bins that follows another (appendSeries folds each run
// whole) and a run or count past what remains. The second pass expands
// the checked tokens. Both passes are branch-free in the token's kind,
// which follows no pattern a branch predictor could learn.
func (in *decoder) readSeriesCounts(bins int, sum int64) []int64 {
	if in.err != nil {
		return nil
	}
	b, left := in.b, uint64(sum)
	var prevRun uint64
	for i := 0; i < bins; {
		tok, w := binary.Uvarint(b)
		if w <= 0 || w > 1 && b[w-1] == 0 {
			in.b = b
			in.uvarint() // reports the malformed varint
			return nil
		}
		b = b[w:]
		run := tok & 1
		n, mask := tok>>1+1, -run
		events, step := n&^mask, n&mask|1&^mask
		if events > left || step > uint64(bins-i) || prevRun&run != 0 {
			in.fail("token %d at bin %d of %d is not a canonical run or exceeds the series' %d binned events", tok, i, bins, sum)
			return nil
		}
		left -= events
		i += int(step)
		prevRun = run
	}
	if left != 0 {
		in.fail("bin counts sum to %d, the series bins %d events", uint64(sum)-left, sum)
		return nil
	}
	counts := make([]int64, bins)
	for i, t := 0, in.b[:len(in.b)-len(b)]; len(t) > 0; {
		tok, w := binary.Uvarint(t)
		t = t[w:]
		n, mask := tok>>1+1, -(tok & 1)
		counts[i] = int64(n &^ mask)
		i += int(n&mask | 1&^mask)
	}
	in.b = b
	return counts
}
