package stats

import (
	"math/cmplx"

	"wantraffic/internal/fft"
)

// AutocorrelationFFT computes the sample autocorrelation function
// r(0..maxLag) in O(n log n) via the Wiener–Khinchin theorem:
// the inverse transform of the periodogram of the zero-padded,
// mean-removed series yields the autocovariances. It matches
// Autocorrelation at every lag to floating-point accuracy and is the right tool
// for the long count processes of the Section VII analyses.
func AutocorrelationFFT(xs []float64, maxLag int) []float64 {
	n := len(xs)
	if maxLag < 0 {
		panic("stats: negative lag")
	}
	if n == 0 {
		return make([]float64, maxLag+1)
	}
	if maxLag > n-1 {
		maxLag = n - 1
	}
	m := Mean(xs)
	// Zero-pad to at least 2n to make the circular convolution linear.
	size := 1
	for size < 2*n {
		size <<= 1
	}
	buf := make([]complex128, size)
	for i, v := range xs {
		buf[i] = complex(v-m, 0)
	}
	spec := fft.Forward(buf)
	for i := range spec {
		a := cmplx.Abs(spec[i])
		spec[i] = complex(a*a, 0)
	}
	acov := fft.Inverse(spec)
	out := make([]float64, maxLag+1)
	den := real(acov[0])
	if den == 0 {
		return out
	}
	for k := 0; k <= maxLag; k++ {
		out[k] = real(acov[k]) / den
	}
	return out
}
