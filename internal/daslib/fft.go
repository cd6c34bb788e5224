// Package daslib is DASSA's DAS data analysis library: thread-safe,
// sequential signal-processing kernels whose names and semantics follow the
// MATLAB signal processing toolbox (the paper's Table II). The hybrid
// execution engine (internal/haee) parallelizes these kernels over channels;
// nothing in this package spawns goroutines or holds mutable global state —
// the package-level caches (twiddles, windows, plans) are immutable once
// published.
package daslib

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IFFT computes the inverse DFT with 1/n normalization, matching Das_ifft
// (the paper's Table II). The forward transform is Plan.FFTInto: power-of-
// two lengths use an iterative radix-2 Cooley-Tukey, other lengths
// Bluestein's chirp-z algorithm, so the cost is O(n log n) for every n.
func IFFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	if len(x) == 0 {
		return out
	}
	s := GetScratch()
	PlanFFT(len(x)).IFFTInto(out, x, s)
	PutScratch(s)
	return out
}

// FFTReal transforms a real signal, returning the full complex spectrum
// (Das_fft on real input) — a thin allocating shim over RFFTInto, whose
// even lengths take the packed real-input transform at half the work of a
// complex FFT of the same length.
func FFTReal(x []float64) []complex128 {
	out := make([]complex128, len(x))
	if len(x) == 0 {
		return out
	}
	s := GetScratch()
	RFFTInto(out, x, s)
	PutScratch(s)
	return out
}

// IFFTReal inverts a spectrum known to come from a real signal, returning
// the real signal — a thin allocating shim over IRFFTInto.
func IFFTReal(spec []complex128) []float64 {
	out := make([]float64, len(spec))
	if len(spec) == 0 {
		return out
	}
	s := GetScratch()
	IRFFTInto(out, spec, s)
	PutScratch(s)
	return out
}

// twiddleCache holds precomputed unit-circle factors per transform size.
// DAS pipelines transform the same window length millions of times, so the
// cache pays for itself immediately; entries are immutable once stored.
// A plain RWMutex-guarded map (not sync.Map) keeps the hit path free of
// interface boxing, so lookups cost no allocation.
var twiddleCache = struct {
	sync.RWMutex
	m map[int][]complex128
}{m: map[int][]complex128{}}

// twiddles returns exp(-2πi·k/n) for k in [0, n/2). The returned slice is
// shared and must not be modified.
func twiddles(n int) []complex128 {
	twiddleCache.RLock()
	tw, ok := twiddleCache.m[n]
	twiddleCache.RUnlock()
	if ok {
		return tw
	}
	tw = make([]complex128, n/2)
	for k := range tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		tw[k] = complex(c, s)
	}
	twiddleCache.Lock()
	if have, ok := twiddleCache.m[n]; ok {
		tw = have
	} else {
		twiddleCache.m[n] = tw
	}
	twiddleCache.Unlock()
	return tw
}

// fftPow2 is an in-place iterative radix-2 Cooley-Tukey transform.
// len(x) must be a power of two.
func fftPow2(x []complex128) {
	fftPow2Tw(x, twiddles(len(x)))
}

// fftPow2Tw is fftPow2 with the twiddle table passed in, so plan-driven
// callers skip the cache lookup entirely.
func fftPow2Tw(x []complex128, tw []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size // index step into the full-size twiddle table
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := tw[k*stride]
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// FFTFreqs returns the frequency (Hz) of each DFT bin for a signal of
// length n sampled at rate Hz, with negative frequencies in the upper half
// (MATLAB/NumPy convention).
func FFTFreqs(n int, rate float64) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	df := rate / float64(n)
	half := (n - 1) / 2
	for i := 0; i <= half; i++ {
		out[i] = float64(i) * df
	}
	for i := half + 1; i < n; i++ {
		out[i] = float64(i-n) * df
	}
	return out
}

// fftFreqAbs returns |FFTFreqs(n, rate)[i]| without materializing the table,
// using the exact same arithmetic so band tests agree bit-for-bit.
func fftFreqAbs(i, n int, rate float64) float64 {
	df := rate / float64(n)
	if i <= (n-1)/2 {
		return math.Abs(float64(i) * df)
	}
	return math.Abs(float64(i-n) * df)
}

// checkLen panics with a clear message on impossible internal states.
func checkLen(name string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("daslib: %s: length %d, want %d", name, got, want))
	}
}

// conjScale is the shared IFFT epilogue: x[i] = conj(x[i]) * s.
func conjScale(x []complex128, s float64) {
	cs := complex(s, 0)
	for i, v := range x {
		x[i] = cmplx.Conj(v) * cs
	}
}
