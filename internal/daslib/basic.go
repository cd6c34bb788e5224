package daslib

import (
	"fmt"
	"math"
	"sync"
)

// DemeanInPlace subtracts the mean of x in place.
func DemeanInPlace(x []float64) {
	if len(x) == 0 {
		return
	}
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for i, v := range x {
		x[i] = v - mean
	}
}

// Detrend removes the least-squares straight-line fit from x, matching
// MATLAB's detrend (the paper's Das_detrend) — a thin allocating shim over
// DetrendInPlace.
func Detrend(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	DetrendInPlace(out)
	return out
}

// DetrendInPlace removes the least-squares straight-line fit from x in
// place.
func DetrendInPlace(x []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	if n == 1 {
		x[0] = 0 // a single point detrends to zero
		return
	}
	// Fit x[i] ≈ a + b·i by least squares on centered indices.
	tMean := float64(n-1) / 2
	var xMean, num, den float64
	for _, v := range x {
		xMean += v
	}
	xMean /= float64(n)
	for i, v := range x {
		dt := float64(i) - tMean
		num += dt * (v - xMean)
		den += dt * dt
	}
	slope := num / den
	for i, v := range x {
		x[i] = v - (xMean + slope*(float64(i)-tMean))
	}
}

// AbsCorr returns the absolute normalized correlation of two equal-length
// vectors, |cos θ(c1, c2)| — the paper's Das_abscorr. Zero vectors
// correlate to 0.
func AbsCorr(c1, c2 []float64) float64 {
	checkLen("AbsCorr", len(c2), len(c1))
	var dot, n1, n2 float64
	for i := range c1 {
		dot += c1[i] * c2[i]
		n1 += c1[i] * c1[i]
		n2 += c2[i] * c2[i]
	}
	if n1 == 0 || n2 == 0 {
		return 0
	}
	return math.Abs(dot) / math.Sqrt(n1*n2)
}

// AbsCorrComplex is AbsCorr for spectra: |⟨c1, c2⟩| / (‖c1‖‖c2‖).
func AbsCorrComplex(c1, c2 []complex128) float64 {
	checkLen("AbsCorrComplex", len(c2), len(c1))
	var dotRe, dotIm, n1, n2 float64
	for i := range c1 {
		a, b := c1[i], c2[i]
		// conj(a) * b
		dotRe += real(a)*real(b) + imag(a)*imag(b)
		dotIm += real(a)*imag(b) - imag(a)*real(b)
		n1 += real(a)*real(a) + imag(a)*imag(a)
		n2 += real(b)*real(b) + imag(b)*imag(b)
	}
	if n1 == 0 || n2 == 0 {
		return 0
	}
	return math.Hypot(dotRe, dotIm) / math.Sqrt(n1*n2)
}

// Interp1 linearly interpolates the function defined by (x0, y0) — x0
// strictly increasing — at the query points x, matching MATLAB's
// interp1(..., 'linear') with end-value extrapolation clamped
// (the paper's Das_interp1). It returns an error if x0 is not increasing.
func Interp1(x0, y0, x []float64) ([]float64, error) {
	if len(x0) != len(y0) {
		return nil, fmt.Errorf("daslib: Interp1 x0/y0 lengths differ: %d vs %d", len(x0), len(y0))
	}
	if len(x0) == 0 {
		return nil, fmt.Errorf("daslib: Interp1 needs at least one sample point")
	}
	for i := 1; i < len(x0); i++ {
		if x0[i] <= x0[i-1] {
			return nil, fmt.Errorf("daslib: Interp1 x0 must be strictly increasing (x0[%d]=%g ≤ x0[%d]=%g)",
				i, x0[i], i-1, x0[i-1])
		}
	}
	out := make([]float64, len(x))
	for i, q := range x {
		switch {
		case q <= x0[0]:
			out[i] = y0[0]
		case q >= x0[len(x0)-1]:
			out[i] = y0[len(y0)-1]
		default:
			// Binary search for the containing interval.
			lo, hi := 0, len(x0)-1
			for hi-lo > 1 {
				mid := (lo + hi) / 2
				if x0[mid] <= q {
					lo = mid
				} else {
					hi = mid
				}
			}
			if q == x0[lo] {
				// Exact hit: avoid 0·(y0[hi]-y0[lo]), which is NaN when the
				// difference overflows.
				out[i] = y0[lo]
				continue
			}
			t := (q - x0[lo]) / (x0[hi] - x0[lo])
			out[i] = y0[lo] + t*(y0[hi]-y0[lo])
		}
	}
	return out, nil
}

// MovingAverage returns the centered moving average of x with window
// 2*half+1, shrinking the window at the edges.
func MovingAverage(x []float64, half int) []float64 {
	n := len(x)
	out := make([]float64, n)
	if half <= 0 {
		copy(out, x)
		return out
	}
	for i := range x {
		lo := max(i-half, 0)
		hi := min(i+half, n-1)
		var s float64
		for j := lo; j <= hi; j++ {
			s += x[j]
		}
		out[i] = s / float64(hi-lo+1)
	}
	return out
}

// RMS returns the root-mean-square amplitude of x.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}

// hannCache holds the shared Hann window per length, built once like the
// twiddle tables — STFT alone rebuilds the same window per call otherwise.
var hannCache = struct {
	sync.RWMutex
	m map[int][]float64
}{m: map[int][]float64{}}

// hannWin returns the cached n-point Hann window. The returned slice is
// shared and must not be modified.
func hannWin(n int) []float64 {
	hannCache.RLock()
	w, ok := hannCache.m[n]
	hannCache.RUnlock()
	if ok {
		return w
	}
	w = make([]float64, n)
	if n == 1 {
		w[0] = 1
	} else {
		for i := range w {
			w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
		}
	}
	hannCache.Lock()
	if have, ok := hannCache.m[n]; ok {
		w = have
	} else {
		hannCache.m[n] = w
	}
	hannCache.Unlock()
	return w
}

// Hann returns an n-point Hann window (periodic form for n>1 symmetric
// definition, as MATLAB's hann(n)). The window vector is cached per length;
// callers get a private copy.
func Hann(n int) []float64 {
	out := make([]float64, n)
	copy(out, hannWin(n))
	return out
}

// besselI0 evaluates the zeroth-order modified Bessel function by series.
func besselI0(x float64) float64 {
	sum := 1.0
	term := 1.0
	half := x / 2
	for k := 1; k < 64; k++ {
		term *= (half / float64(k)) * (half / float64(k))
		sum += term
		if term < 1e-18*sum {
			break
		}
	}
	return sum
}

// kaiserCache holds the shared Kaiser window per (n, beta) — Resample's
// anti-aliasing design rebuilds the same window for every call otherwise.
var kaiserCache = struct {
	sync.RWMutex
	m map[kaiserKey][]float64
}{m: map[kaiserKey][]float64{}}

type kaiserKey struct {
	n    int
	beta float64
}

// kaiserWin returns the cached n-point Kaiser window. The returned slice is
// shared and must not be modified.
func kaiserWin(n int, beta float64) []float64 {
	key := kaiserKey{n, beta}
	kaiserCache.RLock()
	w, ok := kaiserCache.m[key]
	kaiserCache.RUnlock()
	if ok {
		return w
	}
	w = make([]float64, n)
	if n == 1 {
		w[0] = 1
	} else {
		denom := besselI0(beta)
		m := float64(n - 1)
		for i := range w {
			t := 2*float64(i)/m - 1
			w[i] = besselI0(beta*math.Sqrt(1-t*t)) / denom
		}
	}
	kaiserCache.Lock()
	if have, ok := kaiserCache.m[key]; ok {
		w = have
	} else {
		kaiserCache.m[key] = w
	}
	kaiserCache.Unlock()
	return w
}

// Kaiser returns an n-point Kaiser window with shape parameter beta. The
// window vector is cached per (n, beta); callers get a private copy.
func Kaiser(n int, beta float64) []float64 {
	out := make([]float64, n)
	copy(out, kaiserWin(n, beta))
	return out
}

// taperCache holds the shared cosine ramp per taper width w: ramp[i] =
// 0.5·(1-cos(πi/w)). Detection pipelines taper every channel of every
// window with the same width, so the trig is paid once.
var taperCache = struct {
	sync.RWMutex
	m map[int][]float64
}{m: map[int][]float64{}}

func taperRamp(w int) []float64 {
	taperCache.RLock()
	r, ok := taperCache.m[w]
	taperCache.RUnlock()
	if ok {
		return r
	}
	r = make([]float64, w)
	for i := range r {
		r[i] = 0.5 * (1 - math.Cos(math.Pi*float64(i)/float64(w)))
	}
	taperCache.Lock()
	if have, ok := taperCache.m[w]; ok {
		r = have
	} else {
		taperCache.m[w] = r
	}
	taperCache.Unlock()
	return r
}

// TaperInPlace applies a cosine (Tukey-style) taper covering frac of each
// end of x in place — the standard pre-processing step before spectral
// analysis of seismic windows — with the cosine ramp served from the
// per-width cache.
func TaperInPlace(x []float64, frac float64) {
	n := len(x)
	w := int(frac * float64(n))
	if w <= 0 || n == 0 {
		return
	}
	if w > n/2 {
		w = n / 2
	}
	ramp := taperRamp(w)
	for i := 0; i < w; i++ {
		g := ramp[i]
		x[i] *= g
		x[n-1-i] *= g
	}
}

// OneBitNormalize replaces each sample by its sign — a standard
// ambient-noise pre-processing step that suppresses transient bursts.
func OneBitNormalize(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		switch {
		case v > 0:
			out[i] = 1
		case v < 0:
			out[i] = -1
		}
	}
	return out
}

// SpectralWhitenInto flattens the amplitude spectrum of x (keeping phase)
// into dst (len(dst) == len(x); dst may alias x), restricted to [loHz,
// hiHz] at the given rate; outside the band the spectrum is zeroed. Used by
// ambient-noise interferometry. The spectrum buffer is borrowed from s. Both
// transforms take the packed real-input path, and the bin frequencies come
// from fftFreqAbs rather than a materialized FFTFreqs table.
func SpectralWhitenInto(dst, x []float64, loHz, hiHz, rate float64, s *Scratch) {
	n := len(x)
	checkLen("SpectralWhitenInto dst", len(dst), n)
	if n == 0 {
		return
	}
	spec := s.Complex(n)
	RFFTInto(spec, x, s)
	for i, v := range spec {
		f := fftFreqAbs(i, n, rate)
		mag := math.Hypot(real(v), imag(v))
		if f < loHz || f > hiHz || mag == 0 {
			spec[i] = 0
			continue
		}
		spec[i] = v * complex(1/mag, 0)
	}
	IRFFTInto(dst, spec, s)
	s.ReleaseComplex(spec)
}
