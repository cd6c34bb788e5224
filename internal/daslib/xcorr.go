package daslib

import (
	"fmt"
	"math"
)

// XCorrLen returns the number of lags XCorrInto produces for inputs of length
// na and nb: na+nb-1.
func XCorrLen(na, nb int) int {
	if na == 0 || nb == 0 {
		return 0
	}
	return na + nb - 1
}

// XCorrInto computes the full linear cross-correlation of a and b via FFT
// into dst (len XCorrLen(len(a), len(b))): dst[k] = sum_n a[n+k-(len(b)-1)]
// · b[n], for lags k-(len(b)-1) in [-(len(b)-1), len(a)-1], matching
// MATLAB's xcorr(a, b) ordering (negative lags first). All intermediates
// are borrowed from s. Both spectra go through the packed real-input
// transform, so the whole correlation costs two half-size FFTs plus one
// half-size inverse — O((n+m) log(n+m)), and zero allocations once s is
// warm.
func XCorrInto(dst, a, b []float64, s *Scratch) {
	n := XCorrLen(len(a), len(b))
	checkLen("XCorrInto dst", len(dst), n)
	if n == 0 {
		return
	}
	m := NextPow2(n)
	fa := s.Complex(m)
	rfftZeroPad(fa, a, s)
	// Correlation = convolution with time-reversed b.
	rb := s.Float(len(b))
	for i, v := range b {
		rb[len(b)-1-i] = v
	}
	fb := s.Complex(m)
	rfftZeroPad(fb, rb, s)
	s.ReleaseFloat(rb)
	for i := range fa {
		fa[i] *= fb[i]
	}
	s.ReleaseComplex(fb)
	tmp := s.Float(m)
	IRFFTInto(tmp, fa, s)
	copy(dst, tmp[:n])
	s.ReleaseFloat(tmp)
	s.ReleaseComplex(fa)
}

// XCorrNormalized is the cross-correlation scaled by 1/√(E_a·E_b), so a perfect alignment
// of identical signals peaks at 1 (the 'coeff' option of MATLAB's xcorr).
func XCorrNormalized(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]float64, XCorrLen(len(a), len(b)))
	s := GetScratch()
	XCorrNormalizedInto(out, a, b, s)
	PutScratch(s)
	return out
}

// XCorrNormalizedInto is XCorrNormalized writing into dst, borrowing all
// intermediates from s.
func XCorrNormalizedInto(dst, a, b []float64, s *Scratch) {
	XCorrInto(dst, a, b, s)
	var eb float64
	for _, v := range b {
		eb += v * v
	}
	normalizeXCorr(dst, a, eb)
}

// normalizeXCorr applies the 'coeff' scaling in place given the raw
// correlation, the a series, and the precomputed energy of b. The a-energy
// summation order matches XCorrNormalized exactly so the master-reuse path
// stays bit-identical to the pairwise one.
func normalizeXCorr(dst, a []float64, eb float64) {
	var ea float64
	for _, v := range a {
		ea += v * v
	}
	if ea == 0 || eb == 0 {
		return
	}
	norm := 1 / math.Sqrt(ea*eb)
	for i := range dst {
		dst[i] *= norm
	}
}

// XCorrMaster is the precomputed frequency-domain half of a cross-
// correlation against a fixed reference series: the forward transform of
// the time-reversed, zero-padded master plus its energy. Detection
// workloads correlate every channel of every window against one master, so
// hoisting the master's FFT out of the per-channel loop removes half the
// transform work (the dead double-FFT of detect.Master.Spectrum's original
// call sites).
//
// A master is immutable after PrepareXCorrMaster and safe for concurrent
// use by many worker goroutines.
type XCorrMaster struct {
	series []float64    // the reference series (owned copy)
	energy float64      // sum of squares of series
	m      int          // transform length: NextPow2(na+len(series)-1)
	na     int          // series length the plan was built for
	spec   []complex128 // RFFT of the time-reversed series, padded to m
}

// PrepareXCorrMaster builds the reusable spectrum for correlating series of
// length na against master b. Returns nil for empty inputs.
func PrepareXCorrMaster(b []float64, na int) *XCorrMaster {
	if len(b) == 0 || na <= 0 {
		return nil
	}
	mst := &XCorrMaster{
		series: append([]float64(nil), b...),
		na:     na,
		m:      NextPow2(XCorrLen(na, len(b))),
	}
	for _, v := range b {
		mst.energy += v * v
	}
	rb := make([]float64, len(b))
	for i, v := range b {
		rb[len(b)-1-i] = v
	}
	mst.spec = make([]complex128, mst.m)
	s := GetScratch()
	rfftZeroPad(mst.spec, rb, s)
	PutScratch(s)
	return mst
}

// Series returns the master's reference series (shared; do not modify).
func (mst *XCorrMaster) Series() []float64 { return mst.series }

// Len returns the lag count produced for a series of the planned length.
func (mst *XCorrMaster) Len() int { return XCorrLen(mst.na, len(mst.series)) }

// XCorrNormalizedInto computes XCorrNormalized(a, master) into dst (length
// XCorrLen(len(a), master length)) reusing the precomputed master spectrum.
// Series of a different length than planned fall back to the pairwise path
// (correct, just not pre-transformed).
func (mst *XCorrMaster) XCorrNormalizedInto(dst, a []float64, s *Scratch) {
	n := XCorrLen(len(a), len(mst.series))
	checkLen("XCorrMaster dst", len(dst), n)
	if n == 0 {
		return
	}
	if len(a) != mst.na || NextPow2(n) != mst.m {
		XCorrNormalizedInto(dst, a, mst.series, s)
		return
	}
	fa := s.Complex(mst.m)
	rfftZeroPad(fa, a, s)
	for i := range fa {
		fa[i] *= mst.spec[i]
	}
	tmp := s.Float(mst.m)
	IRFFTInto(tmp, fa, s)
	copy(dst, tmp[:n])
	s.ReleaseFloat(tmp)
	s.ReleaseComplex(fa)
	normalizeXCorr(dst, a, mst.energy)
}

// CrossSpectrum returns FFT(a) ⊙ conj(FFT(b)) zero-padded to a power of two
// ≥ len(a)+len(b)-1 — the frequency-domain cross-correlation kernel used by
// ambient-noise interferometry.
func CrossSpectrum(a, b []float64) ([]complex128, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("daslib: CrossSpectrum needs equal lengths, got %d and %d", len(a), len(b))
	}
	if len(a) == 0 {
		return nil, fmt.Errorf("daslib: CrossSpectrum needs non-empty input")
	}
	m := NextPow2(2*len(a) - 1)
	fa := make([]complex128, m)
	s := GetScratch()
	rfftZeroPad(fa, a, s)
	fb := s.Complex(m)
	rfftZeroPad(fb, b, s)
	for i := range fa {
		// fa · conj(fb)
		ar, ai := real(fa[i]), imag(fa[i])
		br, bi := real(fb[i]), imag(fb[i])
		fa[i] = complex(ar*br+ai*bi, ai*br-ar*bi)
	}
	s.ReleaseComplex(fb)
	PutScratch(s)
	return fa, nil
}
