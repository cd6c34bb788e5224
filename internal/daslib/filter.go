package daslib

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FilterBand selects the Butterworth response type.
type FilterBand int

const (
	// Lowpass passes frequencies below the cutoff.
	Lowpass FilterBand = iota
	// Highpass passes frequencies above the cutoff.
	Highpass
	// Bandpass passes frequencies between two cutoffs.
	Bandpass
	// Bandstop rejects frequencies between two cutoffs.
	Bandstop
)

func (b FilterBand) String() string {
	switch b {
	case Lowpass:
		return "lowpass"
	case Highpass:
		return "highpass"
	case Bandpass:
		return "bandpass"
	case Bandstop:
		return "bandstop"
	default:
		return fmt.Sprintf("FilterBand(%d)", int(b))
	}
}

// Butter designs a digital Butterworth filter of the given order, matching
// MATLAB's butter (the paper's Das_butter). Cutoffs are normalized to the
// Nyquist frequency (0 < wn < 1). Lowpass/Highpass use cutoff[0]; Bandpass
// uses cutoff[0] < cutoff[1]. It returns transfer-function coefficients
// (b, a) with a[0] == 1.
func Butter(order int, band FilterBand, cutoff ...float64) (b, a []float64, err error) {
	if order < 1 || order > 24 {
		return nil, nil, fmt.Errorf("daslib: Butter order %d out of range [1,24]", order)
	}
	var wn []float64
	switch band {
	case Lowpass, Highpass:
		if len(cutoff) != 1 {
			return nil, nil, fmt.Errorf("daslib: %v needs 1 cutoff, got %d", band, len(cutoff))
		}
		wn = cutoff
	case Bandpass, Bandstop:
		if len(cutoff) != 2 || cutoff[0] >= cutoff[1] {
			return nil, nil, fmt.Errorf("daslib: %v needs 2 increasing cutoffs, got %v", band, cutoff)
		}
		wn = cutoff
	default:
		return nil, nil, fmt.Errorf("daslib: unknown band %v", band)
	}
	for _, w := range wn {
		if w <= 0 || w >= 1 {
			return nil, nil, fmt.Errorf("daslib: cutoff %v not in (0,1)", w)
		}
	}

	// Analog Butterworth prototype: order poles on the unit circle's left
	// half, no zeros, unit gain.
	poles := make([]complex128, order)
	for k := 0; k < order; k++ {
		theta := math.Pi * (2*float64(k+1) - 1) / (2 * float64(order))
		poles[k] = cmplx.Exp(complex(0, math.Pi/2+theta))
	}
	var zeros []complex128
	gain := 1.0

	// Pre-warp cutoffs for the bilinear transform (fs = 2, MATLAB's choice).
	const fs = 2.0
	warp := func(w float64) float64 { return 2 * fs * math.Tan(math.Pi*w/2) }

	switch band {
	case Lowpass:
		wo := warp(wn[0])
		for i := range poles {
			poles[i] *= complex(wo, 0)
		}
		gain *= math.Pow(wo, float64(order))
	case Highpass:
		wo := warp(wn[0])
		// k' = k * Re(prod(-z)/prod(-p)); prototype has no zeros.
		prod := complex(1, 0)
		for _, p := range poles {
			prod *= -p
		}
		gain *= real(complex(1, 0) / prod)
		for i := range poles {
			poles[i] = complex(wo, 0) / poles[i]
		}
		zeros = make([]complex128, order) // zeros at s = 0
	case Bandpass:
		w1, w2 := warp(wn[0]), warp(wn[1])
		wo := math.Sqrt(w1 * w2)
		bw := w2 - w1
		newPoles := make([]complex128, 0, 2*order)
		for _, p := range poles {
			ps := p * complex(bw/2, 0)
			d := cmplx.Sqrt(ps*ps - complex(wo*wo, 0))
			newPoles = append(newPoles, ps+d, ps-d)
		}
		poles = newPoles
		zeros = make([]complex128, order) // zeros at s = 0
		gain *= math.Pow(bw, float64(order))
	case Bandstop:
		w1, w2 := warp(wn[0]), warp(wn[1])
		wo := math.Sqrt(w1 * w2)
		bw := w2 - w1
		// k' = k · Re(prod(-z)/prod(-p)) with the prototype's (no) zeros.
		prod := complex(1, 0)
		for _, p := range poles {
			prod *= -p
		}
		gain *= real(complex(1, 0) / prod)
		newPoles := make([]complex128, 0, 2*order)
		for _, p := range poles {
			ps := complex(bw/2, 0) / p
			d := cmplx.Sqrt(ps*ps - complex(wo*wo, 0))
			newPoles = append(newPoles, ps+d, ps-d)
		}
		poles = newPoles
		// 2·order zeros at ±j·wo (the notch).
		zeros = make([]complex128, 0, 2*order)
		for k := 0; k < order; k++ {
			zeros = append(zeros, complex(0, wo), complex(0, -wo))
		}
	}

	// Bilinear transform to the z-domain: z = (2fs + s) / (2fs - s).
	fs2 := complex(2*fs, 0)
	zDig := make([]complex128, len(zeros))
	pDig := make([]complex128, len(poles))
	num := complex(1, 0)
	den := complex(1, 0)
	for i, z := range zeros {
		zDig[i] = (fs2 + z) / (fs2 - z)
		num *= fs2 - z
	}
	for i, p := range poles {
		pDig[i] = (fs2 + p) / (fs2 - p)
		den *= fs2 - p
	}
	gain *= real(num / den)
	// Degree-matching zeros at z = -1.
	for len(zDig) < len(pDig) {
		zDig = append(zDig, complex(-1, 0))
	}

	bc := polyFromRoots(zDig)
	ac := polyFromRoots(pDig)
	b = make([]float64, len(bc))
	a = make([]float64, len(ac))
	for i, v := range bc {
		b[i] = real(v) * gain
	}
	for i, v := range ac {
		a[i] = real(v)
	}
	return b, a, nil
}

// polyFromRoots expands prod (x - r_i) into descending-power coefficients
// with leading coefficient 1.
func polyFromRoots(roots []complex128) []complex128 {
	coeffs := make([]complex128, 1, len(roots)+1)
	coeffs[0] = 1
	for _, r := range roots {
		coeffs = append(coeffs, 0)
		for i := len(coeffs) - 1; i >= 1; i-- {
			coeffs[i] -= r * coeffs[i-1]
		}
	}
	return coeffs
}

// Filter applies the IIR/FIR filter (b, a) to x using the transposed
// direct-form II structure, like MATLAB's filter. zi, if non-nil, supplies
// the initial delay-line state (length max(len(a),len(b))-1) and receives
// the final state.
func Filter(b, a, x []float64, zi []float64) ([]float64, error) {
	if len(a) == 0 || a[0] == 0 {
		return nil, fmt.Errorf("daslib: Filter needs a[0] != 0")
	}
	n := max(len(a), len(b))
	// Normalize to a[0] == 1 and equal lengths.
	bn := make([]float64, n)
	an := make([]float64, n)
	for i := range b {
		bn[i] = b[i] / a[0]
	}
	for i := range a {
		an[i] = a[i] / a[0]
	}
	var z []float64
	if zi != nil {
		if len(zi) != n-1 {
			return nil, fmt.Errorf("daslib: Filter zi length %d, want %d", len(zi), n-1)
		}
		z = zi
	} else {
		z = make([]float64, n-1)
	}
	y := make([]float64, len(x))
	filterCore(bn, an, x, y, z)
	return y, nil
}

// filterCore runs the transposed direct-form II loop with normalized,
// equal-length coefficients (a[0] == 1). y may alias x — y[i] depends only
// on x[i] and the delay line z (length len(bn)-1), which is updated in
// place.
func filterCore(bn, an, x, y, z []float64) {
	n := len(bn)
	for i, xv := range x {
		var yv float64
		if n == 1 {
			yv = bn[0] * xv
		} else {
			yv = bn[0]*xv + z[0]
			for j := 0; j < n-2; j++ {
				z[j] = bn[j+1]*xv + z[j+1] - an[j+1]*yv
			}
			z[n-2] = bn[n-1]*xv - an[n-1]*yv
		}
		y[i] = yv
	}
}

// lfilterZI computes the steady-state delay-line state of (b, a) for a unit
// step input, as scipy's lfilter_zi does: zi solves (I - Aᵀ)zi = B with A
// the companion matrix of a and B = b[1:] - a[1:]·b[0].
func lfilterZI(b, a []float64) ([]float64, error) {
	n := max(len(a), len(b))
	if n < 2 {
		return []float64{}, nil
	}
	bn := make([]float64, n)
	an := make([]float64, n)
	for i := range b {
		bn[i] = b[i] / a[0]
	}
	for i := range a {
		an[i] = a[i] / a[0]
	}
	m := n - 1
	// M = I - companion(an)ᵀ. companion C: C[0][j] = -an[j+1]; C[i][i-1]=1.
	M := make([][]float64, m)
	rhs := make([]float64, m)
	for i := 0; i < m; i++ {
		M[i] = make([]float64, m)
		for j := 0; j < m; j++ {
			var cT float64
			if j == 0 {
				cT = -an[i+1] // Cᵀ[i][0] = C[0][i]
			}
			if i+1 == j {
				cT += 1 // Cᵀ[i][i+1] = C[i+1][i] = 1
			}
			if i == j {
				M[i][j] = 1 - cT
			} else {
				M[i][j] = -cT
			}
		}
		rhs[i] = bn[i+1] - an[i+1]*bn[0]
	}
	zi, ok := solveLinear(M, rhs)
	if !ok {
		return nil, fmt.Errorf("daslib: lfilter_zi system is singular")
	}
	return zi, nil
}

// solveLinear solves M·x = rhs by Gaussian elimination with partial
// pivoting, mutating its arguments. Returns ok=false if singular.
func solveLinear(M [][]float64, rhs []float64) ([]float64, bool) {
	n := len(M)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(M[r][col]) > math.Abs(M[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(M[pivot][col]) < 1e-300 {
			return nil, false
		}
		M[col], M[pivot] = M[pivot], M[col]
		rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		inv := 1 / M[col][col]
		for r := col + 1; r < n; r++ {
			f := M[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				M[r][c] -= f * M[col][c]
			}
			rhs[r] -= f * rhs[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := rhs[r]
		for c := r + 1; c < n; c++ {
			s -= M[r][c] * x[c]
		}
		x[r] = s / M[r][r]
	}
	return x, true
}

// FilterPlan is a filter design prepared once for repeated zero-phase
// application: coefficients normalized to a[0] == 1 and padded to equal
// length, plus the steady-state unit-step initial conditions FiltFilt
// scales per signal. Detection pipelines run the same Butterworth design
// over every channel of every window; the plan hoists the normalization
// and the companion-matrix solve out of that loop.
//
// A plan is immutable after NewFilterPlan and safe for concurrent use.
type FilterPlan struct {
	bn, an []float64
	ziUnit []float64
	padlen int
}

// NewFilterPlan normalizes (b, a) and precomputes the filtfilt initial
// conditions.
func NewFilterPlan(b, a []float64) (*FilterPlan, error) {
	if len(a) == 0 || a[0] == 0 {
		return nil, fmt.Errorf("daslib: FilterPlan needs a[0] != 0")
	}
	n := max(len(a), len(b))
	fp := &FilterPlan{
		bn:     make([]float64, n),
		an:     make([]float64, n),
		padlen: 3 * (n - 1),
	}
	for i := range b {
		fp.bn[i] = b[i] / a[0]
	}
	for i := range a {
		fp.an[i] = a[i] / a[0]
	}
	if fp.padlen > 0 {
		zi, err := lfilterZI(b, a)
		if err != nil {
			return nil, err
		}
		fp.ziUnit = zi
	}
	return fp, nil
}

// PadLen returns the reflection padding the plan applies per end; inputs
// to FiltFiltInto must be longer than this.
func (fp *FilterPlan) PadLen() int { return fp.padlen }

// FiltFiltInto zero-phase filters x into dst (len(dst) == len(x); dst may
// alias x), borrowing the extension and delay-line buffers from s. Both
// filter passes run in place on the extension buffer, so a warm scratch
// makes the whole call allocation-free.
func (fp *FilterPlan) FiltFiltInto(dst, x []float64, s *Scratch) error {
	checkLen("FiltFiltInto dst", len(dst), len(x))
	if fp.padlen == 0 {
		filterCore(fp.bn, fp.an, x, dst, nil)
		return nil
	}
	if len(x) <= fp.padlen {
		return fmt.Errorf("daslib: FiltFilt input length %d must exceed pad length %d", len(x), fp.padlen)
	}
	// Odd extension.
	ext := s.Float(len(x) + 2*fp.padlen)
	idx := 0
	for i := fp.padlen; i >= 1; i-- {
		ext[idx] = 2*x[0] - x[i]
		idx++
	}
	copy(ext[idx:], x)
	idx += len(x)
	for i := len(x) - 2; i >= len(x)-1-fp.padlen; i-- {
		ext[idx] = 2*x[len(x)-1] - x[i]
		idx++
	}
	// Forward pass with zi scaled to the first sample.
	zi := s.Float(len(fp.ziUnit))
	for i, v := range fp.ziUnit {
		zi[i] = v * ext[0]
	}
	filterCore(fp.bn, fp.an, ext, ext, zi)
	reverse(ext)
	for i, v := range fp.ziUnit {
		zi[i] = v * ext[0]
	}
	filterCore(fp.bn, fp.an, ext, ext, zi)
	reverse(ext)
	copy(dst, ext[fp.padlen:fp.padlen+len(x)])
	s.ReleaseFloat(zi)
	s.ReleaseFloat(ext)
	return nil
}

// FiltFilt applies (b, a) forward and backward for zero-phase filtering,
// matching MATLAB's filtfilt (the paper's Das_filtfilt): the signal is
// extended by odd reflection at both ends, filtered with steady-state
// initial conditions, reversed, filtered again, and trimmed.
//
// FiltFilt is a thin allocating shim over FilterPlan.FiltFiltInto; hot
// loops should build the plan once and call the Into variant.
func FiltFilt(b, a, x []float64) ([]float64, error) {
	fp, err := NewFilterPlan(b, a)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(x))
	s := GetScratch()
	err = fp.FiltFiltInto(out, x, s)
	PutScratch(s)
	if err != nil {
		return nil, err
	}
	return out, nil
}

func reverse(x []float64) {
	for i, j := 0, len(x)-1; i < j; i, j = i+1, j-1 {
		x[i], x[j] = x[j], x[i]
	}
}

// FreqzMag evaluates |H(e^{jω})| of (b, a) at normalized frequency w
// (0..1, 1 = Nyquist).
func FreqzMag(b, a []float64, w float64) float64 {
	omega := math.Pi * w
	e := complex(math.Cos(-omega), math.Sin(-omega))
	num := polyvalZ(b, e)
	den := polyvalZ(a, e)
	return cmplx.Abs(num / den)
}

// polyvalZ evaluates sum c[i] * z^-i (transfer-function convention).
func polyvalZ(c []float64, z complex128) complex128 {
	acc := complex(0, 0)
	zp := complex(1, 0)
	for _, v := range c {
		acc += complex(v, 0) * zp
		zp *= z
	}
	return acc
}
