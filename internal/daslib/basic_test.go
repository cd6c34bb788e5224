package daslib

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDemean(t *testing.T) {
	got := []float64{1, 2, 3, 4}
	DemeanInPlace(got)
	want := []float64{-1.5, -0.5, 0.5, 1.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("Demean[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	DemeanInPlace(nil) // must not panic
}

func TestDetrendRemovesLine(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 3 + 0.5*float64(i)
	}
	for _, v := range Detrend(x) {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("pure line not removed: residue %g", v)
		}
	}
	// Detrending a line+sine leaves a signal with zero mean, zero
	// least-squares slope, and high correlation with the sine. (The sine is
	// not exactly orthogonal to a ramp, so exact recovery is not expected.)
	sig := make([]float64, 100)
	for i := range sig {
		sig[i] = math.Sin(2 * math.Pi * 10 * float64(i) / 100)
	}
	mixed := make([]float64, 100)
	for i := range mixed {
		mixed[i] = sig[i] - 7 + 0.3*float64(i)
	}
	got := Detrend(mixed)
	var mean, slope float64
	for i, v := range got {
		mean += v
		slope += (float64(i) - 49.5) * v
	}
	if math.Abs(mean) > 1e-9 {
		t.Errorf("detrended mean = %g, want 0", mean/100)
	}
	if math.Abs(slope) > 1e-7 {
		t.Errorf("detrended slope moment = %g, want 0", slope)
	}
	if c := AbsCorr(got, sig); c < 0.99 {
		t.Errorf("detrended/sine correlation = %g, want > 0.99", c)
	}
	if got := Detrend([]float64{5}); got[0] != 0 {
		t.Error("single point should detrend to 0")
	}
}

func TestDetrendIdempotentProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) > 300 {
			vals = vals[:300]
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e50 {
				return true
			}
		}
		once := Detrend(vals)
		twice := Detrend(once)
		scale := 1.0
		for _, v := range vals {
			scale = math.Max(scale, math.Abs(v))
		}
		for i := range once {
			if math.Abs(once[i]-twice[i]) > 1e-9*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAbsCorr(t *testing.T) {
	a := []float64{1, 2, 3}
	if got := AbsCorr(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self correlation = %g", got)
	}
	neg := []float64{-1, -2, -3}
	if got := AbsCorr(a, neg); math.Abs(got-1) > 1e-12 {
		t.Errorf("anti-correlation = %g, want |cos|=1", got)
	}
	orth1, orth2 := []float64{1, 0}, []float64{0, 1}
	if got := AbsCorr(orth1, orth2); got != 0 {
		t.Errorf("orthogonal correlation = %g", got)
	}
	if got := AbsCorr([]float64{0, 0}, []float64{1, 2}); got != 0 {
		t.Errorf("zero-vector correlation = %g", got)
	}
}

func TestAbsCorrRangeProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := min(len(a), len(b))
		if n == 0 {
			return true
		}
		a, b = a[:n], b[:n]
		for i := 0; i < n; i++ {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.IsNaN(b[i]) || math.IsInf(b[i], 0) ||
				math.Abs(a[i]) > 1e100 || math.Abs(b[i]) > 1e100 {
				return true
			}
		}
		c := AbsCorr(a, b)
		return c >= 0 && c <= 1+1e-9 && c == AbsCorr(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAbsCorrComplex(t *testing.T) {
	a := []complex128{complex(1, 1), complex(2, -1)}
	if got := AbsCorrComplex(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self = %g", got)
	}
	// Multiplying by a global phase must not change |corr|.
	phase := complex(math.Cos(0.7), math.Sin(0.7))
	b := []complex128{a[0] * phase, a[1] * phase}
	if got := AbsCorrComplex(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("phase-shifted = %g, want 1", got)
	}
	if got := AbsCorrComplex([]complex128{0, 0}, a); got != 0 {
		t.Errorf("zero = %g", got)
	}
}

func TestInterp1(t *testing.T) {
	x0 := []float64{0, 1, 2}
	y0 := []float64{0, 10, 0}
	got, err := Interp1(x0, y0, []float64{-1, 0, 0.5, 1, 1.25, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 5, 10, 7.5, 0, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("Interp1[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if _, err := Interp1([]float64{0, 0}, []float64{1, 2}, []float64{0}); err == nil {
		t.Error("non-increasing x0 should fail")
	}
	if _, err := Interp1([]float64{0}, []float64{1, 2}, nil); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Interp1(nil, nil, nil); err == nil {
		t.Error("empty x0 should fail")
	}
}

func TestInterp1RecoversSamplesProperty(t *testing.T) {
	// Querying exactly at the sample points returns the sample values.
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 100 {
			raw = raw[:100]
		}
		x0 := make([]float64, len(raw))
		y0 := make([]float64, len(raw))
		for i := range raw {
			x0[i] = float64(i) * 1.5
			v := raw[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			y0[i] = v
		}
		got, err := Interp1(x0, y0, x0)
		if err != nil {
			return false
		}
		for i := range y0 {
			if got[i] != y0[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMovingAverage(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(x, 1)
	want := []float64{1.5, 2, 3, 4, 4.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("MovingAverage[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	got = MovingAverage(x, 0)
	for i := range x {
		if got[i] != x[i] {
			t.Error("half=0 should be identity")
		}
	}
}

func TestRMS(t *testing.T) {
	if got := RMS([]float64{3, 4, 3, 4}); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMS = %g", got)
	}
	if RMS(nil) != 0 {
		t.Error("RMS(nil) should be 0")
	}
}

func TestWindows(t *testing.T) {
	h := Hann(5)
	want := []float64{0, 0.5, 1, 0.5, 0}
	for i := range want {
		if math.Abs(h[i]-want[i]) > 1e-12 {
			t.Errorf("Hann[%d] = %g, want %g", i, h[i], want[i])
		}
	}
	if got := Hann(1); got[0] != 1 {
		t.Error("Hann(1) should be [1]")
	}
	k := Kaiser(11, 5)
	if math.Abs(k[5]-1) > 1e-12 {
		t.Errorf("Kaiser center = %g, want 1", k[5])
	}
	for i := 0; i < 5; i++ {
		if math.Abs(k[i]-k[10-i]) > 1e-12 {
			t.Errorf("Kaiser asymmetric at %d", i)
		}
		if k[i] >= k[i+1] {
			t.Errorf("Kaiser not increasing toward center at %d", i)
		}
	}
	if got := Kaiser(1, 5); got[0] != 1 {
		t.Error("Kaiser(1) should be [1]")
	}
	// beta=0 Kaiser is rectangular.
	for _, v := range Kaiser(7, 0) {
		if math.Abs(v-1) > 1e-12 {
			t.Error("Kaiser(beta=0) should be all ones")
		}
	}
}

func TestBesselI0(t *testing.T) {
	// Known values: I0(0)=1, I0(1)≈1.2660658, I0(5)≈27.239872.
	cases := map[float64]float64{0: 1, 1: 1.2660658777520084, 5: 27.239871823604442}
	for x, want := range cases {
		if got := besselI0(x); math.Abs(got-want) > 1e-9*want {
			t.Errorf("I0(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestTaper(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 1
	}
	TaperInPlace(x, 0.1)
	if x[0] != 0 || x[99] != 0 {
		t.Error("taper endpoints should be 0")
	}
	if x[50] != 1 {
		t.Error("taper middle should be untouched")
	}
	for i := 1; i < 10; i++ {
		if x[i] <= x[i-1] {
			t.Error("taper should rise monotonically")
		}
	}
	// frac 0 is a no-op.
	y := []float64{1, 2, 3}
	TaperInPlace(y, 0)
	if y[0] != 1 || y[2] != 3 {
		t.Error("frac=0 should not modify")
	}
}

func TestOneBitNormalize(t *testing.T) {
	got := OneBitNormalize([]float64{-3, 0, 0.5, -0.1})
	want := []float64{-1, 0, 1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("OneBit[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestSpectralWhitenFlattens(t *testing.T) {
	rate := 100.0
	n := 512
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / rate
		x[i] = 10*math.Sin(2*math.Pi*10*ti) + 0.5*math.Sin(2*math.Pi*20*ti)
	}
	y := make([]float64, n)
	SpectralWhitenInto(y, x, 5, 30, rate, nil)
	spec := FFTReal(y)
	freqs := FFTFreqs(n, rate)
	var in10, in20, out40 float64
	for i, f := range freqs {
		mag := math.Hypot(real(spec[i]), imag(spec[i]))
		switch {
		case math.Abs(f-10) < 0.2:
			in10 = math.Max(in10, mag)
		case math.Abs(f-20) < 0.2:
			in20 = math.Max(in20, mag)
		case math.Abs(f-40) < 0.2:
			out40 = math.Max(out40, mag)
		}
	}
	// The 20× amplitude ratio must be flattened to ≈1.
	if in10 == 0 || in20 == 0 {
		t.Fatal("whitened spectrum lost in-band content")
	}
	if r := in10 / in20; r > 1.5 || r < 0.67 {
		t.Errorf("whitened band ratio = %g, want ≈1", r)
	}
	if out40 > 1e-9 {
		t.Errorf("out-of-band energy survived: %g", out40)
	}
}

// xcorr is the raw cross-correlation through XCorrInto.
func xcorr(a, b []float64) []float64 {
	out := make([]float64, XCorrLen(len(a), len(b)))
	XCorrInto(out, a, b, NewScratch())
	return out
}

func TestXCorrMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ na, nb int }{{5, 5}, {8, 3}, {3, 8}, {1, 1}, {16, 16}} {
		a := make([]float64, tc.na)
		b := make([]float64, tc.nb)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := xcorr(a, b)
		// Naive: out[i] corresponds to lag l = i - (nb-1);
		// out[i] = sum_n a[n] b[n - l].
		n := tc.na + tc.nb - 1
		if len(got) != n {
			t.Fatalf("XCorr length = %d, want %d", len(got), n)
		}
		for i := 0; i < n; i++ {
			l := i - (tc.nb - 1)
			var want float64
			for j := 0; j < tc.na; j++ {
				k := j - l
				if k >= 0 && k < tc.nb {
					want += a[j] * b[k]
				}
			}
			if math.Abs(got[i]-want) > 1e-9 {
				t.Fatalf("na=%d nb=%d: XCorr[%d] = %g, want %g", tc.na, tc.nb, i, got[i], want)
			}
		}
	}
}

func TestXCorrNormalizedSelfPeak(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := make([]float64, 64)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	out := XCorrNormalized(a, a)
	peak := out[len(a)-1] // zero lag
	if math.Abs(peak-1) > 1e-9 {
		t.Errorf("zero-lag self correlation = %g, want 1", peak)
	}
	for i, v := range out {
		if v > 1+1e-9 {
			t.Errorf("normalized value %g > 1 at %d", v, i)
		}
	}
	if XCorrNormalized(nil, a) != nil {
		t.Error("XCorrNormalized with empty input should be nil")
	}
}

func TestXCorrDetectsShift(t *testing.T) {
	// b is a delayed copy of a: the correlation peak sits at the delay.
	rng := rand.New(rand.NewSource(6))
	const n, shift = 128, 17
	a := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	copy(b[shift:], a[:n-shift]) // b[t] = a[t-shift]
	out := xcorr(a, b)
	best, bestLag := math.Inf(-1), 0
	for i, v := range out {
		if v > best {
			best, bestLag = v, i-(n-1)
		}
	}
	if bestLag != -shift {
		t.Errorf("peak at lag %d, want %d", bestLag, -shift)
	}
}

func TestCrossSpectrum(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	cs, err := CrossSpectrum(a, a)
	if err != nil {
		t.Fatal(err)
	}
	// Self cross-spectrum is real and non-negative (|FFT|²).
	for i, v := range cs {
		if math.Abs(imag(v)) > 1e-9 {
			t.Errorf("imag at %d = %g", i, imag(v))
		}
		if real(v) < -1e-9 {
			t.Errorf("negative power at %d = %g", i, real(v))
		}
	}
	if _, err := CrossSpectrum(a, a[:2]); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := CrossSpectrum(nil, nil); err == nil {
		t.Error("empty input should fail")
	}
}
