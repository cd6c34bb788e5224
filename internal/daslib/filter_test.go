package daslib

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestButterValidation(t *testing.T) {
	if _, _, err := Butter(0, Lowpass, 0.5); err == nil {
		t.Error("order 0 should fail")
	}
	if _, _, err := Butter(4, Lowpass, 0); err == nil {
		t.Error("cutoff 0 should fail")
	}
	if _, _, err := Butter(4, Lowpass, 1); err == nil {
		t.Error("cutoff 1 should fail")
	}
	if _, _, err := Butter(4, Lowpass, 0.2, 0.5); err == nil {
		t.Error("lowpass with 2 cutoffs should fail")
	}
	if _, _, err := Butter(4, Bandpass, 0.5, 0.2); err == nil {
		t.Error("decreasing bandpass cutoffs should fail")
	}
	if _, _, err := Butter(4, Bandpass, 0.2); err == nil {
		t.Error("bandpass with 1 cutoff should fail")
	}
}

func TestButterLowpassResponse(t *testing.T) {
	for _, order := range []int{2, 4, 6} {
		for _, wc := range []float64{0.1, 0.25, 0.5, 0.8} {
			b, a, err := Butter(order, Lowpass, wc)
			if err != nil {
				t.Fatal(err)
			}
			if len(b) != order+1 || len(a) != order+1 {
				t.Fatalf("order=%d: coefficient lengths %d/%d", order, len(b), len(a))
			}
			if math.Abs(a[0]-1) > 1e-9 {
				t.Errorf("a[0] = %g, want 1", a[0])
			}
			if g := FreqzMag(b, a, 1e-9); math.Abs(g-1) > 1e-6 {
				t.Errorf("order=%d wc=%g: DC gain = %g, want 1", order, wc, g)
			}
			if g := FreqzMag(b, a, wc); math.Abs(g-math.Sqrt(0.5)) > 1e-6 {
				t.Errorf("order=%d wc=%g: cutoff gain = %g, want -3dB (%g)", order, wc, g, math.Sqrt(0.5))
			}
			if g := FreqzMag(b, a, 0.999999); g > 1e-3 {
				t.Errorf("order=%d wc=%g: Nyquist gain = %g, want ≈0", order, wc, g)
			}
		}
	}
}

func TestButterHighpassResponse(t *testing.T) {
	b, a, err := Butter(4, Highpass, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if g := FreqzMag(b, a, 1e-9); g > 1e-6 {
		t.Errorf("DC gain = %g, want 0", g)
	}
	if g := FreqzMag(b, a, 0.3); math.Abs(g-math.Sqrt(0.5)) > 1e-6 {
		t.Errorf("cutoff gain = %g, want -3dB", g)
	}
	if g := FreqzMag(b, a, 0.999999); math.Abs(g-1) > 1e-4 {
		t.Errorf("Nyquist gain = %g, want 1", g)
	}
}

func TestButterBandpassResponse(t *testing.T) {
	lo, hi := 0.2, 0.4
	b, a, err := Butter(3, Bandpass, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 7 || len(a) != 7 {
		t.Fatalf("bandpass order 3 should give 7 coefficients, got %d/%d", len(b), len(a))
	}
	if g := FreqzMag(b, a, 1e-9); g > 1e-6 {
		t.Errorf("DC gain = %g, want 0", g)
	}
	center := math.Sqrt(lo * hi) // geometric center in warped space ≈ passband
	if g := FreqzMag(b, a, center); math.Abs(g-1) > 0.02 {
		t.Errorf("center gain = %g, want ≈1", g)
	}
	for _, edge := range []float64{lo, hi} {
		if g := FreqzMag(b, a, edge); math.Abs(g-math.Sqrt(0.5)) > 1e-5 {
			t.Errorf("edge %g gain = %g, want -3dB", edge, g)
		}
	}
	if g := FreqzMag(b, a, 0.999999); g > 1e-4 {
		t.Errorf("Nyquist gain = %g, want 0", g)
	}
}

func TestButterMonotoneLowpass(t *testing.T) {
	// Butterworth is maximally flat: magnitude must be non-increasing.
	b, a, err := Butter(5, Lowpass, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for w := 0.001; w < 1; w += 0.001 {
		g := FreqzMag(b, a, w)
		if g > prev+1e-9 {
			t.Fatalf("magnitude increased at w=%g: %g > %g", w, g, prev)
		}
		prev = g
	}
}

func TestFilterFIRConvolution(t *testing.T) {
	// With a = [1], Filter is plain convolution.
	b := []float64{1, 2, 3}
	x := []float64{1, 0, 0, 1}
	y, err := Filter(b, []float64{1}, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 1}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Errorf("y[%d] = %g, want %g", i, y[i], want[i])
		}
	}
}

func TestFilterIIRKnown(t *testing.T) {
	// y[n] = x[n] + 0.5·y[n-1]: impulse response 1, 0.5, 0.25, ...
	y, err := Filter([]float64{1}, []float64{1, -0.5}, []float64{1, 0, 0, 0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 0.5, 0.25, 0.125, 0.0625} {
		if math.Abs(y[i]-want) > 1e-12 {
			t.Errorf("y[%d] = %g, want %g", i, y[i], want)
		}
	}
}

func TestFilterNormalizesA0(t *testing.T) {
	// Scaling both b and a by 2 must not change the output.
	x := []float64{1, 2, 3, 4, 5}
	y1, err := Filter([]float64{1, 1}, []float64{1, -0.3}, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := Filter([]float64{2, 2}, []float64{2, -0.6}, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Errorf("scaled coefficients changed output at %d", i)
		}
	}
	if _, err := Filter([]float64{1}, []float64{0, 1}, x, nil); err == nil {
		t.Error("a[0] == 0 should fail")
	}
	if _, err := Filter([]float64{1, 1}, []float64{1, -0.5}, x, []float64{1, 2}); err == nil {
		t.Error("wrong zi length should fail")
	}
}

func TestLfilterZISteadyState(t *testing.T) {
	// Filtering a constant signal with the steady-state zi must give a
	// constant output from the very first sample.
	b, a, err := Butter(4, Lowpass, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	zi, err := lfilterZI(b, a)
	if err != nil {
		t.Fatal(err)
	}
	const level = 3.7
	x := make([]float64, 50)
	for i := range x {
		x[i] = level
	}
	z := make([]float64, len(zi))
	for i, v := range zi {
		z[i] = v * level
	}
	y, err := Filter(b, a, x, z)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range y {
		if math.Abs(v-level) > 1e-9 {
			t.Fatalf("y[%d] = %g, want steady %g", i, v, level)
		}
	}
}

func TestFiltFiltZeroPhase(t *testing.T) {
	// A low-frequency tone must come through filtfilt with no phase shift
	// and gain ≈ squared single-pass gain.
	const n = 2000
	rate := 500.0
	freq := 10.0
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * freq * float64(i) / rate)
	}
	b, a, err := Butter(4, Lowpass, 0.4) // cutoff 100 Hz
	if err != nil {
		t.Fatal(err)
	}
	y, err := FiltFilt(b, a, x)
	if err != nil {
		t.Fatal(err)
	}
	// Compare mid-section against the input: no delay, unit gain.
	for i := 500; i < 1500; i++ {
		if math.Abs(y[i]-x[i]) > 1e-3 {
			t.Fatalf("filtfilt distorted passband at %d: %g vs %g", i, y[i], x[i])
		}
	}
}

// butterFiltFilt designs an order-n Butterworth filter with cutoffs in Hz
// at the given sampling rate and zero-phase filters x with it.
func butterFiltFilt(x []float64, order int, band FilterBand, rate float64, cutHz ...float64) ([]float64, error) {
	norm := make([]float64, len(cutHz))
	for i, f := range cutHz {
		norm[i] = f / (rate / 2)
	}
	b, a, err := Butter(order, band, norm...)
	if err != nil {
		return nil, err
	}
	return FiltFilt(b, a, x)
}

func TestFiltFiltAttenuatesStopband(t *testing.T) {
	const n = 4000
	rate := 500.0
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / rate
		x[i] = math.Sin(2*math.Pi*5*ti) + math.Sin(2*math.Pi*150*ti)
	}
	y, err := butterFiltFilt(x, 4, Bandpass, rate, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	// The 150 Hz component must be crushed; the 5 Hz one preserved.
	mid := y[1000:3000]
	ref := make([]float64, len(mid))
	for i := range ref {
		ref[i] = math.Sin(2 * math.Pi * 5 * float64(i+1000) / rate)
	}
	if c := AbsCorr(mid, ref); c < 0.99 {
		t.Errorf("passband correlation = %g, want > 0.99", c)
	}
	if r := RMS(mid); math.Abs(r-RMS(ref)) > 0.05*RMS(ref) {
		t.Errorf("passband RMS = %g, want ≈ %g", r, RMS(ref))
	}
}

func TestFiltFiltShortInput(t *testing.T) {
	b, a, err := Butter(4, Lowpass, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FiltFilt(b, a, make([]float64, 12)); err == nil {
		t.Error("input shorter than pad length should fail")
	}
}

func TestFilterZiStatePropagation(t *testing.T) {
	// Filtering in two halves with carried state must equal one pass.
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 100)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b, a, err := Butter(3, Lowpass, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := Filter(b, a, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, 3)
	h1, err := Filter(b, a, x[:50], z)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Filter(b, a, x[50:], z)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h1 {
		if math.Abs(h1[i]-whole[i]) > 1e-12 {
			t.Fatalf("first half differs at %d", i)
		}
	}
	for i := range h2 {
		if math.Abs(h2[i]-whole[50+i]) > 1e-12 {
			t.Fatalf("second half differs at %d", i)
		}
	}
}

func TestSolveLinear(t *testing.T) {
	M := [][]float64{{2, 1}, {1, 3}}
	x, ok := solveLinear(M, []float64{5, 10})
	if !ok {
		t.Fatal("solver failed")
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [1 3]", x)
	}
	if _, ok := solveLinear([][]float64{{1, 2}, {2, 4}}, []float64{1, 2}); ok {
		t.Error("singular system should be rejected")
	}
}

func TestFilterBandString(t *testing.T) {
	if Lowpass.String() != "lowpass" || Highpass.String() != "highpass" || Bandpass.String() != "bandpass" {
		t.Error("FilterBand.String broken")
	}
}

func TestButterStabilityAcrossDesigns(t *testing.T) {
	// Every designed filter must be stable: the impulse response decays to
	// (numerical) zero. Bilinear-transformed Butterworth filters are stable
	// by construction; this guards the implementation, not the theory.
	impulse := make([]float64, 4096)
	impulse[0] = 1
	check := func(name string, b, a []float64) {
		t.Helper()
		y, err := Filter(b, a, impulse, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tail := 0.0
		for _, v := range y[3500:] {
			tail = math.Max(tail, math.Abs(v))
		}
		if tail > 1e-6 {
			t.Errorf("%s: impulse response tail %g, filter unstable or ringing", name, tail)
		}
		for _, v := range y {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite impulse response", name)
			}
		}
	}
	for _, order := range []int{1, 2, 4, 8, 12} {
		for _, wc := range []float64{0.05, 0.3, 0.7, 0.95} {
			b, a, err := Butter(order, Lowpass, wc)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("lowpass n=%d wc=%g", order, wc), b, a)
			b, a, err = Butter(order, Highpass, wc)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("highpass n=%d wc=%g", order, wc), b, a)
		}
		for _, band := range [][2]float64{{0.1, 0.3}, {0.4, 0.6}, {0.7, 0.9}} {
			b, a, err := Butter(order, Bandpass, band[0], band[1])
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("bandpass n=%d %v", order, band), b, a)
			b, a, err = Butter(order, Bandstop, band[0], band[1])
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("bandstop n=%d %v", order, band), b, a)
		}
	}
}
