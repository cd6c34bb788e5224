package daslib

import (
	"math"
	"math/rand"
	"testing"
)

// The planned/into kernel layer is the one implementation of each kernel;
// the few allocating helpers left (IFFT, FFTReal, IFFTReal, Detrend,
// FiltFilt, Resample, XCorrNormalized) are thin shims over it. These tests
// pin that shim contract bit for bit over randomized inputs — including odd
// and prime lengths that take the Bluestein path — along with aliasing and
// scratch reuse, so an "optimization" that changes operation order (and
// therefore rounding) fails loudly.

// testLengths mixes power-of-two (radix-2), odd, and prime (Bluestein)
// sizes.
var testLengths = []int{1, 2, 3, 8, 33, 61, 97, 127, 128, 1000, 4096}

func randFloats(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func bitIdenticalC(t *testing.T, name string, n int, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s n=%d: length %d, want %d", name, n, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s n=%d: differs at %d: %v vs %v", name, n, i, got[i], want[i])
		}
	}
}

func bitIdenticalF(t *testing.T, name string, n int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s n=%d: length %d, want %d", name, n, len(got), len(want))
	}
	for i := range got {
		// NaN != NaN, so compare bit patterns via the == shortcut plus an
		// explicit both-NaN case.
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s n=%d: differs at %d: %v vs %v", name, n, i, got[i], want[i])
		}
	}
}

func TestFFTIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := NewScratch()
	for _, n := range testLengths {
		x := randComplex(rng, n)
		// A warm arena and a nil one must give the same bits.
		want := make([]complex128, n)
		PlanFFT(n).FFTInto(want, x, nil)
		dst := make([]complex128, n)
		PlanFFT(n).FFTInto(dst, x, s)
		bitIdenticalC(t, "FFTInto", n, dst, want)

		wantInv := IFFT(x)
		PlanFFT(n).IFFTInto(dst, x, s)
		bitIdenticalC(t, "IFFTInto", n, dst, wantInv)
	}
}

func TestFFTIntoAliased(t *testing.T) {
	// dst == src must work: the engine transforms scratch buffers in place.
	rng := rand.New(rand.NewSource(7))
	s := NewScratch()
	for _, n := range []int{8, 61, 128} {
		x := randComplex(rng, n)
		want := fft(x)
		buf := append([]complex128(nil), x...)
		PlanFFT(n).FFTInto(buf, buf, s)
		bitIdenticalC(t, "FFTInto aliased", n, buf, want)
	}
}

func TestRFFTBitIdenticalToFFTReal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewScratch()
	for _, n := range testLengths {
		x := randFloats(rng, n)
		// FFTReal and IFFTReal are shims over RFFTInto and IRFFTInto.
		want := FFTReal(x)
		dst := make([]complex128, n)
		RFFTInto(dst, x, s)
		bitIdenticalC(t, "RFFTInto", n, dst, want)

		back := IFFTReal(want)
		fdst := make([]float64, n)
		IRFFTInto(fdst, want, s)
		bitIdenticalF(t, "IRFFTInto", n, fdst, back)
	}
}

func TestRFFTMatchesNaiveDFT(t *testing.T) {
	// The packed even-length path is new arithmetic, not a shim — check it
	// against the O(n²) reference directly.
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{2, 4, 6, 8, 10, 33, 61, 64, 100, 128} {
		x := randFloats(rng, n)
		xc := make([]complex128, n)
		for i, v := range x {
			xc[i] = complex(v, 0)
		}
		want := dftNaive(xc)
		got := FFTReal(x)
		if d := maxAbsDiff(got, want); d > 1e-8*float64(n) {
			t.Errorf("n=%d: RFFTInto differs from naive DFT by %g", n, d)
		}
	}
}

func TestInPlaceVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range testLengths {
		x := randFloats(rng, n)

		buf := append([]float64(nil), x...)
		DetrendInPlace(buf)
		bitIdenticalF(t, "DetrendInPlace", n, buf, Detrend(x))
	}
}

func TestSpectralWhitenIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	s := NewScratch()
	for _, n := range []int{33, 61, 128, 1000} {
		x := randFloats(rng, n)
		// dst may alias x: whitening in place gives the same bits.
		want := make([]float64, n)
		SpectralWhitenInto(want, x, 5, 40, 200, nil)
		dst := append([]float64(nil), x...)
		SpectralWhitenInto(dst, dst, 5, 40, 200, s)
		bitIdenticalF(t, "SpectralWhitenInto", n, dst, want)
	}
}

func TestFiltFiltIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	b, a, err := Butter(4, Bandpass, 5.0/100, 40.0/100)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := NewFilterPlan(b, a)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	for _, n := range []int{61, 97, 128, 1000, 4096} {
		x := randFloats(rng, n)
		want, err := FiltFilt(b, a, x)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, n)
		if err := fp.FiltFiltInto(dst, x, s); err != nil {
			t.Fatal(err)
		}
		bitIdenticalF(t, "FiltFiltInto", n, dst, want)
	}
}

func TestResampleIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, c := range []struct{ n, p, q int }{{128, 1, 2}, {1000, 2, 5}, {997, 3, 7}, {4096, 1, 4}} {
		x := randFloats(rng, c.n)
		want, err := Resample(x, c.p, c.q)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, ResampleLen(c.n, c.p, c.q))
		if err := ResampleInto(dst, x, c.p, c.q, nil); err != nil {
			t.Fatal(err)
		}
		bitIdenticalF(t, "ResampleInto", c.n, dst, want)
	}
}

func TestXCorrIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := NewScratch()
	for _, c := range []struct{ na, nb int }{{8, 8}, {61, 61}, {97, 33}, {128, 128}, {1000, 1000}} {
		a := randFloats(rng, c.na)
		b := randFloats(rng, c.nb)

		dst := make([]float64, XCorrLen(c.na, c.nb))
		wantN := XCorrNormalized(a, b)
		XCorrNormalizedInto(dst, a, b, s)
		bitIdenticalF(t, "XCorrNormalizedInto", c.na, dst, wantN)
	}
}

func TestXCorrMasterBitIdentical(t *testing.T) {
	// The prepared-master path reuses a precomputed reversed-padded
	// spectrum; it must reproduce pairwise XCorrNormalized bit for bit.
	rng := rand.New(rand.NewSource(37))
	s := NewScratch()
	for _, n := range []int{61, 128, 1000} {
		b := randFloats(rng, n)
		mst := PrepareXCorrMaster(b, n)
		for trial := 0; trial < 3; trial++ {
			a := randFloats(rng, n)
			want := XCorrNormalized(a, b)
			dst := make([]float64, XCorrLen(n, n))
			mst.XCorrNormalizedInto(dst, a, s)
			bitIdenticalF(t, "XCorrMaster", n, dst, want)
		}
	}
}

func TestXCorrMasterFallbackLength(t *testing.T) {
	// A series length the master was not prepared for must still produce
	// the pairwise answer (via the fallback), not garbage.
	rng := rand.New(rand.NewSource(41))
	s := NewScratch()
	b := randFloats(rng, 128)
	mst := PrepareXCorrMaster(b, 128)
	a := randFloats(rng, 100)
	want := XCorrNormalized(a, b)
	dst := make([]float64, XCorrLen(100, 128))
	mst.XCorrNormalizedInto(dst, a, s)
	bitIdenticalF(t, "XCorrMaster fallback", 100, dst, want)
}

func FuzzRFFTRoundTrip(f *testing.F) {
	// Seed pow2, odd, and prime lengths so both the packed even path and
	// the complex fallback get fuzzed from the start.
	for _, n := range []int{1, 2, 8, 33, 61, 97, 127, 128, 1024} {
		f.Add(n, int64(1))
	}
	f.Fuzz(func(t *testing.T, n int, seed int64) {
		if n < 1 || n > 4096 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		x := randFloats(rng, n)

		// Round trip within tolerance.
		spec := FFTReal(x)
		back := IFFTReal(spec)
		if len(back) != n {
			t.Fatalf("round trip length %d, want %d", len(back), n)
		}
		scale := 0.0
		for _, v := range x {
			scale = math.Max(scale, math.Abs(v))
		}
		tol := 1e-9 * (1 + scale) * float64(n)
		for i := range x {
			if math.Abs(back[i]-x[i]) > tol {
				t.Fatalf("n=%d: round trip differs at %d: %g vs %g", n, i, back[i], x[i])
			}
		}

		// Real-input spectra are conjugate-symmetric: spec[k] == conj(spec[n-k]).
		for k := 1; k < n; k++ {
			re := real(spec[k]) - real(spec[n-k])
			im := imag(spec[k]) + imag(spec[n-k])
			if math.Abs(re) > tol || math.Abs(im) > tol {
				t.Fatalf("n=%d: conjugate symmetry violated at bin %d", n, k)
			}
		}

		// And a warm arena must not change the bits.
		s := NewScratch()
		dst := make([]complex128, n)
		RFFTInto(dst, x, s)
		RFFTInto(dst, x, s)
		bitIdenticalC(t, "RFFTInto vs FFTReal", n, dst, spec)
	})
}

// BenchmarkDasLibKernels measures the planned kernel paths the engine runs
// per channel; allocs/op must stay 0 (see TestPlannedPathsAllocFree).
func BenchmarkDasLibKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := NewScratch()
	const n = 4096
	x := randFloats(rng, n)
	cdst := make([]complex128, n)
	fdst := make([]float64, n)
	bb, aa, err := Butter(4, Bandpass, 0.05, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	fp, err := NewFilterPlan(bb, aa)
	if err != nil {
		b.Fatal(err)
	}
	mst := PrepareXCorrMaster(x, n)
	corr := make([]float64, XCorrLen(n, n))

	b.Run("RFFTInto_4096", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			RFFTInto(cdst, x, s)
		}
	})
	b.Run("FFTReal_4096_alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			FFTReal(x)
		}
	})
	b.Run("FiltFiltInto_4096", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fp.FiltFiltInto(fdst, x, s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("XCorrMaster_4096", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mst.XCorrNormalizedInto(corr, x, s)
		}
	})
	b.Run("XCorrNormalized_4096_alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			XCorrNormalized(x, x)
		}
	})
}
