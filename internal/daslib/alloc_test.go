package daslib_test

// An external test package, so the allocation pin can cover kernels built
// on daslib's scratch arena in packages that import daslib.

import (
	"math/rand"
	"testing"

	"dassa/internal/daslib"
	"dassa/internal/detect"
)

// TestPlannedPathsAllocFree pins the tentpole promise: after warm-up, the
// planned destination-passing kernels perform zero heap allocations per
// call. It covers the DSP kernels and detect's STA/LTA row kernel, which
// borrows its prefix buffers from the same arena. Runs under -race in CI — the race detector's shadow memory is not
// Go-heap, so AllocsPerRun still reads 0 on a truly alloc-free path.
func TestPlannedPathsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := daslib.NewScratch()
	const n = 4096
	x := daslib.RandFloats(rng, n)
	xc := daslib.RandComplex(rng, n)
	xcOdd := daslib.RandComplex(rng, 1000)
	cdst := make([]complex128, n)
	cdstOdd := make([]complex128, 1000)
	fdst := make([]float64, n)

	b, a, err := daslib.Butter(4, daslib.Bandpass, 0.05, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := daslib.NewFilterPlan(b, a)
	if err != nil {
		t.Fatal(err)
	}
	mst := daslib.PrepareXCorrMaster(x, n)
	corr := make([]float64, daslib.XCorrLen(n, n))
	res := make([]float64, daslib.ResampleLen(n, 1, 4))

	sl := detect.STALTAParams{STASamples: 10, LTASamples: 100, Stride: 3}
	ratio := make([]float64, sl.Spec().OutSamples(n))

	pow2 := daslib.PlanFFT(n)
	blue := daslib.PlanFFT(1000)
	cases := []struct {
		name string
		fn   func()
	}{
		{"FFTInto/pow2", func() { pow2.FFTInto(cdst, xc, s) }},
		{"FFTInto/bluestein", func() { blue.FFTInto(cdstOdd, xcOdd, s) }},
		{"IFFTInto", func() { pow2.IFFTInto(cdst, xc, s) }},
		{"RFFTInto", func() { daslib.RFFTInto(cdst, x, s) }},
		{"IRFFTInto", func() { daslib.IRFFTInto(fdst, cdst, s) }},
		{"DemeanInPlace", func() { daslib.DemeanInPlace(fdst) }},
		{"DetrendInPlace", func() { daslib.DetrendInPlace(fdst) }},
		{"TaperInPlace", func() { daslib.TaperInPlace(fdst, 0.1) }},
		{"FiltFiltInto", func() {
			if err := fp.FiltFiltInto(fdst, x, s); err != nil {
				t.Fatal(err)
			}
		}},
		{"ResampleInto", func() {
			if err := daslib.ResampleInto(res, x, 1, 4, s); err != nil {
				t.Fatal(err)
			}
		}},
		{"XCorrInto", func() { daslib.XCorrInto(corr, x, x, s) }},
		{"XCorrNormalizedInto", func() { daslib.XCorrNormalizedInto(corr, x, x, s) }},
		{"XCorrMaster", func() { mst.XCorrNormalizedInto(corr, x, s) }},
		{"RatioInto", func() { sl.RatioInto(ratio, x, s) }},
	}
	for _, c := range cases {
		c.fn() // warm plan caches and grow the scratch free lists
		if avg := testing.AllocsPerRun(10, c.fn); avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, avg)
		}
	}
}
