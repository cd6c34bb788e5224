package detect

import (
	"math"
	"math/rand"
	"testing"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/daslib"
	"dassa/internal/haee"
	"dassa/internal/omp"
)

// rowKernelTol is the relative bound between the row kernel and the
// stencil UDF (DESIGN.md §15): the two sum the same squares in different
// orders, so they differ by rounding only.
const rowKernelTol = 1e-13

// within reports whether got and want agree to tol relative to the larger
// magnitude; exact zeros must match exactly.
func within(got, want, tol float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= tol*math.Max(math.Abs(got), math.Abs(want))
}

// staltaRows are the property-test rows, one channel each: plain noise,
// a row shorter than the long window, a NaN-gapped row (including a NaN
// first sample, which the left-edge clamp replicates), an all-zero row, and
// a 10⁵ burst followed by quiet noise.
func staltaRows(rng *rand.Rand, n int) [][]float64 {
	noise := func(m int, amp float64) []float64 {
		x := make([]float64, m)
		for i := range x {
			x[i] = amp * rng.NormFloat64()
		}
		return x
	}
	short := noise(n, 1)
	for i := 40; i < n; i++ {
		short[i] = 0 // shorter than LTA: only the first 40 samples carry energy
	}
	gapped := noise(n, 1)
	gapped[0] = math.NaN()
	for i := n / 3; i < n/3+n/5; i++ {
		gapped[i] = math.NaN()
	}
	burst := noise(n, 1)
	for i := n / 4; i < n/4+n/10; i++ {
		burst[i] *= 1e5
	}
	return [][]float64{noise(n, 1), short, gapped, make([]float64, n), burst}
}

// TestSTALTARatioIntoMatchesStencil pins the row kernel to the stencil
// UDF run through the engine's scratch path, within rowKernelTol relative,
// over every row shape and the strides production uses.
func TestSTALTARatioIntoMatchesStencil(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	team := omp.NewTeam(2)
	scr := daslib.NewScratch()
	for _, n := range []int{1, 9, 60, 700} {
		rows := staltaRows(rng, n)
		data := dasf.NewArray2D(len(rows), n)
		for c, r := range rows {
			copy(data.Row(c), r)
		}
		blk := arrayudf.Block{Data: data, ChLo: 0, ChHi: len(rows)}
		for _, p := range []STALTAParams{
			{STASamples: 10, LTASamples: 100, Stride: 1},
			{STASamples: 4, LTASamples: 50, Stride: 3},
			{STASamples: 7, LTASamples: 900, Stride: 10}, // LTA longer than every row
		} {
			want := haee.ApplyMTScratch(team, blk, p.Spec(), n, p.UDFScratch())
			got := make([]float64, p.Spec().OutSamples(n))
			for c, r := range rows {
				p.RatioInto(got, r, scr)
				for i, g := range got {
					if w := want.At(c, i); !within(g, w, rowKernelTol) {
						t.Fatalf("n=%d %+v row %d cell %d: row kernel %v, stencil %v (rel %.2g)",
							n, p, c, i, g, w, math.Abs(g-w)/math.Abs(w))
					}
				}
			}
		}
	}
}

// TestSTALTARatioIntoEdges checks the semantics the row form must share
// with the stencil: an all-zero window gives exactly 0, a NaN gap is
// silence over the full window length, and a wrong-length dst panics.
func TestSTALTARatioIntoEdges(t *testing.T) {
	p := STALTAParams{STASamples: 2, LTASamples: 4}
	dst := make([]float64, 6)
	p.RatioInto(dst, []float64{0, 0, 0, 0, 0, 0}, nil)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("all-zero row: ratio[%d] = %v, want 0", i, v)
		}
	}
	// At t=3 the STA window {NaN, 2} holds 4/2 and the LTA window
	// {1, 1, NaN, 2} holds 6/4.
	p.RatioInto(dst, []float64{1, 1, math.NaN(), 2, 0, 0}, nil)
	if want := (4.0 / 2) / (6.0 / 4); dst[3] != want {
		t.Fatalf("NaN gap: ratio[3] = %v, want %v", dst[3], want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RatioInto accepted a wrong-length dst")
		}
	}()
	p.RatioInto(dst[:5], make([]float64, 6), nil)
}

// directRatio is the per-cell definition the row kernel must reproduce:
// each window summed afresh, left edge clamped to x[0], NaN as silence.
func directRatio(p STALTAParams, x []float64) []float64 {
	stride := max(p.Stride, 1)
	meanSq := func(t, n int) float64 {
		var s float64
		for j := t - n + 1; j <= t; j++ {
			if v := x[max(j, 0)]; !math.IsNaN(v) {
				s += v * v
			}
		}
		return s / float64(n)
	}
	out := make([]float64, p.Spec().OutSamples(len(x)))
	for i := range out {
		sta, lta := meanSq(i*stride, p.STASamples), meanSq(i*stride, p.LTASamples)
		if lta > 0 {
			out[i] = sta / lta
		}
	}
	return out
}

// FuzzSTALTARow compares RatioInto with the direct per-cell sum on
// fuzzer-built rows. Each sample takes two bytes: the first selects NaN,
// zero, or a decade in 10⁻²..10³ (the 10⁵ amplitude dynamic range of a
// burst over quiet ground), the second the mantissa and sign.
func FuzzSTALTARow(f *testing.F) {
	f.Add([]byte{2, 10, 3, 200, 0, 0, 1, 0, 7, 99}, uint8(1), uint8(3), uint8(1))
	f.Add([]byte{0, 0, 2, 1, 2, 2, 6, 255, 2, 3}, uint8(2), uint8(9), uint8(3))
	f.Add(make([]byte, 64), uint8(4), uint8(40), uint8(10))
	f.Fuzz(func(t *testing.T, raw []byte, sta, lta, stride uint8) {
		if len(raw) > 2048 {
			raw = raw[:2048]
		}
		x := make([]float64, len(raw)/2)
		for i := range x {
			sel, m := raw[2*i], raw[2*i+1]
			switch sel % 8 {
			case 0:
				x[i] = math.NaN()
			case 1:
				x[i] = 0
			default:
				v := (1 + float64(m&0x7f)/128) * math.Pow(10, float64(sel%8)-4)
				if m&0x80 != 0 {
					v = -v
				}
				x[i] = v
			}
		}
		p := STALTAParams{STASamples: 1 + int(sta)%64, Stride: int(stride) % 12}
		p.LTASamples = p.STASamples + 1 + int(lta)
		got := make([]float64, p.Spec().OutSamples(len(x)))
		p.RatioInto(got, x, nil)
		for i, w := range directRatio(p, x) {
			if !within(got[i], w, rowKernelTol) {
				t.Fatalf("%+v cell %d: row kernel %v, direct %v", p, i, got[i], w)
			}
		}
	})
}
