package detect

import (
	"fmt"
	"math"

	"dassa/internal/arrayudf"
	"dassa/internal/daslib"
)

// STA/LTA (short-term average over long-term average) is the classical
// single-channel seismic trigger that the local-similarity method (Li et
// al. 2018, the paper's ref [18]) was designed to beat on large-N arrays:
// it fires on any energy burst, coherent or not, so it false-triggers on
// local noise that local similarity rejects. Implementing it gives the
// repository the comparison baseline for the detection case study.

// STALTAParams configures the trigger.
type STALTAParams struct {
	// STASamples and LTASamples are the short and long window lengths;
	// STA < LTA.
	STASamples int
	LTASamples int
	// Stride evaluates the ratio every Stride samples (0/1 = all).
	Stride int
}

// Validate checks the parameters.
func (p STALTAParams) Validate() error {
	if p.STASamples < 1 || p.LTASamples <= p.STASamples {
		return fmt.Errorf("detect: STA/LTA needs 1 ≤ STA < LTA, got %d/%d", p.STASamples, p.LTASamples)
	}
	return nil
}

// Spec returns the ArrayUDF spec: STA/LTA is single-channel, so no ghost
// zones are needed — which is also why it cannot use spatial coherence.
func (p STALTAParams) Spec() arrayudf.Spec {
	return arrayudf.Spec{TimeStride: p.Stride}
}

// UDF returns the trigger as a PointUDF: the ratio of mean squared
// amplitude in the trailing short window to the trailing long window.
// NaN-masked gaps count as silence, so a degraded span cannot trigger.
//
// UDF is a thin shim over UDFScratch with a nil (allocate-fresh) arena.
func (p STALTAParams) UDF() arrayudf.PointUDF {
	udf := p.UDFScratch()
	return func(s *arrayudf.Stencil) float64 { return udf(s, nil) }
}

// UDFScratch is UDF with the two windows borrowed from a per-thread
// scratch arena.
func (p STALTAParams) UDFScratch() func(s *arrayudf.Stencil, scr *daslib.Scratch) float64 {
	return func(s *arrayudf.Stencil, scr *daslib.Scratch) float64 {
		sta := meanSquareWindow(s, scr, p.STASamples)
		lta := meanSquareWindow(s, scr, p.LTASamples)
		if lta <= 0 {
			return 0
		}
		return sta / lta
	}
}

// meanSquareWindow computes the mean squared amplitude of the trailing
// n-sample window, skipping NaN gap markers — numerically identical to
// zeroing them (adding 0.0 is exact) without materializing a cleaned copy.
func meanSquareWindow(s *arrayudf.Stencil, scr *daslib.Scratch, n int) float64 {
	w := scr.Float(n)
	s.WindowInto(w, -(n - 1), 0, 0)
	var sum float64
	for _, v := range w {
		if !math.IsNaN(v) {
			sum += v * v
		}
	}
	scr.ReleaseFloat(w)
	return sum / float64(n)
}

// Ratio computes the STA/LTA series for one channel directly: out[i] is
// the ratio at sample i·stride. It is a thin allocating shim over RatioInto.
func (p STALTAParams) Ratio(x []float64) []float64 {
	dst := make([]float64, p.Spec().OutSamples(len(x)))
	p.RatioInto(dst, x, nil)
	return dst
}

// RatioInto is the row form of the trigger, the one every production path
// runs (DESIGN.md §15): dst[i] is the ratio at sample i·stride of the
// channel x, and len(dst) must be Spec().OutSamples(len(x)). It keeps the
// stencil UDF's semantics — trailing windows, the left edge clamped to
// x[0], NaN gap samples counted as silence with the full window length
// still the divisor, and 0 wherever the long window holds no energy — but
// each cell costs O(1): both windows come from one prefix sum of squares.
//
// The prefix is compensated — a double-double running total, held as two
// buffers borrowed from scr — so a window difference taken after a loud
// burst keeps its relative accuracy: a plain prefix loses the quiet
// window's low bits to the burst's magnitude. Samples other than NaN gaps
// must be finite; an infinite square would poison every later prefix.
func (p STALTAParams) RatioInto(dst, x []float64, scr *daslib.Scratch) {
	stride := max(p.Stride, 1)
	if want := p.Spec().OutSamples(len(x)); len(dst) != want {
		panic(fmt.Sprintf("detect: RatioInto dst length %d, want %d", len(dst), want))
	}
	if len(x) == 0 {
		return
	}
	hi, lo := scr.Float(len(x)+1), scr.Float(len(x)+1)
	var s, c float64
	for i, v := range x {
		sq := 0.0
		if !math.IsNaN(v) {
			sq = v * v
		}
		// Double-double accumulation: TwoSum recovers the rounding error
		// e of s+sq exactly, and the renormalization keeps |c| within half
		// an ulp of s, so every prefix is exact to about ε²·s.
		t := s + sq
		b := t - s
		e := (s - (t - b)) + (sq - b) + c
		s = t + e
		c = e - (s - t)
		hi[i+1], lo[i+1] = s, c
	}
	edge := hi[1] // x[0]², or 0 for a NaN first sample
	// window returns the sum of squares over the trailing n samples ending
	// at t, counting samples left of the row as copies of x[0].
	window := func(t, n int) float64 {
		from := t - n + 1
		if from >= 0 {
			return (hi[t+1] - hi[from]) + (lo[t+1] - lo[from])
		}
		return (hi[t+1] + lo[t+1]) + float64(-from)*edge
	}
	for i := range dst {
		t := i * stride
		sta := window(t, p.STASamples) / float64(p.STASamples)
		lta := window(t, p.LTASamples) / float64(p.LTASamples)
		if lta <= 0 {
			dst[i] = 0
			continue
		}
		dst[i] = sta / lta
	}
	scr.ReleaseFloat(lo)
	scr.ReleaseFloat(hi)
}

// TriggerRate returns the fraction of evaluated points whose ratio exceeds
// thresh — the false-trigger metric the comparison bench reports.
func TriggerRate(ratios []float64, thresh float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	hits := 0
	for _, v := range ratios {
		if v > thresh {
			hits++
		}
	}
	return float64(hits) / float64(len(ratios))
}

// MaxRatio returns the series maximum (detection strength at the event).
func MaxRatio(ratios []float64) float64 {
	best := math.Inf(-1)
	for _, v := range ratios {
		if v > best {
			best = v
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}
