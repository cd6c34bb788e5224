package detect

import (
	"context"
	"fmt"

	"dassa/internal/arrayudf"
	"dassa/internal/daslib"
	"dassa/internal/dass"
	"dassa/internal/pfs"
)

// The production ambient-noise workflow (Dou et al. 2017, the paper's
// ref [16]) does not correlate a whole recording at once: it splits the
// record into windows, cross-correlates each window against the master,
// and stacks the per-window correlations so uncorrelated noise averages
// out while the coherent travel-time structure accumulates. The paper's
// §IV notes exactly this: "during the stacking operation of the DAS data
// analysis pipeline, a 3D data array with a striping size as the third
// dimension may be produced" — the (channel × lag × window) intermediate
// this file materializes per channel before reducing over windows.

// StackingParams extends InterferometryParams with the windowing scheme.
type StackingParams struct {
	InterferometryParams
	// WindowSamples is the raw-sample length of one correlation window.
	WindowSamples int
	// OverlapSamples shifts successive windows by WindowSamples−Overlap.
	OverlapSamples int
}

// Validate checks the windowing on top of the base parameters.
func (p StackingParams) Validate() error {
	if err := p.InterferometryParams.Validate(); err != nil {
		return err
	}
	if p.WindowSamples < 8 {
		return fmt.Errorf("detect: stacking window %d too short", p.WindowSamples)
	}
	if p.OverlapSamples < 0 || p.OverlapSamples >= p.WindowSamples {
		return fmt.Errorf("detect: overlap %d must be in [0, window %d)", p.OverlapSamples, p.WindowSamples)
	}
	return nil
}

// NumWindows returns how many windows fit in nt raw samples.
func (p StackingParams) NumWindows(nt int) int {
	hop := p.WindowSamples - p.OverlapSamples
	if nt < p.WindowSamples {
		return 0
	}
	return (nt-p.WindowSamples)/hop + 1
}

// StackedRowLen returns the output lag-axis length.
func (p StackingParams) StackedRowLen() int {
	return p.InterferometryParams.RowLen(p.WindowSamples)
}

// PrepareStackedMaster preprocesses the master channel per window and
// returns the per-window series plus the per-window prepared correlation
// spectra — every worker needs all of them, so in pure MPI this payload
// (windows × resampled length) replicates per core, amplifying the
// Figure 8 memory argument.
type StackedMaster struct {
	Windows [][]float64
	// Corrs[w] is the reusable time-reversed padded spectrum of Windows[w];
	// nil entries (hand-built masters) fall back to pairwise correlation.
	Corrs []*daslib.XCorrMaster
}

// Bytes estimates the payload size.
func (m *StackedMaster) Bytes() int64 {
	var n int64
	for _, w := range m.Windows {
		n += int64(len(w)) * 8
	}
	for _, c := range m.Corrs {
		if c != nil {
			n += int64(c.Len()) * 16
		}
	}
	return n
}

// prepareStackedMaster builds the per-window master series from the raw
// master row.
func (p StackingParams) prepareStackedMaster(raw []float64) (*StackedMaster, error) {
	nw := p.NumWindows(len(raw))
	if nw == 0 {
		return nil, fmt.Errorf("detect: record (%d samples) shorter than one window (%d)", len(raw), p.WindowSamples)
	}
	hop := p.WindowSamples - p.OverlapSamples
	m := &StackedMaster{Windows: make([][]float64, nw), Corrs: make([]*daslib.XCorrMaster, nw)}
	for w := 0; w < nw; w++ {
		series, err := p.Preprocess(raw[w*hop : w*hop+p.WindowSamples])
		if err != nil {
			return nil, err
		}
		m.Windows[w] = series
		m.Corrs[w] = daslib.PrepareXCorrMaster(series, len(series))
	}
	return m, nil
}

// PrepareStackedMasterFromView reads the master channel from the view and
// builds the per-window payload — the rank-level Prepare step for engine
// runs.
func (p StackingParams) PrepareStackedMasterFromView(v *dass.View) (*StackedMaster, pfs.Trace, error) {
	nch, nt := v.Shape()
	if p.MasterChannel >= nch {
		return nil, pfs.Trace{}, fmt.Errorf("detect: master channel %d outside view (%d channels)", p.MasterChannel, nch)
	}
	sub, err := v.Subset(p.MasterChannel, p.MasterChannel+1, 0, nt)
	if err != nil {
		return nil, pfs.Trace{}, err
	}
	raw, tr, _, err := sub.ReadPolicy(p.FailPolicy)
	if err != nil {
		return nil, tr, err
	}
	m, err := p.prepareStackedMaster(raw.Row(0))
	return m, tr, err
}

// StackedUDF returns the per-channel row UDF: window the channel, correlate
// each window with the matching master window, stack by averaging. The
// (lag × window) intermediate lives only inside one evaluation — the 3D
// array never materializes globally, which is the memory point of doing
// stacking inside the UDF. A thin allocating shim over
// StackedUDFIntoContext, without cancellation.
func (p StackingParams) StackedUDF(master *StackedMaster) func(s *arrayudf.Stencil) []float64 {
	rowLen := p.StackedRowLen()
	into := p.StackedUDFIntoContext(context.Background(), master)
	return func(s *arrayudf.Stencil) []float64 {
		stack := make([]float64, rowLen)
		into(s, stack, nil)
		return stack
	}
}

// StackedUDFIntoContext is the destination-passing form the engine runs:
// the stacked correlation is accumulated straight into dst (length
// StackedRowLen) and every per-window intermediate — preprocessed series,
// raw correlation, trimmed row — is borrowed from the scratch arena, so
// stacking W windows costs zero allocations after warm-up instead of 3·W
// slices per channel. ctx is checked at window boundaries, the stacking
// engine's natural tile — one window is one filter+FFT correlation, heavy
// enough that per-window checks cost nothing and a cancelled run stops
// within one window's work. The panic unwinds through the thread team and
// mpi.Run as the context's error.
func (p StackingParams) StackedUDFIntoContext(ctx context.Context, master *StackedMaster) func(s *arrayudf.Stencil, dst []float64, scr *daslib.Scratch) {
	hop := p.WindowSamples - p.OverlapSamples
	resLen := p.resampledLen(p.WindowSamples)
	return func(s *arrayudf.Stencil, dst []float64, scr *daslib.Scratch) {
		raw := s.Row(0)
		clear(dst)
		nw := min(p.NumWindows(len(raw)), len(master.Windows))
		if nw == 0 {
			return
		}
		series := scr.Float(resLen)
		trimmed := scr.Float(len(dst))
		for w := 0; w < nw; w++ {
			if err := ctx.Err(); err != nil {
				panic(fmt.Errorf("detect: stacked correlate: %w", err))
			}
			if err := p.PreprocessInto(series, raw[w*hop:w*hop+p.WindowSamples], scr); err != nil {
				panic(fmt.Errorf("detect: stacked preprocess: %w", err))
			}
			mw := master.Windows[w]
			corr := scr.Float(daslib.XCorrLen(len(series), len(mw)))
			if w < len(master.Corrs) && master.Corrs[w] != nil {
				master.Corrs[w].XCorrNormalizedInto(corr, series, scr)
			} else {
				daslib.XCorrNormalizedInto(corr, series, mw, scr)
			}
			TrimLagsInto(trimmed, corr, len(series), len(mw))
			scr.ReleaseFloat(corr)
			for i, v := range trimmed {
				dst[i] += v
			}
		}
		scr.ReleaseFloat(trimmed)
		scr.ReleaseFloat(series)
		inv := 1 / float64(nw)
		for i := range dst {
			dst[i] *= inv
		}
	}
}
