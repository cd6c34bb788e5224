package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/daslib"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/haee"
	"dassa/internal/obs"
	"dassa/internal/obs/trace"
	"dassa/internal/omp"
	"dassa/internal/serve"
	"dassa/internal/wire"
)

// slabReader is the benchmark-owned dass read hook of the traced replay:
// member slabs go through cache (when non-nil) and its loader opens and
// reads the file directly, each call inside a span.
func slabReader(tr *tracer, tree int64, cache *serve.BlockCache) dass.SlabReaderFunc {
	load := func(ctx context.Context, path string, chLo, chHi, tLo, tHi int) (*dasf.Array2D, dasf.IOStats, error) {
		t0 := time.Now()
		r, err := dasf.OpenContext(ctx, path)
		t1 := time.Now()
		tr.add(tree, "dasf.open", t0, t1)
		if err != nil {
			return nil, dasf.IOStats{}, err
		}
		defer r.Close()
		a, err := r.ReadSlab(chLo, chHi, tLo, tHi)
		tr.add(tree, "dasf.read", t1, time.Now())
		return a, r.Stats(), err
	}
	if cache == nil {
		return load
	}
	return func(ctx context.Context, path string, chLo, chHi, tLo, tHi int) (*dasf.Array2D, dasf.IOStats, error) {
		t0 := time.Now()
		key := serve.BlockKey{Path: path, ChLo: chLo, ChHi: chHi, TLo: tLo, THi: tHi}
		a, st, _, err := cache.GetContext(ctx, key, func() (*dasf.Array2D, dasf.IOStats, error) {
			return load(ctx, path, chLo, chHi, tLo, tHi)
		})
		tr.add(tree, "cache.get", t0, time.Now())
		return a, st, err
	}
}

// readProbe replays the /read pipeline through the public layer
// functions: catalog search, view, and the read, whose dass.read span
// (recorded by the program) holds the hook's cache and storage spans, so
// its self time is the stitching of member slabs alone.
func readProbe(tr *tracer, tree int64, cat *dass.Catalog, cache *serve.BlockCache, req request, ts int64) (*dasf.Array2D, error) {
	var entries []dass.Entry
	tr.do(tree, "dass.search", func() { entries = cat.SearchStartCount(ts, req.count) })
	var sub *dass.View
	var err error
	tr.do(tree, "dass.view", func() {
		var v *dass.View
		if v, err = dass.ViewOver(entries); err != nil {
			return
		}
		v = v.WithSlabReader(slabReader(tr, tree, cache))
		sub, err = v.Subset(req.ch0, req.ch1, req.t0, req.t1)
	})
	if err != nil {
		return nil, err
	}
	ctx, collect := traceInto(context.Background(), tr)
	t0 := time.Now()
	arr, _, _, err := sub.WithContext(ctx).ReadPolicy(dass.FailDegrade)
	collect(tree, t0, time.Now())
	if err != nil {
		return nil, err
	}
	return arr, nil
}

// encodeProbe times the JSON encoding of a /read response of arr's shape.
func encodeProbe(tr *tracer, tree int64, arr *dasf.Array2D, files int) {
	tr.do(tree, "serve.encode", func() {
		rows := make([][]float64, arr.Channels)
		for c := range rows {
			rows[c] = arr.Row(c)
		}
		var n countWriter
		enc := json.NewEncoder(&n)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(map[string]any{
			"num_channels": arr.Channels, "num_samples": arr.Samples, "files": files,
			"io": map[string]int64{}, "gaps": 0, "distributed": false, "data": rows,
		}) // encoding plain floats cannot fail
	})
}

// wireProbe times encoding and decoding arr as shard results split the
// way a two-worker coordinator splits it.
func wireProbe(tr *tracer, tree int64, arr *dasf.Array2D) error {
	half := arr.Channels / 2
	for i, rows := range [][2]int{{0, half}, {half, arr.Channels}} {
		data := arr.Data[rows[0]*arr.Samples : rows[1]*arr.Samples]
		res := wire.ShardResult{Shard: i, Channels: rows[1] - rows[0], Samples: arr.Samples}
		var f wire.Frame
		var err error
		tr.do(tree, "wire.encode", func() { f, err = wire.EncodeResult(res, data) })
		if err != nil {
			return err
		}
		tr.do(tree, "wire.decode", func() { _, _, err = wire.DecodeResult(f) })
		if err != nil {
			return err
		}
	}
	return nil
}

// pointKernel runs a per-cell detection kernel over arr on one thread, as
// one engine rank's compute phase does, inside a span named name.
func pointKernel(tr *tracer, tree int64, o *runOut, name string, arr *dasf.Array2D, spec arrayudf.Spec,
	udf func(s *arrayudf.Stencil, scr *daslib.Scratch) float64) *dasf.Array2D {
	var out *dasf.Array2D
	blk := arrayudf.Block{Data: arr, ChLo: 0, ChHi: arr.Channels}
	tr.do(tree, name, func() { out = haee.ApplyMTScratch(omp.NewTeam(1), blk, spec, arr.Samples, udf) })
	o.add(name+"_calls", float64(out.Channels*out.Samples))
	o.add(name+"_bytes", float64(8*(len(arr.Data)+len(out.Data))))
	return out
}

// correlationKernels runs the interferometry chain's DSP kernels over
// every row of arr stage by stage (zero-phase lowpass, resample, real FFT,
// correlation against the preprocessed master row), each stage of each
// row block inside its own span.
func correlationKernels(tr *tracer, tree int64, o *runOut, arr *dasf.Array2D, p detect.InterferometryParams) error {
	b, a, err := daslib.Butter(p.FilterOrder, daslib.Lowpass, p.CutoffHz/(p.Rate/2))
	if err != nil {
		return err
	}
	fp, err := daslib.NewFilterPlan(b, a)
	if err != nil {
		return err
	}
	s := daslib.NewScratch()
	n := arr.Samples
	nr := daslib.ResampleLen(n, p.ResampleP, p.ResampleQ)
	nf := nr &^ 1 // the packed real FFT takes an even length
	master := make([]float64, nr)
	{
		filt := make([]float64, n)
		if err := fp.FiltFiltInto(filt, arr.Row(p.MasterChannel), s); err != nil {
			return err
		}
		if err := daslib.ResampleInto(master, filt, p.ResampleP, p.ResampleQ, s); err != nil {
			return err
		}
	}
	const block = 32
	filt := make([]float64, block*n)
	res := make([]float64, block*nr)
	spec := make([]complex128, nf) // RFFT fills the whole spectrum
	corr := make([]float64, daslib.XCorrLen(nr, nr))
	for lo := 0; lo < arr.Channels; lo += block {
		hi := min(lo+block, arr.Channels)
		k := hi - lo
		var stageErr error
		tr.do(tree, "daslib.filtfilt", func() {
			for i := 0; i < k && stageErr == nil; i++ {
				stageErr = fp.FiltFiltInto(filt[i*n:(i+1)*n], arr.Row(lo+i), s)
			}
		})
		tr.do(tree, "daslib.resample", func() {
			for i := 0; i < k && stageErr == nil; i++ {
				stageErr = daslib.ResampleInto(res[i*nr:(i+1)*nr], filt[i*n:(i+1)*n], p.ResampleP, p.ResampleQ, s)
			}
		})
		if stageErr != nil {
			return stageErr
		}
		tr.do(tree, "daslib.rfft", func() {
			for i := 0; i < k; i++ {
				daslib.RFFTInto(spec, res[i*nr:i*nr+nf], s)
			}
		})
		tr.do(tree, "daslib.xcorr", func() {
			for i := 0; i < k; i++ {
				daslib.XCorrInto(corr, res[i*nr:(i+1)*nr], master, s)
			}
		})
		rows := float64(k)
		o.add("daslib.filtfilt_calls", rows)
		o.add("daslib.filtfilt_bytes", rows*16*float64(n))
		o.add("daslib.resample_calls", rows)
		o.add("daslib.resample_bytes", rows*8*float64(n+nr))
		o.add("daslib.rfft_calls", rows)
		o.add("daslib.rfft_bytes", rows*(8*float64(nf)+16*float64(len(spec))))
		o.add("daslib.xcorr_calls", rows)
		o.add("daslib.xcorr_bytes", rows*8*float64(2*nr+len(corr)))
	}
	return nil
}

// traceInto opens a program trace so the engine, dass and cluster record
// their own spans; collect grafts them into tree once the work is done.
func traceInto(ctx context.Context, tr *tracer) (context.Context, func(tree int64, lo, hi time.Time)) {
	if tr == nil {
		return ctx, func(int64, time.Time, time.Time) {}
	}
	store := trace.NewStore(1, 1)
	id := trace.NewID()
	ctx, root := trace.New(ctx, store, "perfbench", id, "perfbench.op")
	return ctx, func(tree int64, lo, hi time.Time) {
		root.End()
		if td := store.Get(id); td != nil {
			var kept []trace.SpanData
			for _, sd := range td.Spans {
				if sd.Name != "perfbench.op" {
					kept = append(kept, clampSpan(sd, lo, hi))
				}
			}
			tr.graft(tree, kept)
		}
	}
}

// clampSpan trims a program span to [lo, hi], the benchmark span that
// caused it: a span the program ends a moment after handing back its
// result would otherwise poke out of its parent.
func clampSpan(sd trace.SpanData, lo, hi time.Time) trace.SpanData {
	s := max(sd.StartUnixNano, lo.UnixNano())
	e := min(sd.StartUnixNano+sd.DurNS, hi.UnixNano())
	sd.StartUnixNano, sd.DurNS = s, max(e-s, 0)
	return sd
}

// countWriter counts bytes written to it.
type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// ulpDiff is the distance between a and b in units in the last place;
// two NaNs are equal.
func ulpDiff(a, b float64) uint64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		if math.IsNaN(a) && math.IsNaN(b) {
			return 0
		}
		return math.MaxUint64
	}
	ia, ib := ordered(a), ordered(b)
	if ia > ib {
		return uint64(ia - ib)
	}
	return uint64(ib - ia)
}

// ordered maps a float's bits onto integers that sort like the floats.
func ordered(f float64) int64 {
	i := int64(math.Float64bits(f))
	if i < 0 {
		i = math.MinInt64 - i
	}
	return i
}

// sameArray reports the first element where got and want differ by more
// than maxULP.
func sameArray(got, want *dasf.Array2D, maxULP uint64) error {
	if got == nil || want == nil {
		return fmt.Errorf("missing array")
	}
	if got.Channels != want.Channels || got.Samples != want.Samples {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.Channels, got.Samples, want.Channels, want.Samples)
	}
	for i := range want.Data {
		if ulpDiff(got.Data[i], want.Data[i]) > maxULP {
			return fmt.Errorf("element (%d,%d) = %v, want %v", i/want.Samples, i%want.Samples, got.Data[i], want.Data[i])
		}
	}
	return nil
}

// counterValue reads a counter the program registered on reg.
func counterValue(reg *obs.Registry, name string, labels ...obs.Label) float64 {
	return float64(reg.Counter(name, "", labels...).Value())
}
