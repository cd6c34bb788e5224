package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/haee"
	"dassa/internal/mpi"
	"dassa/internal/obs"
	"dassa/internal/pfs"
)

// batchMaxULP bounds how far a batch output may sit from the 1 node x 1
// core independent-read reference. Every op computes each output cell from
// the same inputs in the same order whatever the layout, so the bound is
// tight; it only leaves room for a reordered floating-point reduction.
const batchMaxULP = 4

// batchOp is one das_analyze operation, built the way das_analyze builds it.
type batchOp struct {
	name string
	spec arrayudf.Spec
	run  func(e *haee.Engine, v *dass.View, out string) (haee.Report, error)
}

type batchWL struct {
	cfg  dasgen.Config
	dir  string
	view *dass.View
	eng  *haee.Engine
	ops  []batchOp
	// Filled by prepare.
	refs     map[string]*dasf.Array2D
	data     *dasf.Array2D // the whole VCA, for the traced kernel replay
	mpiStats map[string]mpi.Snapshot
	// laneOps is how many ops the untraced window completed.
	laneOps int
}

func newBatch(seed int64) workload {
	return &batchWL{cfg: dasgen.Config{
		Channels: 256, SampleRate: 100, FileSeconds: 8, NumFiles: 24, Seed: seed,
	}}
}

func (w *batchWL) datasets() map[string]any {
	nch, nt := w.cfg.Channels, w.cfg.TotalSamples()
	return map[string]any{"vca": map[string]any{
		"channels": nch, "samples": nt, "files": w.cfg.NumFiles,
		"decoded_bytes": 8 * nch * nt, "cache_bytes": 0,
	}}
}

func (w *batchWL) setup(dir string) error {
	w.dir = dir
	raw := filepath.Join(dir, "raw")
	if _, err := dasgen.Generate(raw, w.cfg, dasgen.Fig10Events(w.cfg)); err != nil {
		return err
	}
	cat, err := dass.ScanDir(raw)
	if err != nil {
		return err
	}
	vca := filepath.Join(dir, "merged.vca.dasf")
	if _, err := dass.CreateVCA(vca, cat.Entries()); err != nil {
		return err
	}
	if w.view, err = dass.OpenView(vca); err != nil {
		return err
	}
	w.eng = haee.New(haee.Config{Nodes: 2, CoresPerNode: 1, Mode: haee.Hybrid,
		ReadStrategy: arrayudf.CommAvoidingRead})
	_, nt := w.view.Shape()
	w.ops = batchOps(w.cfg.SampleRate, nt)
	// Warm up: every op once on a narrow channel band, so FFT, filter and
	// resample plans exist before the first timed op.
	warm, err := w.view.SubsetChannels(0, 16)
	if err != nil {
		return err
	}
	for _, op := range w.ops {
		if _, err := op.run(w.eng, warm, ""); err != nil {
			return fmt.Errorf("warm-up %s: %w", op.name, err)
		}
	}
	return nil
}

// interferometry is das_analyze's default interferometry configuration.
func interferometry(rate float64) detect.InterferometryParams {
	return detect.InterferometryParams{
		Rate: rate, FilterOrder: 3, CutoffHz: rate / 8, ResampleP: 1, ResampleQ: 2,
		MasterChannel: 0, MaxLag: 128,
	}
}

// batchLocalSimi and batchSTALTA are das_analyze's default detection
// parameters.
func batchLocalSimi() detect.LocalSimiParams {
	return detect.LocalSimiParams{M: 25, K: 1, L: 4, Stride: 10}
}

func batchSTALTA(rate float64) detect.STALTAParams {
	return detect.STALTAParams{STASamples: max(int(rate/5), 2), LTASamples: max(int(4*rate), 3), Stride: 10}
}

// batchOps builds the four ops with das_analyze's defaults.
func batchOps(rate float64, nt int) []batchOp {
	ip := interferometry(rate)
	sp := detect.StackingParams{InterferometryParams: ip, WindowSamples: max(nt/8, 64)}
	lp, tp := batchLocalSimi(), batchSTALTA(rate)
	return []batchOp{
		{name: "interferometry", run: func(e *haee.Engine, v *dass.View, out string) (haee.Report, error) {
			_, vnt := v.Shape()
			parts := ip.Workload(vnt)
			return e.RunRows(v, haee.RowsWorkload{RowLen: parts.RowLen, Prepare: parts.Prepare, UDF: parts.UDF}, out)
		}},
		{name: "stacked", run: func(e *haee.Engine, v *dass.View, out string) (haee.Report, error) {
			return e.RunRows(v, haee.RowsWorkload{
				RowLen: sp.StackedRowLen(),
				Prepare: func(c *mpi.Comm, v *dass.View) (any, int64, pfs.Trace) {
					m, tr, err := sp.PrepareStackedMasterFromView(v)
					if err != nil {
						panic(err)
					}
					return m, m.Bytes(), tr
				},
				UDF: func(s *arrayudf.Stencil, shared any) []float64 {
					return sp.StackedUDF(shared.(*detect.StackedMaster))(s)
				},
			}, out)
		}},
		{name: "localsimi", spec: lp.Spec(), run: func(e *haee.Engine, v *dass.View, out string) (haee.Report, error) {
			return e.RunPoints(v, haee.PointsWorkload{Spec: lp.Spec(), UDF: lp.UDF()}, out)
		}},
		{name: "stalta", spec: tp.Spec(), run: func(e *haee.Engine, v *dass.View, out string) (haee.Report, error) {
			return e.RunPoints(v, haee.PointsWorkload{Spec: tp.Spec(), UDF: tp.UDF()}, out)
		}},
	}
}

// prepare computes each op's reference on 1 node x 1 core with
// independent reads, and for a traced run loads the VCA for the kernel
// replay and counts each op's read-phase MPI traffic.
func (w *batchWL) prepare(traced bool) error {
	ref := haee.New(haee.Config{Nodes: 1, CoresPerNode: 1, Mode: haee.Hybrid})
	w.refs = map[string]*dasf.Array2D{}
	for _, op := range w.ops {
		rep, err := op.run(ref, w.view, "")
		if err != nil {
			return fmt.Errorf("reference %s: %w", op.name, err)
		}
		w.refs[op.name] = rep.Output
	}
	if !traced {
		return nil
	}
	var err error
	if w.data, _, err = w.view.Read(); err != nil {
		return err
	}
	w.mpiStats = map[string]mpi.Snapshot{}
	for _, op := range w.ops {
		spec := op.spec
		spec.ReadStrategy = arrayudf.CommAvoidingRead
		world, err := mpi.Run(2, func(c *mpi.Comm) { arrayudf.LoadBlock(c, w.view, spec) })
		if err != nil {
			return err
		}
		w.mpiStats[op.name] = world.Stats()
	}
	return nil
}

func (w *batchWL) measure(d time.Duration, tr *tracer) (*runOut, error) {
	o := newRunOut("pass", 1)
	nch, nt := w.view.Shape()
	chsec := float64(nch) * float64(nt) / w.cfg.SampleRate
	limit := -1
	if tr != nil {
		limit = w.laneOps
	}
	before := dasfCounters()
	smp := startSampler()
	start := time.Now()
	o.start = start
	var busy time.Duration
	var imbalance, ranks float64
	quakeChecked := false
	for n := 0; ; {
		if limit < 0 && n > 0 && time.Since(start) >= d {
			break
		}
		if limit >= 0 && n >= limit {
			break
		}
		passStart := time.Now()
		passBusy := busy
		for _, op := range w.ops {
			tree := tr.tree()
			opStart := time.Now()
			v := w.view
			ctx, collect := traceInto(context.Background(), tr)
			if tr != nil {
				v = v.WithSlabReader(slabReader(tr, tree, nil)).WithContext(ctx)
			}
			out := filepath.Join(w.dir, op.name+".out.dasf")
			rep, err := op.run(w.eng, v, out)
			lat := time.Since(opStart)
			collect(tree, opStart, time.Now())
			if tr != nil && err == nil {
				if err := w.replayLayers(tr, tree, o, op, rep); err != nil {
					return nil, err
				}
			}
			// The op's wall time ends here; its checks are outside it.
			opEnd := time.Now()
			o.busy(opEnd.Sub(opStart))
			tr.add(tree, "bench.op", opStart, opEnd)
			n++
			if err != nil {
				o.fail(true, "%s: %v", op.name, err)
				continue
			}
			busy += lat
			o.ok(op.name, lat, chsec)
			c := rep.Phases.Stat(obs.PhaseCompute)
			if c.MeanMS > 0 {
				imbalance += c.MaxMS / c.MeanMS
				ranks++
			}
			o.counts["haee.mem_per_node_bytes"] = max(o.counts["haee.mem_per_node_bytes"], float64(rep.MemPerNode))
			if s, ok := w.mpiStats[op.name]; ok {
				o.add("mpi.exchange_bytes", float64(s.Bytes))
				o.add("mpi.exchange_rounds", float64(s.Messages))
				if s.Alltoalls == 0 && s.Broadcasts > 0 {
					// The world's traffic was all broadcasts.
					o.add("mpi.bcast_bytes", float64(s.Bytes))
				}
			}
			if err := sameArray(rep.Output, w.refs[op.name], batchMaxULP); err != nil {
				o.fail(false, "%s output vs 1x1 reference: %v", op.name, err)
			}
			if op.name == "localsimi" && !quakeChecked {
				quakeChecked = true
				if err := w.quakeFound(rep.Output); err != nil {
					o.fail(false, "%v", err)
				}
			}
		}
		o.latency("pass", time.Since(passStart))
		if b := busy - passBusy; b > 0 {
			o.rates = append(o.rates, float64(len(w.ops))*chsec/b.Seconds())
		}
		o.laneOps[0] = n
	}
	smp.finish(o)
	o.window = busy
	storageDeltas(o, before)
	if ranks > 0 {
		o.counts["haee.compute_imbalance"] = imbalance / ranks
	}
	if tr == nil {
		w.laneOps = o.laneOps[0]
	}
	return o, nil
}

// replayLayers times, for one traced op, the layers the engine does not
// expose as spans: the result DASF write and the DSP kernels, run on the
// same rows the op analysed.
func (w *batchWL) replayLayers(tr *tracer, tree int64, o *runOut, op batchOp, rep haee.Report) error {
	var err error
	tr.do(tree, "dasf.write", func() {
		err = dasf.WriteData(filepath.Join(w.dir, "probe.out.dasf"), dasf.Meta{}, nil, rep.Output, dasf.Float64)
	})
	if err != nil {
		return err
	}
	switch op.name {
	case "interferometry", "stacked":
		return correlationKernels(tr, tree, o, w.data, interferometry(w.cfg.SampleRate))
	case "localsimi":
		p := batchLocalSimi()
		pointKernel(tr, tree, o, "detect.localsimi", w.data, p.Spec(), p.UDFScratch())
	case "stalta":
		p := batchSTALTA(w.cfg.SampleRate)
		pointKernel(tr, tree, o, "detect.stalta", w.data, p.Spec(), p.UDFScratch())
	}
	return nil
}

// quakeFound checks that a local-similarity map shows the planted Fig10
// earthquake: a region spanning over half the channels that starts near
// the origin time.
func (w *batchWL) quakeFound(sim *dasf.Array2D) error {
	total := w.cfg.FileSeconds * float64(w.cfg.NumFiles)
	secPerIdx := total / float64(sim.Samples)
	origin := 0.42 * total
	for _, r := range detect.FindEventsBanded(sim, 1.5, max(sim.Channels/8, 4)) {
		start := float64(r.TLo) * secPerIdx
		if r.ChHi-r.ChLo > sim.Channels/2 && start > origin-0.05*total && start < origin+0.1*total {
			return nil
		}
	}
	return fmt.Errorf("localsimi: planted earthquake at t=%.1fs not found", origin)
}

func (w *batchWL) check(out *runOut) {
	out.runChecks()
	// The result files the engine wrote hold the last pass's outputs.
	for _, op := range w.ops {
		path := filepath.Join(w.dir, op.name+".out.dasf")
		r, err := dasf.Open(path)
		if err != nil {
			out.fail(false, "%s result file: %v", op.name, err)
			continue
		}
		got, err := r.ReadAll()
		r.Close()
		if err == nil {
			err = sameArray(got, w.refs[op.name], batchMaxULP)
		}
		if err != nil {
			out.fail(false, "%s result file vs reference: %v", op.name, err)
		}
	}
}

func (w *batchWL) close() {}

// dasfCounters reads the storage and scratch-arena counters the program
// keeps process-wide.
func dasfCounters() map[string]float64 {
	reg := obs.Default()
	return map[string]float64{
		"dasf.opens":       counterValue(reg, "dassa_dasf_opens_total"),
		"dasf.reads":       counterValue(reg, "dassa_dasf_reads_total"),
		"dasf.read_bytes":  counterValue(reg, "dassa_dasf_read_bytes_total"),
		"dasf.write_bytes": counterValue(reg, "dassa_dasf_write_bytes_total"),
		"scratch.reuse":    counterValue(reg, "dassa_daslib_scratch_reuse_total"),
		"scratch.alloc":    counterValue(reg, "dassa_daslib_scratch_alloc_total"),
	}
}

// storageDeltas stores the counters' growth since before in o.
func storageDeltas(o *runOut, before map[string]float64) {
	d := map[string]float64{}
	for k, x := range dasfCounters() {
		d[k] = x - before[k]
	}
	for _, k := range []string{"dasf.opens", "dasf.reads", "dasf.read_bytes", "dasf.write_bytes"} {
		o.counts[k] = d[k]
	}
	if n := d["scratch.reuse"] + d["scratch.alloc"]; n > 0 {
		o.counts["daslib.scratch_reuse_ratio"] = d["scratch.reuse"] / n
	}
}
