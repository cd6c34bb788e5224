// Package haee is DASSA's Hybrid ArrayUDF Execution Engine (§V.B): the
// extension of ArrayUDF from a pure-MPI model (one process per core) to a
// hybrid model (one process per node, OpenMP-style threads inside). The two
// wins the paper claims are reproduced structurally here: threads on a node
// share one copy of node-wide data (the FFT'd master channel that pure MPI
// must replicate per core), and each node issues one set of I/O requests
// instead of one per core.
//
// The engine runs every workload through one apply per shape:
// ApplyMTScratch for point UDFs and ApplyRowsInto for row UDFs. Both are
// the paper's Algorithm 1 (a thread team over the node's block) with the
// output preallocated: engine outputs have a fixed shape, so each thread's
// offset is known without Algorithm 1's prefix-sum merge, which lives on
// in omp.ForAppend.
package haee

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/daslib"
	"dassa/internal/dass"
	"dassa/internal/mpi"
	"dassa/internal/obs"
	"dassa/internal/obs/trace"
	"dassa/internal/omp"
	"dassa/internal/pfs"
)

// Mode selects the execution model.
type Mode int

const (
	// PureMPI is the original ArrayUDF layout: Nodes×CoresPerNode MPI
	// ranks, each single-threaded with its own block, shared data copy,
	// and I/O requests.
	PureMPI Mode = iota
	// Hybrid is HAEE: one MPI rank per node running CoresPerNode threads
	// that share the node's block and shared data.
	Hybrid
)

func (m Mode) String() string {
	switch m {
	case PureMPI:
		return "mpi"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config describes the simulated machine layout for a run.
type Config struct {
	Nodes        int
	CoresPerNode int
	Mode         Mode
	// NodeMemoryBytes, when positive, aborts the run with Report.OOM when
	// the estimated per-node footprint exceeds it (the paper's 91-node
	// pure-MPI out-of-memory case).
	NodeMemoryBytes int64
	// ReadStrategy overrides how ranks load their blocks (default:
	// independent reads, the original ArrayUDF behaviour).
	ReadStrategy arrayudf.ReadStrategy
	// FailPolicy decides whether a member file that stays bad after retries
	// aborts the world (default) or degrades into NaN-masked gaps plus a
	// QualityReport on the run's Report.
	FailPolicy dass.FailPolicy
}

func (cfg Config) validate() error {
	if cfg.Nodes < 1 || cfg.CoresPerNode < 1 {
		return fmt.Errorf("haee: config needs ≥1 node and ≥1 core, got %d×%d", cfg.Nodes, cfg.CoresPerNode)
	}
	return nil
}

// ranks returns the MPI world size and per-rank thread count for the mode.
func (cfg Config) ranks() (worldSize, threads int) {
	if cfg.Mode == Hybrid {
		return cfg.Nodes, cfg.CoresPerNode
	}
	return cfg.Nodes * cfg.CoresPerNode, 1
}

// RowsWorkload is a per-channel analysis (Algorithm 3 shape): Prepare loads
// or computes data shared by all channels (the master channel's spectrum),
// then UDF maps each channel's stencil to a fixed-length row.
type RowsWorkload struct {
	Spec   arrayudf.Spec
	RowLen int
	// Prepare runs once per MPI rank (≙ once per node in Hybrid mode, once
	// per core in PureMPI mode) and returns the shared payload plus its
	// approximate size in bytes and the I/O it performed.
	Prepare func(c *mpi.Comm, v *dass.View) (shared any, bytes int64, tr pfs.Trace)
	// UDF maps one channel to its output row; it must be thread-safe. A
	// workload that sets only UDF runs through the same apply as UDFInto,
	// its row length-checked and copied into the engine-owned row.
	UDF func(s *arrayudf.Stencil, shared any) []float64
	// UDFInto, when non-nil, is preferred over UDF: it writes the channel's
	// row into the engine-owned dst (length RowLen) and may borrow work
	// buffers from the per-thread scratch. The engine owns dst, so UDFs
	// never hand back scratch-owned memory (DESIGN.md §14).
	UDFInto func(s *arrayudf.Stencil, shared any, dst []float64, scr *daslib.Scratch)
}

// PointsWorkload is a per-cell analysis (Algorithm 2 shape).
type PointsWorkload struct {
	Spec arrayudf.Spec
	// UDF maps one cell to one value; it must be thread-safe. A workload
	// that sets only UDF runs through the same apply as UDFScratch.
	UDF arrayudf.PointUDF
	// UDFScratch, when non-nil, is preferred over UDF: the same mapping
	// with a per-thread scratch arena for its window buffers.
	UDFScratch func(s *arrayudf.Stencil, scr *daslib.Scratch) float64
}

// Report summarizes a run: wall-clock per phase (max across ranks), the
// global I/O trace, the memory estimate that decides OOM, and on rank 0
// the assembled output.
type Report struct {
	Mode         Mode
	Nodes        int
	CoresPerNode int

	ReadTime    time.Duration
	ComputeTime time.Duration
	WriteTime   time.Duration

	// ExchangeTime is the communication component of the load phase —
	// broadcasts, all-to-alls, halo messages — max across ranks. It is a
	// subset of ReadTime (which keeps its historical meaning of full block
	// load wall time), isolating the paper's exchange cost.
	ExchangeTime time.Duration

	// Phases is the per-rank phase breakdown (read/exchange/compute/write)
	// reduced across ranks — the machine-readable form of Figs. 8–10.
	Phases obs.PhaseReport

	ReadTrace  pfs.Trace
	WriteTrace pfs.Trace

	// MemPerNode estimates one node's footprint: every rank on the node
	// holds its block plus its own copy of the shared payload.
	MemPerNode int64
	OOM        bool

	// Quality accounts for data lost to degraded reads (rank 0 only, under
	// dass.FailDegrade; nil otherwise).
	Quality *dass.QualityReport

	Output *dasf.Array2D
}

// Total returns the end-to-end wall time.
func (r Report) Total() time.Duration { return r.ReadTime + r.ComputeTime + r.WriteTime }

// Engine executes workloads under a machine layout.
type Engine struct {
	cfg Config
}

// New creates an engine; the config is validated at run time.
func New(cfg Config) *Engine { return &Engine{cfg: cfg} }

// teamScratch checks one scratch arena and one reusable stencil out per
// worker thread; release returns the arenas to the process pool.
func teamScratch(team *omp.Team, blk arrayudf.Block) (scratches []*daslib.Scratch, stencils []*arrayudf.Stencil, release func()) {
	n := team.Threads()
	scratches = make([]*daslib.Scratch, n)
	stencils = make([]*arrayudf.Stencil, n)
	for h := range scratches {
		scratches[h] = daslib.GetScratch()
		stencils[h] = blk.Stencil(0, 0)
	}
	return scratches, stencils, func() {
		for _, s := range scratches {
			daslib.PutScratch(s)
		}
	}
}

// ApplyMTScratch is the engine's points apply: udf is evaluated over every
// (owned channel × strided time) cell of blk by a thread team, each thread
// writing its disjoint static range of the preallocated output directly.
// Each thread reuses one stencil and one scratch arena; after the first
// channel of a run the inner loop performs no allocation.
func ApplyMTScratch(team *omp.Team, blk arrayudf.Block, spec arrayudf.Spec, nt int, udf func(s *arrayudf.Stencil, scr *daslib.Scratch) float64) *dasf.Array2D {
	own := blk.OwnedChannels()
	outT := spec.OutSamples(nt)
	if own <= 0 {
		return dasf.NewArray2D(0, outT)
	}
	stride := spec.TimeStride
	if stride <= 0 {
		stride = 1
	}
	out := dasf.NewArray2D(own, outT)
	scratches, stencils, release := teamScratch(team, blk)
	defer release()
	team.ForThread(own*outT, func(i, h int) {
		st := stencils[h]
		st.SetPos(i/outT, (i%outT)*stride)
		out.Data[i] = udf(st, scratches[h])
	})
	return out
}

// ApplyRowsInto is the engine's rows apply, for destination-passing row
// UDFs: one evaluation per owned channel. The output array is
// preallocated, each channel's UDF writes straight into its row, and every
// thread carries a scratch arena for kernel intermediates. Rows are
// engine-owned, so nothing scratch-owned escapes a UDF call.
func ApplyRowsInto(team *omp.Team, blk arrayudf.Block, rowLen int, udf func(s *arrayudf.Stencil, dst []float64, scr *daslib.Scratch)) *dasf.Array2D {
	own := blk.OwnedChannels()
	if own <= 0 {
		return dasf.NewArray2D(0, rowLen)
	}
	out := dasf.NewArray2D(own, rowLen)
	scratches, stencils, release := teamScratch(team, blk)
	defer release()
	team.ForThread(own, func(ch, h int) {
		st := stencils[h]
		st.SetPos(ch, 0)
		udf(st, out.Row(ch), scratches[h])
	})
	return out
}

// RunRows executes a RowsWorkload over the view. If outPath is non-empty,
// rank 0 writes the assembled result as a DASF file (the single-big-array
// write both modes share in Figure 8).
func (e *Engine) RunRows(v *dass.View, w RowsWorkload, outPath string) (Report, error) {
	if err := e.cfg.validate(); err != nil {
		return Report{}, err
	}
	if (w.UDF == nil && w.UDFInto == nil) || w.RowLen <= 0 {
		return Report{}, fmt.Errorf("haee: RowsWorkload needs a UDF and positive RowLen")
	}
	udf := w.UDFInto
	if udf == nil {
		udf = func(s *arrayudf.Stencil, shared any, dst []float64, _ *daslib.Scratch) {
			row := w.UDF(s, shared)
			if len(row) != len(dst) {
				panic(fmt.Sprintf("haee: RowUDF returned %d values, declared %d", len(row), len(dst)))
			}
			copy(dst, row)
		}
	}
	return e.run(v, w.Spec, outPath, func(c *mpi.Comm, team *omp.Team, blk arrayudf.Block) (*dasf.Array2D, int64, pfs.Trace) {
		var shared any
		var sharedBytes int64
		var prepTr pfs.Trace
		if w.Prepare != nil {
			shared, sharedBytes, prepTr = w.Prepare(c, v)
		}
		// One UDF call is one channel — the row engine's tile. The
		// cancellation panic unwinds through the omp team to the rank, and
		// through mpi.Run to the caller as the context's error.
		out := ApplyRowsInto(team, blk, w.RowLen, func(s *arrayudf.Stencil, dst []float64, scr *daslib.Scratch) {
			if err := v.Context().Err(); err != nil {
				panic(fmt.Errorf("haee: rows compute: %w", err))
			}
			udf(s, shared, dst, scr)
		})
		return out, sharedBytes, prepTr
	})
}

// RunPoints executes a PointsWorkload over the view.
func (e *Engine) RunPoints(v *dass.View, w PointsWorkload, outPath string) (Report, error) {
	if err := e.cfg.validate(); err != nil {
		return Report{}, err
	}
	if w.UDF == nil && w.UDFScratch == nil {
		return Report{}, fmt.Errorf("haee: PointsWorkload needs a UDF")
	}
	udf := w.UDFScratch
	if udf == nil {
		udf = func(s *arrayudf.Stencil, _ *daslib.Scratch) float64 { return w.UDF(s) }
	}
	_, nt := v.Shape()
	return e.run(v, w.Spec, outPath, func(c *mpi.Comm, team *omp.Team, blk arrayudf.Block) (*dasf.Array2D, int64, pfs.Trace) {
		// Check cancellation once per channel row (the first strided cell),
		// not per cell — cancellation latency stays one row, the hot loop
		// stays hot.
		out := ApplyMTScratch(team, blk, w.Spec, nt, func(s *arrayudf.Stencil, scr *daslib.Scratch) float64 {
			if s.T() == 0 {
				if err := v.Context().Err(); err != nil {
					panic(fmt.Errorf("haee: points compute: %w", err))
				}
			}
			return udf(s, scr)
		})
		return out, 0, pfs.Trace{}
	})
}

// run is the shared phase driver: read → compute → gather/write, with
// per-phase timing reduced to the max across ranks.
func (e *Engine) run(v *dass.View, spec arrayudf.Spec,
	outPath string,
	compute func(c *mpi.Comm, team *omp.Team, blk arrayudf.Block) (*dasf.Array2D, int64, pfs.Trace),
) (Report, error) {
	cfg := e.cfg
	worldSize, threads := cfg.ranks()
	spec.ReadStrategy = cfg.ReadStrategy
	spec.FailPolicy = cfg.FailPolicy

	rep := Report{Mode: cfg.Mode, Nodes: cfg.Nodes, CoresPerNode: cfg.CoresPerNode}
	nch, _ := v.Shape()
	// Per-rank phase recorder: the parallel readers fill read/exchange via
	// the view hook; the driver below records compute and write.
	spans := obs.NewSpans(worldSize)
	v = v.WithSpans(spans)
	var runErr error
	// cancelled panics the rank with the view context's error at a phase
	// boundary; mpi.Run unwraps it so callers see context.Canceled /
	// DeadlineExceeded via errors.Is.
	cancelled := func(phase string) {
		if err := v.Context().Err(); err != nil {
			panic(fmt.Errorf("haee: %s: %w", phase, err))
		}
	}
	runStart := time.Now()
	_, err := mpi.Run(worldSize, func(c *mpi.Comm) {
		team := omp.NewTeam(threads)

		cancelled("load")
		t0 := time.Now()
		blk, readTr, quality := arrayudf.LoadBlock(c, v, spec)
		readSec := time.Since(t0).Seconds()

		cancelled("compute")
		t0 = time.Now()
		out, sharedBytes, prepTr := compute(c, team, blk)
		computeDur := time.Since(t0)
		computeSec := computeDur.Seconds()
		spans.Add(c.Rank(), obs.PhaseCompute, computeDur)
		readTr.Add(prepTr) // prepare-phase I/O counts as read I/O

		// Memory estimate: each rank holds its block + shared payload; a
		// node hosts ranksPerNode such ranks.
		var blockBytes int64
		if blk.Data != nil {
			blockBytes = int64(len(blk.Data.Data)) * 8
		}
		ranksPerNode := 1
		if cfg.Mode == PureMPI {
			ranksPerNode = cfg.CoresPerNode
		}
		memVec := mpi.Allreduce(c, []int64{blockBytes + sharedBytes}, mpi.MaxI64)
		memPerNode := memVec[0] * int64(ranksPerNode)
		oom := cfg.NodeMemoryBytes > 0 && memPerNode > cfg.NodeMemoryBytes

		// Phase times: max across ranks. I/O traces: summed across ranks —
		// the total request pressure on the storage system is exactly what
		// Figure 8 compares between the two modes.
		times := mpi.Reduce(c, 0, []float64{readSec, computeSec}, mpi.MaxF64)
		trSum := mpi.Reduce(c, 0, []int64{readTr.Opens, readTr.Reads, readTr.BytesRead,
			readTr.Retries, readTr.Faults, readTr.SlowReads, readTr.MaskedSamples}, mpi.SumI64)
		if c.Rank() == 0 {
			readTr.Opens, readTr.Reads, readTr.BytesRead = trSum[0], trSum[1], trSum[2]
			readTr.Retries, readTr.Faults, readTr.SlowReads, readTr.MaskedSamples = trSum[3], trSum[4], trSum[5], trSum[6]
		}

		// Write the result as one big array with positioned parallel writes
		// (every rank stores its own rows — the single-shared-file pattern
		// whose cost Figure 8 shows is identical between the two modes),
		// then gather a copy on rank 0 for the report.
		cancelled("write")
		t0 = time.Now()
		var writeTr pfs.Trace
		if outPath != "" && !oom {
			outT := 0
			if out != nil {
				outT = out.Samples
			}
			// All ranks must agree on the output width, including ranks
			// that own no channels.
			widths := mpi.Allreduce(c, []int64{int64(outT)}, mpi.MaxI64)
			outT = int(widths[0])
			if c.Rank() == 0 {
				meta := dasf.Meta{"Producer": dasf.S("dassa-haee"), "Mode": dasf.S(cfg.Mode.String())}
				pw, err := dasf.CreateData(outPath, meta, nch, outT, dasf.Float64)
				if err != nil {
					runErr = err
				} else if err := pw.Close(); err != nil {
					runErr = err
				}
			}
			c.Barrier()
			if runErr == nil && out != nil && out.Channels > 0 {
				pw, err := dasf.OpenForWrite(outPath)
				if err != nil {
					panic(fmt.Errorf("haee: parallel write: %w", err))
				}
				if err := pw.WriteRows(blk.ChLo, out); err != nil {
					pw.Close()
					panic(fmt.Errorf("haee: parallel write: %w", err))
				}
				st := pw.Stats()
				if err := pw.Close(); err != nil {
					panic(fmt.Errorf("haee: parallel write: %w", err))
				}
				writeTr.Opens += st.Opens
				writeTr.Writes += st.Writes
				writeTr.BytesWritten += st.BytesWritten
			}
		}
		wr := mpi.Reduce(c, 0, []int64{writeTr.Opens, writeTr.Writes, writeTr.BytesWritten}, mpi.SumI64)
		if c.Rank() == 0 {
			writeTr.Opens, writeTr.Writes, writeTr.BytesWritten = wr[0], wr[1], wr[2]
		}
		full := arrayudf.Gather(c, nch, arrayudf.Result{Data: out, ChLo: blk.ChLo, ChHi: blk.ChHi})
		writeDur := time.Since(t0)
		writeSec := writeDur.Seconds()
		spans.Add(c.Rank(), obs.PhaseWrite, writeDur)
		wtimes := mpi.Reduce(c, 0, []float64{writeSec}, mpi.MaxF64)

		if c.Rank() == 0 {
			rep.ReadTime = time.Duration(times[0] * float64(time.Second))
			rep.ComputeTime = time.Duration(times[1] * float64(time.Second))
			rep.WriteTime = time.Duration(wtimes[0] * float64(time.Second))
			rep.ReadTrace = readTr
			rep.ReadTrace.Processes = worldSize
			rep.WriteTrace = writeTr
			rep.WriteTrace.Processes = worldSize
			rep.MemPerNode = memPerNode
			rep.OOM = oom
			rep.Quality = quality
			rep.Output = full
		}
	})
	// The recorder outlives the world: reduce it once here, on the caller's
	// goroutine, and feed the process-wide histograms so a scrape of
	// /metrics sees every engine run's phase distribution.
	rep.ExchangeTime = spans.Max(obs.PhaseExchange)
	rep.Phases = spans.Report()
	spans.ObserveInto(obs.Default())
	annotateTrace(v.Context(), runStart, &rep)
	if err != nil {
		var re *mpi.RankError
		if errors.As(err, &re) && re.TraceID == "" {
			re.TraceID = string(trace.IDFrom(v.Context()))
		}
		return rep, err
	}
	return rep, runErr
}

// annotateTrace lands the engine's phase breakdown in the request trace (if
// the view carries one) as completed child spans. Phase wall times are
// max-across-ranks, so the spans are laid out back to back from the run's
// start — an approximation of the critical path, not per-rank timelines.
func annotateTrace(ctx context.Context, runStart time.Time, rep *Report) {
	at := runStart
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"haee.read", rep.ReadTime},
		{"haee.compute", rep.ComputeTime},
		{"haee.write", rep.WriteTime},
	} {
		if ph.d <= 0 {
			continue
		}
		trace.Add(ctx, ph.name, at, ph.d)
		at = at.Add(ph.d)
	}
	// Exchange overlaps the read phase rather than following it.
	if rep.ExchangeTime > 0 {
		trace.Add(ctx, "haee.exchange", runStart, rep.ExchangeTime)
	}
}
