// Package core is the DASSA framework facade — the high-level, easy-to-use
// API the paper promises geophysicists (§III): open a directory of DAS
// files, search by time, merge virtually, and run analyses in parallel
// without touching the storage engine, the execution engine, or the
// message-passing layer directly. Everything underneath (dass, arrayudf,
// haee, daslib, detect) remains available for advanced use; this package
// is the one a downstream user starts with.
//
//	ds, _ := core.OpenDataset("./data")
//	view, _ := ds.MergeAll()
//	fw := core.New(core.Config{Nodes: 4, CoresPerNode: 8})
//	sim, rep, _ := fw.LocalSimilarity(view, core.DefaultLocalSimi(500))
package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/daslib"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/faults"
	"dassa/internal/haee"
	"dassa/internal/mpi"
	"dassa/internal/obs"
	"dassa/internal/obs/trace"
	"dassa/internal/pfs"
)

// Config sizes the execution engine. Zero values choose sane defaults
// (one node, four cores, hybrid mode).
type Config struct {
	Nodes        int
	CoresPerNode int
	// PureMPI selects the legacy one-process-per-core model; default is
	// the hybrid engine.
	PureMPI bool
	// NodeMemoryBytes, when positive, makes runs fail with ErrOutOfMemory
	// instead of exceeding the per-node budget.
	NodeMemoryBytes int64
	// MaxRetries retries transient storage failures up to this many times
	// per operation (with exponential backoff). Zero keeps the historical
	// fail-on-first-error behaviour. Applied process-wide at New.
	MaxRetries int
	// FailPolicy decides what a member file that stays bad after retries
	// does to a run: dass.FailAbort (default) kills it, dass.FailDegrade
	// masks the loss with NaN gaps and fills in Report.Quality.
	FailPolicy dass.FailPolicy
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.CoresPerNode <= 0 {
		c.CoresPerNode = 4
	}
	return c
}

// ErrOutOfMemory reports that a run's estimated per-node footprint
// exceeded Config.NodeMemoryBytes.
var ErrOutOfMemory = fmt.Errorf("core: estimated per-node memory exceeds the configured budget")

// IsCancellation reports whether err stems from a cancelled or expired
// context. Every Framework method honors cancellation through the view it
// is given: bind a context with v.WithContext(ctx) and a run that is
// cancelled mid-read or mid-compute returns an error satisfying this
// predicate (and errors.Is against context.Canceled / DeadlineExceeded) —
// never a silently degraded result, whatever the FailPolicy.
func IsCancellation(err error) bool { return dass.IsCancellation(err) }

// Framework executes analyses under a machine layout.
type Framework struct {
	cfg Config
}

// New creates a framework with the given layout. A positive MaxRetries
// installs the process-wide retry policy every storage read goes through.
func New(cfg Config) *Framework {
	cfg = cfg.withDefaults()
	if cfg.MaxRetries > 0 {
		dasf.SetRetryPolicy(faults.WithRetries(cfg.MaxRetries))
	}
	return &Framework{cfg: cfg}
}

func (f *Framework) engine() *haee.Engine {
	mode := haee.Hybrid
	if f.cfg.PureMPI {
		mode = haee.PureMPI
	}
	return haee.New(haee.Config{
		Nodes:           f.cfg.Nodes,
		CoresPerNode:    f.cfg.CoresPerNode,
		Mode:            mode,
		NodeMemoryBytes: f.cfg.NodeMemoryBytes,
		FailPolicy:      f.cfg.FailPolicy,
	})
}

// Dataset is an opened directory of DAS data files.
type Dataset struct {
	dir string
	cat *dass.Catalog
}

// OpenDataset catalogs every DASF data file in dir (metadata only, with
// the persistent index so unchanged files cost nothing to rescan).
func OpenDataset(dir string) (*Dataset, error) {
	cat, err := dass.ScanDirCached(dir)
	if err != nil {
		return nil, err
	}
	if cat.Len() == 0 {
		return nil, fmt.Errorf("core: no DASF data files in %s", dir)
	}
	return &Dataset{dir: dir, cat: cat}, nil
}

// Len returns the number of cataloged files.
func (d *Dataset) Len() int { return d.cat.Len() }

// Files returns the cataloged entries in time order.
func (d *Dataset) Files() []dass.Entry { return d.cat.Entries() }

// SampleRate returns the dataset's sampling frequency from metadata, or 0
// if absent.
func (d *Dataset) SampleRate() float64 {
	if d.cat.Len() == 0 {
		return 0
	}
	if v, ok := d.cat.Entries()[0].Info.Global[dasf.KeySamplingFrequency]; ok {
		return float64(v.Int)
	}
	return 0
}

// Search finds files by start timestamp and count (das_search -s/-c).
func (d *Dataset) Search(start int64, count int) []dass.Entry {
	return d.cat.SearchStartCount(start, count)
}

// SearchRegex finds files whose timestamp matches the anchored pattern
// (das_search -e).
func (d *Dataset) SearchRegex(pattern string) ([]dass.Entry, error) {
	return d.cat.SearchRegex(pattern)
}

// SearchRange finds files recorded in [start, end) — both yymmddhhmmss
// timestamps.
func (d *Dataset) SearchRange(start, end int64) []dass.Entry {
	return d.cat.SearchRange(start, end)
}

// Merge virtually concatenates the given files and returns a view over the
// result. The VCA file is written next to the data (metadata only).
func (d *Dataset) Merge(entries []dass.Entry) (*dass.View, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("core: nothing to merge")
	}
	path := filepath.Join(d.dir, fmt.Sprintf(".merge_%d_%d.vca.dasf",
		entries[0].Timestamp, len(entries)))
	if _, err := dass.CreateVCA(path, entries); err != nil {
		return nil, err
	}
	return dass.OpenView(path)
}

// MergeAll merges the whole dataset.
func (d *Dataset) MergeAll() (*dass.View, error) {
	return d.Merge(d.cat.Entries())
}

// ViewOf virtually concatenates the entries entirely in memory — no VCA
// file is written and nothing needs cleaning up afterwards. This is the
// merge an always-on service (dassd) uses per request.
func (d *Dataset) ViewOf(entries []dass.Entry) (*dass.View, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("core: nothing to merge")
	}
	return dass.ViewOver(entries)
}

// Rescan refreshes the catalog from disk through the persistent index, so
// newly arrived or rewritten files become visible. Long-running callers
// (the dassd ingest loop) call this each poll interval.
func (d *Dataset) Rescan() error {
	cat, err := dass.ScanDirCached(d.dir)
	if err != nil {
		return err
	}
	d.cat = cat
	return nil
}

// Report summarizes a framework run for callers that want phase timings
// and I/O accounting without importing haee.
type Report struct {
	ReadTrace  pfs.Trace
	MemPerNode int64
	Phases     struct{ Read, Exchange, Compute, Write string }
	// Breakdown is the per-rank phase decomposition (read/exchange/compute/
	// write, max and mean across ranks) — the machine-readable counterpart
	// of Phases, mirroring the paper's Figs. 8–10.
	Breakdown obs.PhaseReport
	// Quality accounts for degraded reads (non-nil only under
	// dass.FailDegrade); Quality.Degraded() reports whether data was lost.
	Quality *dass.QualityReport
}

// Degraded reports whether the run completed with data loss.
func (r Report) Degraded() bool { return r.Quality.Degraded() }

func reportOf(rep haee.Report) Report {
	out := Report{ReadTrace: rep.ReadTrace, MemPerNode: rep.MemPerNode,
		Breakdown: rep.Phases, Quality: rep.Quality}
	out.Phases.Read = rep.ReadTime.String()
	out.Phases.Exchange = rep.ExchangeTime.String()
	out.Phases.Compute = rep.ComputeTime.String()
	out.Phases.Write = rep.WriteTime.String()
	return out
}

// result is the tail every Framework run shares: an engine error passes
// through, an over-budget run becomes ErrOutOfMemory, and anything else
// yields the output with its report.
func result(rep haee.Report, err error) (*dasf.Array2D, Report, error) {
	if err != nil {
		return nil, Report{}, err
	}
	if rep.OOM {
		return nil, reportOf(rep), ErrOutOfMemory
	}
	return rep.Output, reportOf(rep), nil
}

// LocalSimiOptions configures earthquake detection (Algorithm 2).
type LocalSimiOptions struct {
	detect.LocalSimiParams
	// Threshold is the detection cut in background standard deviations
	// (default 1.5 when zero).
	Threshold float64
	// OutPath, when set, writes the similarity map as a DASF file.
	OutPath string
}

// DefaultLocalSimi returns the parameters used throughout the paper's
// demonstrations, scaled to the sampling rate.
func DefaultLocalSimi(rate float64) LocalSimiOptions {
	return LocalSimiOptions{
		LocalSimiParams: detect.LocalSimiParams{
			M: max(int(rate/4), 2), K: 1, L: 4, Stride: max(int(rate/5), 1),
		},
		Threshold: 1.5,
	}
}

// traceOp opens a compute span named op under the view's request trace (a
// no-op for untraced views, costing nothing) and rebinds the view so the
// engine's phase spans nest under it. The caller owns the returned span.
func traceOp(v *dass.View, op string) (*dass.View, *trace.Span) {
	ctx, sp := trace.Start(v.Context(), op)
	if sp == nil {
		return v, nil
	}
	return v.WithContext(ctx), sp
}

// LocalSimilarity computes the local-similarity map over the view and
// returns it along with the detected events.
func (f *Framework) LocalSimilarity(v *dass.View, opt LocalSimiOptions) (*dasf.Array2D, []detect.Region, Report, error) {
	v, sp := traceOp(v, "core.localsimi")
	out, regions, rep, err := f.localSimilarity(v, opt)
	if sp != nil {
		sp.SetAttrInt("events", int64(len(regions)))
	}
	sp.EndErr(err)
	return out, regions, rep, err
}

func (f *Framework) localSimilarity(v *dass.View, opt LocalSimiOptions) (*dasf.Array2D, []detect.Region, Report, error) {
	out, rep, err := f.localSimilarityMap(v, opt.LocalSimiParams, opt.OutPath)
	if err != nil {
		return nil, nil, rep, err
	}
	thresh := opt.Threshold
	if thresh == 0 {
		thresh = 1.5
	}
	nch, _ := v.Shape()
	regions := detect.FindEventsBanded(out, thresh, max(nch/8, 4))
	return out, regions, rep, nil
}

// LocalSimilarityMap computes the local-similarity map alone, without
// event extraction — what a dassw shard returns for its channel slice.
// Its values are LocalSimilarity's map, bit for bit.
func (f *Framework) LocalSimilarityMap(v *dass.View, p detect.LocalSimiParams) (*dasf.Array2D, Report, error) {
	v, sp := traceOp(v, "core.localsimi")
	out, rep, err := f.localSimilarityMap(v, p, "")
	sp.EndErr(err)
	return out, rep, err
}

func (f *Framework) localSimilarityMap(v *dass.View, p detect.LocalSimiParams, outPath string) (*dasf.Array2D, Report, error) {
	if err := p.Validate(); err != nil {
		return nil, Report{}, err
	}
	return result(f.engine().RunPoints(v, LocalSimiWorkload(p), outPath))
}

// LocalSimiWorkload is the local-similarity map (Algorithm 2) as a HAEE
// points-workload: K ghost channels, one value every Stride samples,
// evaluated with window buffers from the per-thread scratch arena.
func LocalSimiWorkload(p detect.LocalSimiParams) haee.PointsWorkload {
	return haee.PointsWorkload{Spec: p.Spec(), UDFScratch: p.UDFScratch()}
}

// InterferometryOptions configures ambient-noise interferometry
// (Algorithm 3).
type InterferometryOptions struct {
	detect.InterferometryParams
	// OutPath, when set, writes the correlation array as a DASF file.
	OutPath string
}

// DefaultInterferometry returns a standard pipeline for the sampling rate:
// lowpass at rate/8, decimate by 2, correlate against channel 0.
func DefaultInterferometry(rate float64) InterferometryOptions {
	return InterferometryOptions{
		InterferometryParams: detect.InterferometryParams{
			Rate: rate, FilterOrder: 3, CutoffHz: rate / 8,
			ResampleP: 1, ResampleQ: 2, MasterChannel: 0, MaxLag: 128,
		},
	}
}

// Interferometry computes per-channel noise correlations against the
// master channel.
func (f *Framework) Interferometry(v *dass.View, opt InterferometryOptions) (*dasf.Array2D, Report, error) {
	if err := opt.Validate(); err != nil {
		return nil, Report{}, err
	}
	if opt.FailPolicy == dass.FailAbort {
		opt.FailPolicy = f.cfg.FailPolicy // framework default unless overridden
	}
	_, nt := v.Shape()
	return result(f.engine().RunRows(v, InterferometryWorkload(opt.InterferometryParams, nt), opt.OutPath))
}

// InterferometryWorkload is ambient-noise interferometry (Algorithm 3) as a
// HAEE rows-workload over a view nt samples long: Prepare reads and
// preprocesses the master channel once per rank, and each channel's row is
// its noise correlation with the master, trimmed to ±MaxLag.
func InterferometryWorkload(p detect.InterferometryParams, nt int) haee.RowsWorkload {
	parts := p.Workload(nt)
	return haee.RowsWorkload{RowLen: parts.RowLen, Prepare: parts.Prepare, UDFInto: parts.UDFInto}
}

// StackedInterferometryOptions configures windowed interferometry with
// correlation stacking — the production ambient-noise workflow (ref [16]).
type StackedInterferometryOptions struct {
	detect.StackingParams
	// OutPath, when set, writes the stacked correlations as a DASF file.
	OutPath string
}

// DefaultStackedInterferometry windows the record into 8 segments with 25%
// overlap on top of the default pipeline.
func DefaultStackedInterferometry(rate float64, totalSamples int) StackedInterferometryOptions {
	win := max(totalSamples/8, 64)
	return StackedInterferometryOptions{
		StackingParams: detect.StackingParams{
			InterferometryParams: DefaultInterferometry(rate).InterferometryParams,
			WindowSamples:        win,
			OverlapSamples:       win / 4,
		},
	}
}

// StackedInterferometry computes per-channel noise correlations stacked
// over time windows.
func (f *Framework) StackedInterferometry(v *dass.View, opt StackedInterferometryOptions) (*dasf.Array2D, Report, error) {
	if err := opt.Validate(); err != nil {
		return nil, Report{}, err
	}
	if opt.FailPolicy == dass.FailAbort {
		opt.FailPolicy = f.cfg.FailPolicy
	}
	return result(f.engine().RunRows(v, StackedWorkload(v.Context(), opt.StackingParams), opt.OutPath))
}

// StackedWorkload is windowed interferometry with correlation stacking as a
// HAEE rows-workload: Prepare builds the per-window master once per rank,
// and each channel's row is its per-window correlations averaged. ctx is
// checked at every window boundary, so a cancelled run stops within one
// window's work.
func StackedWorkload(ctx context.Context, p detect.StackingParams) haee.RowsWorkload {
	return haee.RowsWorkload{
		RowLen: p.StackedRowLen(),
		Prepare: func(c *mpi.Comm, v *dass.View) (any, int64, pfs.Trace) {
			m, tr, err := p.PrepareStackedMasterFromView(v)
			if err != nil {
				panic(fmt.Errorf("core: stacked master: %w", err))
			}
			return m, m.Bytes(), tr
		},
		UDFInto: func(s *arrayudf.Stencil, shared any, dst []float64, scr *daslib.Scratch) {
			p.StackedUDFIntoContext(ctx, shared.(*detect.StackedMaster))(s, dst, scr)
		},
	}
}

// STALTA computes the classical short-term/long-term-average trigger map —
// the single-channel baseline the local-similarity method outperforms on
// dense arrays. It runs the O(1)-per-cell row kernel (detect.RatioInto),
// one channel row per engine call; dassd, dassw shards and das_analyze all
// reach that kernel, so their maps are bit-identical.
func (f *Framework) STALTA(v *dass.View, p detect.STALTAParams, outPath string) (*dasf.Array2D, Report, error) {
	v, sp := traceOp(v, "core.stalta")
	out, rep, err := f.stalta(v, p, outPath)
	sp.EndErr(err)
	return out, rep, err
}

func (f *Framework) stalta(v *dass.View, p detect.STALTAParams, outPath string) (*dasf.Array2D, Report, error) {
	if err := p.Validate(); err != nil {
		return nil, Report{}, err
	}
	_, nt := v.Shape()
	return result(f.engine().RunRows(v, STALTAWorkload(p, nt), outPath))
}

// STALTAWorkload is the STA/LTA map as a HAEE rows-workload over a view
// nt samples long: no ghost channels, one Spec().OutSamples(nt) row per
// channel, written by detect's row kernel. The engine splits channels
// only, so a row is the same whichever rank or shard computes it.
func STALTAWorkload(p detect.STALTAParams, nt int) haee.RowsWorkload {
	return haee.RowsWorkload{
		RowLen: p.Spec().OutSamples(nt),
		UDFInto: func(s *arrayudf.Stencil, _ any, dst []float64, scr *daslib.Scratch) {
			p.RatioInto(dst, s.Row(0), scr)
		},
	}
}

// Apply runs an arbitrary stencil UDF over the view — the raw
// B = Apply(A, f) interface of ArrayUDF, parallelized by the framework's
// engine. ghostChannels is the stencil's channel reach; timeStride > 1
// evaluates every timeStride-th sample.
func (f *Framework) Apply(v *dass.View, ghostChannels, timeStride int, udf func(s *arrayudf.Stencil) float64, outPath string) (*dasf.Array2D, Report, error) {
	v, sp := traceOp(v, "core.apply")
	out, rep, err := f.apply(v, ghostChannels, timeStride, udf, outPath)
	sp.EndErr(err)
	return out, rep, err
}

func (f *Framework) apply(v *dass.View, ghostChannels, timeStride int, udf func(s *arrayudf.Stencil) float64, outPath string) (*dasf.Array2D, Report, error) {
	if udf == nil {
		return nil, Report{}, fmt.Errorf("core: Apply needs a UDF")
	}
	return result(f.engine().RunPoints(v, haee.PointsWorkload{
		Spec: arrayudf.Spec{GhostChannels: ghostChannels, TimeStride: timeStride},
		UDF:  udf,
	}, outPath))
}

// CleanMergeFiles removes the VCA files Merge wrote into the dataset
// directory.
func (d *Dataset) CleanMergeFiles() error {
	matches, err := filepath.Glob(filepath.Join(d.dir, ".merge_*.vca.dasf"))
	if err != nil {
		return err
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			return err
		}
	}
	return nil
}
