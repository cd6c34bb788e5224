// Command das_analyze runs a DAS analysis over a DASF file or VCA with the
// hybrid ArrayUDF execution engine: earthquake detection via local
// similarity (Algorithm 2) or traffic-noise interferometry (Algorithm 3).
//
// Examples:
//
//	das_analyze -in merged.vca.dasf -op localsimi -nodes 2 -cores 4 -out sim.dasf
//	das_analyze -in merged.vca.dasf -op interferometry -mode mpi
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"dassa/internal/arrayudf"
	"dassa/internal/cluster"
	"dassa/internal/core"
	"dassa/internal/dasf"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/faults"
	"dassa/internal/haee"
	"dassa/internal/obs"
	"dassa/internal/obs/trace"
)

// Exit codes, so scripted pipelines can branch on outcome: 0 = success
// (including degraded-but-completed, which prints a WARNING line), 1 = data
// error (unreadable input, failed run), 2 = usage error (bad flags).
const (
	exitData  = 1
	exitUsage = 2
)

// logger is the shared structured logger (obs.LogFlags); set right after
// flag parsing, before any fatal path can run.
var logger = obs.Nop()

// fatalUsage reports a bad invocation (exit 2).
// runCluster fans a localsimi/stalta request out across dassw shard
// workers and prints the same style of report as a local run. Shards
// lost to worker failure are re-dispatched; under -fail-policy degrade
// whatever stays lost is NaN-masked into the quality report.
func runCluster(ctx context.Context, addrs string, req cluster.Request, policy dass.FailPolicy, outPath string, nt int, rate float64) {
	var workers []string
	for _, a := range strings.Split(addrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			workers = append(workers, a)
		}
	}
	co, err := cluster.NewCoordinator(cluster.Config{
		Workers:    workers,
		FailPolicy: policy,
		Log:        logger,
		Registry:   obs.Default(),
	})
	if err != nil {
		fatalUsage("%v", err)
	}
	defer co.Close()
	res, err := co.Run(ctx, req)
	if err != nil {
		fatalData(err)
	}
	switch req.Op {
	case cluster.OpLocalSimi:
		regions := detect.FindEvents(res.Data, 1.5)
		fmt.Printf("detected %d events:\n", len(regions))
		secPerIdx := float64(nt) / rate / float64(res.Data.Samples)
		for _, r := range regions {
			fmt.Printf("  t=[%.1fs,%.1fs) channels=[%d,%d) peak=%.3f\n",
				float64(r.TLo)*secPerIdx, float64(r.THi)*secPerIdx, r.ChLo, r.ChHi, r.Peak)
		}
	case cluster.OpSTALTA:
		fmt.Printf("STA/LTA map: %d channels × %d samples, max ratio %.2f\n",
			res.Data.Channels, res.Data.Samples, detect.MaxRatio(res.Data.Data))
	}
	if outPath != "" {
		meta := dasf.Meta{"Producer": dasf.S("dassa-cluster")}
		if err := dasf.WriteData(outPath, meta, nil, res.Data, dasf.Float64); err != nil {
			fatalData(err)
		}
		fmt.Printf("result written to %s\n", outPath)
	}
	fmt.Printf("cluster: %d worker(s), %d shard(s), %d redispatched, %d degraded, wall %v\n",
		res.Workers, res.Shards, res.Redispatched, res.DegradedShards, res.Wall.Round(time.Millisecond))
	fmt.Printf("I/O: %d opens, %d read calls, %.1f MB read\n",
		res.Trace.Opens, res.Trace.Reads, float64(res.Trace.BytesRead)/1e6)
	if res.Quality.Degraded() {
		fmt.Printf("WARNING: run degraded; %s\n", res.Quality)
		for _, f := range res.Quality.LostFiles {
			fmt.Printf("WARNING:   lost member: %s\n", f)
		}
	}
}

func fatalUsage(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(exitUsage)
}

// fatalData reports a failed run over real data (exit 1).
func fatalData(v ...any) {
	logger.Error(fmt.Sprint(v...))
	os.Exit(exitData)
}

func main() {
	var (
		in    = flag.String("in", "", "input DASF data file or VCA (required)")
		op    = flag.String("op", "localsimi", "analysis: localsimi | interferometry | stacked | stalta")
		nodes = flag.Int("nodes", 1, "simulated compute nodes (MPI ranks in hybrid mode)")
		cores = flag.Int("cores", 4, "cores per node (threads in hybrid mode)")
		mode  = flag.String("mode", "hybrid", "execution mode: hybrid | mpi")
		read  = flag.String("read", "independent", "block read strategy: independent | commavoid")
		out   = flag.String("out", "", "write the result array to this DASF file")
		rate  = flag.Float64("rate", 0, "sampling rate override (Hz; default from metadata)")

		m       = flag.Int("M", 25, "localsimi: half window width (samples)")
		k       = flag.Int("K", 1, "localsimi: channel offset")
		l       = flag.Int("L", 4, "localsimi: half lag-scan extent")
		stride  = flag.Int("stride", 10, "localsimi: evaluate every N samples")
		master  = flag.Int("master", 0, "interferometry: master channel")
		cutoff  = flag.Float64("cutoff", 0, "interferometry: lowpass cutoff Hz (default rate/8)")
		resampQ = flag.Int("resample", 2, "interferometry: keep 1/Q of the samples")
		maxlag  = flag.Int("maxlag", 128, "interferometry: correlation half-width (resampled samples)")

		window  = flag.Int("window", 0, "stacked: correlation window (raw samples; default 1/8 of the record)")
		overlap = flag.Int("overlap", 0, "stacked: window overlap (raw samples)")
		sta     = flag.Int("sta", 0, "stalta: short window (samples; default rate/5)")
		lta     = flag.Int("lta", 0, "stalta: long window (samples; default 4*rate)")

		workers = flag.String("workers", "", "comma-separated dassw worker addresses; localsimi/stalta fan out across them instead of the in-process engine")

		traceRun = flag.Bool("trace", false, "record a request trace of the run and print the span tree afterwards")

		retries = flag.Int("retries", 0, "retry transient read failures up to N times (exponential backoff)")
		failPol = flag.String("fail-policy", "abort", "member file still bad after retries: abort | degrade (NaN gaps + quality report)")
		inject  = flag.String("inject", "", "fault injection spec for chaos testing, e.g. 'seed=1,transient=0.3,max=3,missing=a.dasf'")
	)
	newLogger := obs.LogFlags(nil)
	flag.Parse()
	var logErr error
	if logger, logErr = newLogger(os.Stderr); logErr != nil {
		fmt.Fprintf(os.Stderr, "das_analyze: %v\n", logErr)
		os.Exit(exitUsage)
	}
	slog.SetDefault(logger)
	if *in == "" {
		fatalUsage("-in is required")
	}
	policy, err := dass.ParseFailPolicy(*failPol)
	if err != nil {
		fatalUsage("%v", err)
	}
	if *retries < 0 {
		fatalUsage("-retries must be ≥ 0, got %d", *retries)
	}
	if *retries > 0 {
		dasf.SetRetryPolicy(faults.WithRetries(*retries))
	}
	if *inject != "" {
		cfg, err := faults.ParseSpec(*inject)
		if err != nil {
			fatalUsage("%v", err)
		}
		dasf.SetInjector(faults.New(cfg))
	}

	v, err := dass.OpenView(*in)
	if err != nil {
		fatalData(err)
	}
	nch, nt := v.Shape()
	sampleRate := *rate
	if sampleRate == 0 {
		if f, ok := v.Info().Global["SamplingFrequency(HZ)"]; ok {
			sampleRate = float64(f.Int)
		}
	}
	if sampleRate == 0 {
		fatalUsage("sampling rate unknown; pass -rate")
	}
	fmt.Printf("input: %s (%d channels × %d samples, %d file(s), %.0f Hz)\n",
		*in, nch, nt, v.NumMembers(), sampleRate)

	// -trace: record the run into a one-shot local store; the cluster
	// coordinator and the local engine both annotate through the view's
	// context, and workers ship their spans back over the wire, so the
	// printed tree is the same cross-process view dassd serves at
	// /debug/traces/{id}.
	ctx := context.Background()
	var traceStore *trace.Store
	var traceRoot *trace.Span
	if *traceRun {
		traceStore = trace.NewStore(1, 1)
		ctx, traceRoot = trace.New(ctx, traceStore, "das_analyze", trace.NewID(), "analyze "+*op)
		v = v.WithContext(ctx)
	}

	if *workers != "" {
		creq := cluster.Request{View: v, Rate: sampleRate}
		switch *op {
		case "localsimi":
			p := detect.LocalSimiParams{M: *m, K: *k, L: *l, Stride: *stride}
			if err := p.Validate(); err != nil {
				fatalUsage("%v", err)
			}
			creq.Op, creq.LocalSimi = cluster.OpLocalSimi, p
		case "stalta":
			p := detect.STALTAParams{STASamples: *sta, LTASamples: *lta, Stride: *stride}
			if p.STASamples == 0 {
				p.STASamples = max(int(sampleRate/5), 2)
			}
			if p.LTASamples == 0 {
				p.LTASamples = max(int(4*sampleRate), p.STASamples+1)
			}
			if err := p.Validate(); err != nil {
				fatalUsage("%v", err)
			}
			creq.Op, creq.STALTA = cluster.OpSTALTA, p
		default:
			// The interferometry family is a rows workload the wire
			// protocol does not carry; it stays in process.
			fatalUsage("-workers runs localsimi or stalta; -op %s is local only", *op)
		}
		runCluster(ctx, *workers, creq, policy, *out, nt, sampleRate)
		printTrace(traceStore, traceRoot)
		return
	}

	engMode := haee.Hybrid
	if *mode == "mpi" {
		engMode = haee.PureMPI
	} else if *mode != "hybrid" {
		fatalUsage("unknown -mode %q", *mode)
	}
	engCfg := haee.Config{Nodes: *nodes, CoresPerNode: *cores, Mode: engMode, FailPolicy: policy}
	switch *read {
	case "independent":
	case "commavoid":
		engCfg.ReadStrategy = arrayudf.CommAvoidingRead
	default:
		fatalUsage("unknown -read %q", *read)
	}
	eng := haee.New(engCfg)

	var rep haee.Report
	ip := detect.InterferometryParams{
		Rate: sampleRate, FilterOrder: 3, CutoffHz: *cutoff, ResampleP: 1, ResampleQ: *resampQ,
		MasterChannel: *master, MaxLag: *maxlag, FailPolicy: policy,
	}
	if ip.CutoffHz == 0 {
		ip.CutoffHz = sampleRate / 8
	}
	switch *op {
	case "localsimi":
		p := detect.LocalSimiParams{M: *m, K: *k, L: *l, Stride: *stride}
		if err := p.Validate(); err != nil {
			fatalUsage("%v", err)
		}
		rep, err = eng.RunPoints(v, core.LocalSimiWorkload(p), *out)
		if err != nil {
			fatalData(err)
		}
		regions := detect.FindEvents(rep.Output, 1.5)
		fmt.Printf("detected %d events:\n", len(regions))
		secPerIdx := float64(nt) / sampleRate / float64(rep.Output.Samples)
		for _, r := range regions {
			fmt.Printf("  t=[%.1fs,%.1fs) channels=[%d,%d) peak=%.3f\n",
				float64(r.TLo)*secPerIdx, float64(r.THi)*secPerIdx, r.ChLo, r.ChHi, r.Peak)
		}
	case "interferometry":
		if err := ip.Validate(); err != nil {
			fatalUsage("%v", err)
		}
		rep, err = eng.RunRows(v, core.InterferometryWorkload(ip, nt), *out)
		if err != nil {
			fatalData(err)
		}
		fmt.Printf("noise correlations: %d channels × %d lags against master channel %d\n",
			rep.Output.Channels, rep.Output.Samples, *master)
	case "stacked":
		params := detect.StackingParams{InterferometryParams: ip, WindowSamples: *window, OverlapSamples: *overlap}
		if params.WindowSamples == 0 {
			params.WindowSamples = max(nt/8, 64)
		}
		if err := params.Validate(); err != nil {
			fatalUsage("%v", err)
		}
		rep, err = eng.RunRows(v, core.StackedWorkload(v.Context(), params), *out)
		if err != nil {
			fatalData(err)
		}
		fmt.Printf("stacked noise correlations: %d channels × %d lags over %d windows\n",
			rep.Output.Channels, rep.Output.Samples, params.NumWindows(nt))
	case "stalta":
		params := detect.STALTAParams{STASamples: *sta, LTASamples: *lta, Stride: *stride}
		if params.STASamples == 0 {
			params.STASamples = max(int(sampleRate/5), 2)
		}
		if params.LTASamples == 0 {
			params.LTASamples = max(int(4*sampleRate), params.STASamples+1)
		}
		if err := params.Validate(); err != nil {
			fatalUsage("%v", err)
		}
		rep, err = eng.RunRows(v, core.STALTAWorkload(params, nt), *out)
		if err != nil {
			fatalData(err)
		}
		flat := rep.Output.Data
		fmt.Printf("STA/LTA map: %d channels × %d samples, max ratio %.2f\n",
			rep.Output.Channels, rep.Output.Samples, detect.MaxRatio(flat))
	default:
		fatalUsage("unknown -op %q (want localsimi, interferometry, stacked, or stalta)", *op)
	}

	fmt.Printf("engine: %s, %d node(s) × %d core(s)\n", engMode, *nodes, *cores)
	fmt.Printf("phases: read %v (exchange %v), compute %v, write %v (total %v)\n",
		rep.ReadTime.Round(time.Millisecond), rep.ExchangeTime.Round(time.Millisecond),
		rep.ComputeTime.Round(time.Millisecond),
		rep.WriteTime.Round(time.Millisecond), rep.Total().Round(time.Millisecond))
	fmt.Printf("breakdown: %s\n", rep.Phases.String())
	fmt.Printf("I/O: %d opens, %d read calls, %.1f MB read; est. memory/node %.1f MB\n",
		rep.ReadTrace.Opens, rep.ReadTrace.Reads, float64(rep.ReadTrace.BytesRead)/1e6,
		float64(rep.MemPerNode)/1e6)
	if tr := rep.ReadTrace; tr.Retries > 0 || tr.Faults > 0 || tr.SlowReads > 0 || tr.MaskedSamples > 0 {
		fmt.Printf("robustness: %d retries, %d faults, %d slow reads, %d masked samples\n",
			tr.Retries, tr.Faults, tr.SlowReads, tr.MaskedSamples)
	}
	if *out != "" {
		fmt.Printf("result written to %s\n", *out)
	}
	if rep.Quality.Degraded() {
		// Degraded-but-completed is still a success exit (0): the surviving
		// channels are valid and the report says exactly what is missing.
		fmt.Printf("WARNING: run degraded; %s\n", rep.Quality)
		for _, f := range rep.Quality.LostFiles {
			fmt.Printf("WARNING:   lost member: %s\n", f)
		}
	}
	printTrace(traceStore, traceRoot)
}

// printTrace ends the -trace root span and prints the recorded span tree.
// A nil store (no -trace) is a no-op.
func printTrace(store *trace.Store, root *trace.Span) {
	if store == nil {
		return
	}
	root.End()
	for _, td := range store.Recent() {
		fmt.Println()
		trace.WriteTree(os.Stdout, td)
	}
}
