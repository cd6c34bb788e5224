// Command perfbench is DASSA's end-to-end benchmark. It runs one seeded
// workload per invocation, drives the program only through its public Go
// functions, checks the program's outputs, and prints one JSON result line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench compare <old.jsonl> <new.jsonl>
//
// Each run sets the workload up seven times and reports the median set-up
// time as setup_s, then measures for --seconds. With --trace 0 it reports
// the end-to-end metrics. With --trace 1 it measures the same untraced
// window, then replays the same seeded operations with in-memory spans
// and reports per-layer metrics. In the replay each operation first runs
// its layers through their public functions inside spans (catalog search,
// view, slab reads through a benchmark-owned dass.SlabReaderFunc over the
// block cache and dasf, the DSP kernels on the same rows, shard wire
// encoding, response encoding), then runs as it does untraced, with the
// spans the program records itself (engine phases, dass.read, cluster and
// worker spans) grafted beneath it. Times come from the replay's spans,
// counts from the untraced window, and both are divided by the ops that
// produced them, so a faster program, which completes more ops in a
// window, does not read worse on them. layers.coverage is the program
// layers' self times summed over the traced wall time of the ops. The
// benchmark's own self time is left out of that sum and printed beside
// it, so time inside an op that no layer span records lowers the
// coverage; a run whose coverage is off by more than 10% counts a failed
// check. Spans are written to .bench_out/spans-<workload>-<seed>.jsonl
// when the run ends, and every result is appended with its environment
// to .bench_out/results.jsonl, which is what the compare command reads.
//
// End-to-end metrics are the same on every workload: setup_s,
// chsec_per_s (channel-seconds of DAS data analysed or served per wall
// second) and op_p50_ms/op_p90_ms, the latency of the workload's primary
// operation (a four-op batch pass, a /read, or a /detect?op=localsimi).
// Per-class metrics (read_*, detect_*, ingest_p50_ms, batch_chsec_per_s,
// ops_failed_frac) and heap_peak_mb are reported by the traced run.
//
// batch_vca is the offline das_analyze path. One pass runs interferometry,
// stacked interferometry, local similarity and STA/LTA through
// haee.Engine (hybrid, 2 nodes x 1 core, communication-avoiding reads)
// over a VCA of 24 files x 256 channels x 8 s at 100 Hz, each op writing
// its result DASF. It loads dasf, dass, mpi, haee and the daslib/detect
// kernels, and bypasses the block cache, HTTP, wire and cluster. Its
// layer metrics should move chsec_per_s and op_p50_ms: the kernel and
// haee.compute_ns times most (compute is about nine tenths of a pass),
// then dasf.read_ns and mpi.exchange_ns; haee.mem_per_node_bytes should
// move heap_peak_mb. cache.*, serve.*, cluster.* and wire.* read zero.
//
// serve_read is dassd with its defaults (64 MiB cache, 1 node x 2 cores)
// over a 48-file x 512-channel catalog, about 2.3x the cache when decoded.
// Two closed-loop clients send /read: 80% single-file 64-channel tiles,
// 20% four-file 64-channel strips, files picked by a seeded Zipf rank so
// the newest data is hottest: the exponent is solved so the newest files
// whose tiles fit in the cache together draw 90% of the picks. Staged files arrive open-loop every 0.5 s
// (rename then Ingester.ScanOnce, RetainFiles 48, LiveVCA on), so old
// files age out and their cache entries are dropped. It loads dasf, the
// cache, dass, ingest and response encoding, and barely touches kernels;
// wire and cluster read zero. cache.hit_ratio, cache.get_ns and
// dasf.read_ns should move the read tail (op_p90_ms); serve.encode_ns and
// dass.read_ns should move op_p50_ms and chsec_per_s; ingest.scan_ns
// should move ingest_p50_ms. The daslib/detect kernel metrics should stay
// flat.
//
// serve_detect is dassd with its defaults over a static 24-file x
// 256-channel catalog. One closed-loop client sends a 2:1:1 mix of
// /detect?op=localsimi, /detect?op=stalta and /read 64-channel strips,
// each over a seeded 4-file selection. After warm-up the reads hit the
// cache, so the kernels and the engine dominate: detect.localsimi_ns,
// detect.stalta_ns and haee.compute_ns should move op_p50_ms (the
// localsimi latency), detect_p50_ms and chsec_per_s; dasf and cache
// metrics should stay flat. It is the in-process twin of serve_fanout;
// cluster.* and wire.* read zero.
//
// serve_fanout is serve_detect with dassd fanning /read and /detect out
// to two in-process dassw workers over loopback TCP, one core each, so
// the core budget is the same. It is the only workload where cluster and
// wire do the work, and the only one whose reads bypass the block cache.
// cluster.overhead_ns, wire.encode_ns/decode_ns and
// wire.bytes_per_request should explain its op_p50_ms gap to
// serve_detect.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outDir holds everything a run leaves behind, relative to the checkout.
const outDir = ".bench_out"

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 7

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what results.jsonl keeps per run: the result plus the
// environment and sample counts it was measured under.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Env      map[string]any `json:"env"`
	Samples  map[string]int `json:"samples"`
	// Setups are the set-up times setup_s is the median of.
	Setups []float64 `json:"setups_s"`
	// Attribution is where a traced replay's wall time went.
	Attribution *attribution `json:"attribution,omitempty"`
	Result      result       `json:"result"`
}

// workload is one benchmark scenario.
type workload interface {
	// setup builds the inputs under dir and starts what the workload
	// drives; everything it does counts toward setup_s.
	setup(dir string) error
	// prepare runs after the timed set-up and before measuring:
	// correctness references and extra staged inputs for a traced replay.
	prepare(traced bool) error
	// measure drives the traffic. With tr nil it runs for d and records
	// how many operations each client lane completed; with tr set it
	// replays exactly those operations and records spans.
	measure(d time.Duration, tr *tracer) (*runOut, error)
	// check runs the value checks deferred out of the timed window.
	check(out *runOut)
	// datasets describes each dataset's decoded size against the cache.
	datasets() map[string]any
	// close stops everything setup started and waits for it.
	close()
}

var workloads = map[string]func(seed int64, d time.Duration) workload{
	"batch_vca": func(seed int64, _ time.Duration) workload { return newBatch(seed) },
	"serve_read": func(seed int64, d time.Duration) workload {
		return newServe("serve_read", seed, d)
	},
	"serve_detect": func(seed int64, d time.Duration) workload {
		return newServe("serve_detect", seed, d)
	},
	"serve_fanout": func(seed int64, d time.Duration) workload {
		return newServe("serve_fanout", seed, d)
	},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: batch_vca | serve_read | serve_detect | serve_fanout")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1 = also replay traced and report per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	if err := run(*name, mk, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, mk func(int64, time.Duration) workload, seed int64, d time.Duration, traced bool) error {
	runDir, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	// Set up several times; keep the last one running.
	var setups []float64
	var w workload
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		w = mk(seed, d)
		dir := filepath.Join(runDir, fmt.Sprintf("setup%d", i))
		if i > 0 {
			// Only one set-up's files exist at a time.
			if err := os.RemoveAll(filepath.Join(runDir, fmt.Sprintf("setup%d", i-1))); err != nil {
				return err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(dir); err != nil {
			w.close()
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	if err := w.prepare(traced); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}

	runtime.GC()
	out, err := w.measure(d, nil)
	if err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	w.check(out)

	var res result
	samples := map[string]int{"setup_s": len(setups)}
	var spans *tracer
	var attr *attribution
	if !traced {
		res.Metrics = out.endToEnd(median(setups))
		samples["op_p50_ms"] = len(out.primaryLat())
		samples["op_p90_ms"] = len(out.primaryLat())
	} else {
		spans = newTracer()
		runtime.GC()
		tout, err := w.measure(d, spans)
		if err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
		w.check(tout)
		// perLayer may count a failed layers-sum check, so it runs
		// before the two windows' outcomes are merged.
		var at attribution
		res.Metrics, at = perLayer(out, tout, spans)
		attr = &at
		out.failed += tout.failed
		out.attempted += tout.attempted
		out.failures = append(out.failures, tout.failures...)
		for _, c := range []string{"read", "detect", "pass"} {
			samples[c] = len(out.lat[c])
		}
		samples["spans"] = len(spans.spans)
	}
	res.Attempted, res.Failed = out.attempted, out.failed
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		out.failures = append(out.failures, "no operation completed")
	}
	res.Correct = res.Failed == 0
	for _, f := range firstN(out.failures, 10) {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}

	rec := record{Workload: name, Seed: seed, Trace: traced, Env: environment(seed, w), Samples: samples,
		Setups: setups, Attribution: attr, Result: res}
	if err := saveRecord(rec, spans, name, seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving results:", err)
	}
	envLine, err := json.Marshal(map[string]any{"env": rec.Env, "samples": samples, "setups_s": setups, "attribution": attr})
	if err != nil {
		return err
	}
	fmt.Println(string(envLine))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func firstN(s []string, n int) []string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

// environment records what a result was measured on.
func environment(seed int64, w workload) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     commit(),
		"seed":       seed,
		"datasets":   w.datasets(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's commit when it is a git work tree, else
// "unknown" (the benchmark also runs from exported trees).
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if r, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", r))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return ref
}

func saveRecord(rec record, spans *tracer, name string, seed int64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "results.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	_, werr := f.Write(append(b, '\n'))
	if err := errors.Join(werr, f.Close()); err != nil {
		return err
	}
	if spans == nil {
		return nil
	}
	return spans.writeFile(filepath.Join(outDir, "spans-"+name+"-"+strconv.FormatInt(seed, 10)+".jsonl"))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
