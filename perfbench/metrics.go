package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// coverageTolerance is how far the layer self times may sum from the
// traced wall time before the run counts a failed check. The wall is
// the ops' own time, so what no layer covers is time inside an op that
// no layer span records.
const coverageTolerance = 0.10

// subWindows is how many equal parts of a serve window chsec_per_s is
// measured over; the report is their median, so a burst of interference
// from outside the benchmark moves it less than a whole-window mean.
const subWindows = 5

// runOut is what one measured (or traced) window produced.
type runOut struct {
	mu sync.Mutex
	// primary is the class whose latency op_p50_ms/op_p90_ms report.
	primary string
	// lat holds per-class latencies: pass, read, detect, ingest, and the
	// individual op names.
	lat map[string][]time.Duration
	// chsec is the channel-seconds of DAS data the completed ops covered.
	chsec float64
	// start opens the window; done records when each op completed and
	// what it covered, for the per-sub-window throughput.
	start time.Time
	done  []doneOp
	// rates are per-pass throughputs (batch_vca, whose passes replace
	// sub-windows).
	rates []float64
	// window is the wall time throughput is measured over.
	window time.Duration
	// laneOps is how many ops each client lane completed; the traced
	// replay repeats exactly these.
	laneOps []int
	// wall is the summed wall time of the ops and ingest scans, each
	// from its start until its result is in: the denominator of trace
	// overhead and layer coverage.
	wall time.Duration

	attempted, failed int64
	failures          []string

	heapPeak float64 // bytes
	rt       runtimeDelta
	// counts are layer counters read from the program over the window.
	counts map[string]float64
	// checks are value checks deferred out of the timed window.
	checks []func() error
}

// doneOp is one completed op: when, relative to the window's start, and
// the channel-seconds it covered.
type doneOp struct {
	at    time.Duration
	chsec float64
}

func newRunOut(primary string, lanes int) *runOut {
	return &runOut{primary: primary, lat: map[string][]time.Duration{},
		laneOps: make([]int, lanes), counts: map[string]float64{}, start: time.Now()}
}

// ok records a completed op.
func (o *runOut) ok(class string, d time.Duration, chsec float64) {
	o.mu.Lock()
	o.attempted++
	o.lat[class] = append(o.lat[class], d)
	o.chsec += chsec
	o.done = append(o.done, doneOp{time.Since(o.start), chsec})
	o.mu.Unlock()
}

// latency records a latency sample that is not an op of its own.
func (o *runOut) latency(class string, d time.Duration) {
	o.mu.Lock()
	o.lat[class] = append(o.lat[class], d)
	o.mu.Unlock()
}

// busy adds an op's (or an ingest scan's) wall time: from its start
// until its result is in, without the benchmark's checks after that.
func (o *runOut) busy(d time.Duration) {
	o.mu.Lock()
	o.wall += d
	o.mu.Unlock()
}

// add accumulates a layer counter.
func (o *runOut) add(name string, x float64) {
	o.mu.Lock()
	o.counts[name] += x
	o.mu.Unlock()
}

// fail records a failed op (or a failed check of a completed one).
func (o *runOut) fail(attempt bool, format string, args ...any) {
	o.mu.Lock()
	if attempt {
		o.attempted++
	}
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
	o.mu.Unlock()
}

// later defers a value check until the window has closed.
func (o *runOut) later(check func() error) {
	o.mu.Lock()
	o.checks = append(o.checks, check)
	o.mu.Unlock()
}

// runChecks runs the deferred checks; each failure counts once.
func (o *runOut) runChecks() {
	checks := o.checks
	o.checks = nil
	for _, c := range checks {
		if err := c(); err != nil {
			o.fail(false, "%v", err)
		}
	}
}

func (o *runOut) primaryLat() []time.Duration { return o.lat[o.primary] }

// throughput is chsec_per_s: the median over batch passes, or over the
// window's sub-windows.
func (o *runOut) throughput() float64 {
	if len(o.rates) > 0 {
		return median(o.rates)
	}
	part := o.window / subWindows
	sums := make([]float64, subWindows)
	for _, d := range o.done {
		sums[min(int(d.at/part), subWindows-1)] += d.chsec
	}
	for i := range sums {
		sums[i] /= part.Seconds()
	}
	return median(sums)
}

func (o *runOut) ops() int {
	n := 0
	for _, k := range o.laneOps {
		n += k
	}
	return n
}

// endToEnd is the untraced run's report.
func (o *runOut) endToEnd(setup float64) map[string]metric {
	p := millis(o.primaryLat())
	return map[string]metric{
		"setup_s":     {setup, "s"},
		"chsec_per_s": {o.throughput(), "ch.s/s"},
		"op_p50_ms":   {percentile(p, 50), "ms"},
		"op_p90_ms":   {percentile(p, 90), "ms"},
	}
}

// layerMetrics lists every per-layer metric with its unit, in the order
// BENCHMARK.json lists them. Times and counts that grow with the work
// done are per op (per scan for ingest), so a faster program, which
// completes more ops in a window, does not read worse on them.
var layerMetrics = []struct{ name, unit string }{
	{"dasf.read_ns", "ns/op"}, {"dasf.opens", "count/op"}, {"dasf.reads", "count/op"},
	{"dasf.read_bytes", "B/op"}, {"dasf.write_ns", "ns/op"}, {"dasf.write_bytes", "B/op"},
	{"cache.get_ns", "ns/op"}, {"cache.hit_ratio", "ratio"}, {"cache.misses", "count/op"},
	{"cache.coalesced", "count/op"}, {"cache.evictions", "count/op"},
	{"dass.search_ns", "ns/op"}, {"dass.view_ns", "ns/op"}, {"dass.read_ns", "ns/op"},
	{"ingest.scan_ns", "ns/scan"}, {"ingest.scan_files", "count/scan"}, {"ingest.arrival_late_ms", "ms"},
	{"mpi.exchange_ns", "ns/op"}, {"mpi.exchange_bytes", "B/op"}, {"mpi.exchange_rounds", "count/op"},
	{"mpi.bcast_bytes", "B/op"},
	{"daslib.filtfilt_ns", "ns/op"}, {"daslib.filtfilt_calls", "count/op"}, {"daslib.filtfilt_bytes", "B/op"},
	{"daslib.resample_ns", "ns/op"}, {"daslib.resample_calls", "count/op"}, {"daslib.resample_bytes", "B/op"},
	{"daslib.xcorr_ns", "ns/op"}, {"daslib.xcorr_calls", "count/op"}, {"daslib.xcorr_bytes", "B/op"},
	{"daslib.rfft_ns", "ns/op"}, {"daslib.rfft_calls", "count/op"}, {"daslib.rfft_bytes", "B/op"},
	{"detect.localsimi_ns", "ns/op"}, {"detect.localsimi_calls", "count/op"}, {"detect.localsimi_bytes", "B/op"},
	{"detect.stalta_ns", "ns/op"}, {"detect.stalta_calls", "count/op"}, {"detect.stalta_bytes", "B/op"},
	{"daslib.scratch_reuse_ratio", "ratio"},
	{"haee.read_ns", "ns/op"}, {"haee.compute_ns", "ns/op"}, {"haee.write_ns", "ns/op"},
	{"haee.compute_imbalance", "ratio"}, {"haee.mem_per_node_bytes", "B"},
	{"cluster.run_ns", "ns/op"}, {"cluster.worker_shard_ns", "ns/op"}, {"cluster.overhead_ns", "ns/op"},
	{"cluster.shards", "count/op"}, {"cluster.redispatched", "count/op"},
	{"wire.bytes_out", "B/op"}, {"wire.bytes_in", "B/op"}, {"wire.bytes_per_request", "B"},
	{"wire.encode_ns", "ns/op"}, {"wire.decode_ns", "ns/op"},
	{"serve.encode_ns", "ns/op"}, {"serve.response_bytes", "B/op"}, {"serve.admission_rejected", "count/op"},
	{"serve.other_ns", "ns/op"},
	{"heap_peak_mb", "MB"}, {"runtime.alloc_bytes_per_op", "B"}, {"runtime.gc_cycles", "count/op"}, {"runtime.gc_pause_ns", "ns/op"},
	{"trace.overhead_frac", "ratio"}, {"layers.coverage", "ratio"},
	{"batch_chsec_per_s", "ch.s/s"}, {"read_rps", "1/s"}, {"read_p50_ms", "ms"},
	{"read_p90_ms", "ms"}, {"read_p99_ms", "ms"}, {"detect_rps", "1/s"},
	{"detect_p50_ms", "ms"}, {"detect_p90_ms", "ms"}, {"ingest_p50_ms", "ms"},
	{"ops_failed_frac", "ratio"},
}

// kernels are the DSP kernels the traced replay times one by one.
var kernels = []string{"daslib.filtfilt", "daslib.resample", "daslib.xcorr", "daslib.rfft",
	"detect.localsimi", "detect.stalta"}

// attribution is where the traced replay's wall time went: each layer's
// self time, the benchmark's own among them, and the wall.
type attribution struct {
	LayersNS map[string]float64 `json:"layers_ns"`
	BenchNS  float64            `json:"bench_ns"`
	WallNS   float64            `json:"wall_ns"`
	Coverage float64            `json:"coverage"`
}

// perLayer builds the traced run's report. Counts come from the untraced
// window u (the program's own behaviour), divided by u's ops; times come
// from the spans of the traced replay t, divided by t's ops. A run whose
// layers cover less or more of the traced wall than coverageTolerance
// allows counts a failed check on t.
func perLayer(u, t *runOut, tr *tracer) (map[string]metric, attribution) {
	self := tr.selfTimes()
	v := map[string]float64{}
	for k, x := range u.counts {
		v[k] = x
	}
	for _, k := range kernels {
		// Kernel calls and bytes are counted by the replay that ran them.
		v[k+"_calls"], v[k+"_bytes"] = t.counts[k+"_calls"], t.counts[k+"_bytes"]
	}
	times := map[string]float64{
		"dasf.read_ns":  self["dasf.open"] + self["dasf.read"],
		"dasf.write_ns": self["dasf.write"],
		"cache.get_ns":  self["cache.get"],
		// The replayed read's stitching alone: the server's own read span
		// (dass.read.server) also holds its cache and storage calls.
		"dass.read_ns":    self["dass.read"],
		"mpi.exchange_ns": self["haee.exchange"],
		"serve.other_ns":  self["http"] + self["http /read"] + self["http /detect"],
	}
	for _, n := range []string{"dass.search", "dass.view", "haee.read", "haee.compute",
		"haee.write", "wire.encode", "wire.decode", "serve.encode"} {
		times[n+"_ns"] = self[n]
	}
	for _, k := range kernels {
		times[k+"_ns"] = self[k]
	}
	runs, _ := tr.durations("cluster.run")
	_, shards := tr.durations("worker.shard")
	for tree, d := range runs {
		times["cluster.run_ns"] += d
		times["cluster.worker_shard_ns"] += shards[tree]
		times["cluster.overhead_ns"] += d - shards[tree]
	}
	for k, x := range times {
		v[k] = x
	}
	perOp := func(x float64, ops int) float64 {
		if ops <= 0 {
			return 0
		}
		return x / float64(ops)
	}
	uOps, tOps := u.ops(), t.ops()
	for _, m := range layerMetrics {
		if m.unit != "ns/op" && m.unit != "count/op" && m.unit != "B/op" {
			continue
		}
		ops := uOps
		if _, timed := times[m.name]; timed || t.counts[m.name] != 0 {
			ops = tOps
		}
		v[m.name] = perOp(v[m.name], ops)
	}
	v["ingest.scan_ns"] = perOp(self["ingest.scan"], int(t.counts["ingest.scans"]))
	v["ingest.scan_files"] = perOp(u.counts["ingest.scan_files"], int(u.counts["ingest.scans"]))
	v["wire.bytes_per_request"] = v["wire.bytes_in"] + v["wire.bytes_out"]
	v["runtime.alloc_bytes_per_op"] = perOp(u.rt.allocBytes, uOps)
	v["runtime.gc_cycles"] = perOp(u.rt.gcCycles, uOps)
	v["runtime.gc_pause_ns"] = perOp(u.rt.gcPauseNS, uOps)
	v["heap_peak_mb"] = u.heapPeak / 1e6

	layers := layerTimes(self)
	at := attribution{LayersNS: layers, BenchNS: layers[benchLayer], WallNS: float64(t.wall)}
	if u.wall > 0 {
		v["trace.overhead_frac"] = t.wall.Seconds()/u.wall.Seconds() - 1
	}
	at.Coverage = coverage(layers, float64(t.wall))
	v["layers.coverage"] = at.Coverage
	if math.Abs(at.Coverage-1) > coverageTolerance {
		t.fail(false, "layer self times sum to %.3f of the traced wall time (tolerance %.2f); the benchmark's own self time is %.3f of it",
			at.Coverage, coverageTolerance, at.BenchNS/max(at.WallNS, 1))
	}

	secs := u.window.Seconds()
	if u.primary == "pass" {
		v["batch_chsec_per_s"] = u.chsec / secs
	}
	rd, dt := millis(u.lat["read"]), millis(u.lat["detect"])
	v["read_rps"] = float64(len(rd)) / secs
	v["read_p50_ms"], v["read_p90_ms"], v["read_p99_ms"] = percentile(rd, 50), percentile(rd, 90), percentile(rd, 99)
	v["detect_rps"] = float64(len(dt)) / secs
	v["detect_p50_ms"], v["detect_p90_ms"] = percentile(dt, 50), percentile(dt, 90)
	v["ingest_p50_ms"] = percentile(millis(u.lat["ingest"]), 50)
	v["ingest.arrival_late_ms"] = percentile(millis(u.lat["arrival_late"]), 50)
	if a := u.attempted + t.attempted; a > 0 {
		v["ops_failed_frac"] = float64(u.failed+t.failed) / float64(a)
	}

	out := map[string]metric{}
	for _, m := range layerMetrics {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out, at
}

// runtimeDelta is the Go runtime's work over a window.
type runtimeDelta struct {
	allocBytes, gcCycles, gcPauseNS float64
}

// sampler tracks the live heap the GC measures at the end of each cycle
// while a window runs, and the runtime's allocation and GC work across
// it. heap_peak_mb is the 90th percentile of the per-cycle live heap: the
// working set at its busiest, without letting one cycle that happened to
// mark in the middle of a large response decide the figure.
type sampler struct {
	stop   chan struct{}
	done   chan struct{}
	live   []float64
	before runtime.MemStats
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&s.before)
	sample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var cycles uint64
		for {
			metrics.Read(sample)
			if c := sample[0].Value.Uint64(); c != cycles {
				cycles = c
				s.live = append(s.live, float64(sample[1].Value.Uint64()))
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and stores what it saw in o.
func (s *sampler) finish(o *runOut) {
	close(s.stop)
	<-s.done
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	o.heapPeak = percentile(s.live[min(1, len(s.live)):], 90) // the first entry predates the window
	o.rt = runtimeDelta{
		allocBytes: float64(after.TotalAlloc - s.before.TotalAlloc),
		gcCycles:   float64(after.NumGC - s.before.NumGC),
		gcPauseNS:  float64(after.PauseTotalNs - s.before.PauseTotalNs),
	}
}
