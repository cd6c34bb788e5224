package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dassa/internal/cluster"
	"dassa/internal/core"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/obs"
	"dassa/internal/obs/trace"
	"dassa/internal/serve"
)

const (
	serveCacheBytes = 64 << 20 // dassd's default block cache
	// readSamplesPerLane is how many /read bodies per lane are kept for
	// value checks after the window; every body is checked for being a
	// decodable JSON document.
	readSamplesPerLane = 6
	detectMaxULP       = 4
)

// regionJSON mirrors one event of a /detect response.
type regionJSON struct {
	TLo  int     `json:"t_lo"`
	THi  int     `json:"t_hi"`
	ChLo int     `json:"ch_lo"`
	ChHi int     `json:"ch_hi"`
	Peak float64 `json:"peak"`
}

type refKey struct {
	file int
	op   string
}

type serveWL struct {
	seed     int64
	d        time.Duration
	cfg      dasgen.Config // the whole acquisition: catalog then staged files
	initial  int           // files in the catalog when the server starts
	staged   int           // files generated for arrivals (grows for a replay)
	fanout   bool
	detect   bool
	lanes    int // closed-loop clients
	watch    string
	stage    string
	reg      *obs.Registry
	srv      *serve.Server
	hs       *http.Server
	base     string
	client   *http.Client
	wg       sync.WaitGroup
	workers  []*cluster.Worker
	pool     []int
	refs     map[refKey][]regionJSON
	arrivals int // staged files delivered so far
	newest   atomic.Int64
	laneOps  []int
	// wireIn and wireOut count the bytes dassd received from and sent
	// to its workers, on the workers' side of the loopback connections.
	wireIn, wireOut atomic.Int64
}

func newServe(name string, seed int64, d time.Duration) workload {
	w := &serveWL{seed: seed, d: d, fanout: name == "serve_fanout", detect: name != "serve_read", lanes: 2}
	start := time.Date(2017, 6, 20, 10, 5, 45, 0, time.UTC)
	if w.detect {
		w.initial = 24
		w.cfg = dasgen.Config{Channels: 256, SampleRate: 100, FileSeconds: 8, NumFiles: 24, Seed: seed, StartTime: start}
		w.pool = selectionPool(seed, w.initial)
		// One client: with two, a /detect's latency depends on which op
		// the other client happens to run beside it, and the run-to-run
		// spread of the latency percentiles grows past any usable bound.
		w.lanes = 1
	} else {
		w.initial = readRetainFiles
		// Two arrivals a second, plus slack for the last op to finish.
		w.staged = int(2*d.Seconds()) + 8
		w.cfg = dasgen.Config{Channels: readChannels, SampleRate: 100, FileSeconds: readSamples / 100,
			NumFiles: w.initial + w.staged, Seed: seed, StartTime: start}
	}
	return w
}

func (w *serveWL) datasets() map[string]any {
	decoded := 8 * w.cfg.Channels * w.cfg.SamplesPerFile() * w.initial
	return map[string]any{"catalog": map[string]any{
		"channels": w.cfg.Channels, "files": w.initial, "samples_per_file": w.cfg.SamplesPerFile(),
		"decoded_bytes": decoded, "cache_bytes": serveCacheBytes,
		"decoded_over_cache": float64(decoded) / serveCacheBytes,
	}}
}

func (w *serveWL) setup(dir string) error {
	w.stage = filepath.Join(dir, "stage")
	w.watch = filepath.Join(dir, "watch")
	var events []dasgen.Event
	if w.detect {
		events = dasgen.Fig10Events(w.cfg)
	}
	paths, err := dasgen.Generate(w.stage, w.cfg, events)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(w.watch, 0o755); err != nil {
		return err
	}
	for _, p := range paths[:w.initial] {
		if err := os.Rename(p, filepath.Join(w.watch, filepath.Base(p))); err != nil {
			return err
		}
	}
	w.newest.Store(int64(w.initial - 1))

	var addrs []string
	if w.fanout {
		for i := 0; i < 2; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			wk := cluster.NewWorker(cluster.WorkerConfig{Cores: 1, HeartbeatEvery: 200 * time.Millisecond})
			counted := countingListener{Listener: ln, read: &w.wireOut, written: &w.wireIn}
			w.wg.Add(1)
			go func() {
				defer w.wg.Done()
				_ = wk.Serve(counted) // returns once Close severs the listener
			}()
			w.workers = append(w.workers, wk)
			addrs = append(addrs, ln.Addr().String())
		}
	}
	ing := serve.IngestConfig{Dir: w.watch}
	if !w.detect {
		ing.RetainFiles, ing.LiveVCA = w.initial, true
	}
	w.reg = obs.NewRegistry()
	w.srv = serve.NewServer(serve.Config{
		Ingest: ing, CacheBytes: serveCacheBytes, Nodes: 1, CoresPerNode: 2,
		Workers: addrs, Registry: w.reg,
	})
	if err := w.srv.Ingester().ScanOnce(); err != nil {
		return err
	}
	if n := w.srv.Ingester().Catalog().Len(); n != w.initial {
		return fmt.Errorf("catalog has %d files, want %d", n, w.initial)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	w.client = &http.Client{Timeout: time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	if w.fanout {
		deadline := time.Now().Add(10 * time.Second)
		for w.srv.Cluster().HealthyWorkers() < 2 {
			if time.Now().After(deadline) {
				return errors.New("dassw workers never became healthy")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return w.warmUp()
}

// warmUp sends a few requests so connections, plans and the hottest
// blocks exist before the window opens.
func (w *serveWL) warmUp() error {
	gen := newReqGen(w.seed, 99, w.detect, w.cfg.Channels, w.cfg.SamplesPerFile(), w.pool)
	n := 8
	if w.detect {
		n = len(detectDeck) // one deck: every op kind once
	}
	for i := 0; i < n; i++ {
		req := gen.next(w.initial - 1)
		body, status, err := w.get(req.query(w.ts(req.file)), "")
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up %s: HTTP %d: %s", req, status, clip(body))
		}
	}
	return nil
}

// prepare computes the /detect references and, for a traced replay,
// stages more arrivals.
func (w *serveWL) prepare(traced bool) error {
	if w.detect {
		fw := core.New(core.Config{Nodes: 1, CoresPerNode: 2, FailPolicy: dass.FailDegrade})
		w.refs = map[refKey][]regionJSON{}
		for _, f := range w.pool {
			v, err := dass.ViewOver(w.srv.Ingester().Catalog().SearchStartCount(w.ts(f), detectFiles))
			if err != nil {
				return err
			}
			_, regions, _, err := fw.LocalSimilarity(v, w.localSimi())
			if err != nil {
				return err
			}
			w.refs[refKey{f, "localsimi"}] = toJSON(regions)
			out, _, err := fw.STALTA(v, w.stalta(), "")
			if err != nil {
				return err
			}
			nch, _ := v.Shape()
			w.refs[refKey{f, "stalta"}] = toJSON(detect.FindEventsBanded(out, 1.5, max(nch/8, 4)))
		}
		return nil
	}
	if !traced {
		return nil
	}
	// The replay runs longer than the window; stage enough files for it.
	extra := dasgen.Config{Channels: w.cfg.Channels, SampleRate: w.cfg.SampleRate,
		FileSeconds: w.cfg.FileSeconds, NumFiles: int(8*w.d.Seconds()) + 16, Seed: w.seed + 1,
		StartTime: w.cfg.StartTime.Add(time.Duration(w.cfg.NumFiles) * 8 * time.Second)}
	if _, err := dasgen.Generate(w.stage, extra, nil); err != nil {
		return err
	}
	w.staged += extra.NumFiles
	return nil
}

// localSimi and stalta are the parameters dassd's /detect uses by default.
func (w *serveWL) localSimi() core.LocalSimiOptions { return core.DefaultLocalSimi(w.cfg.SampleRate) }

func (w *serveWL) stalta() detect.STALTAParams {
	rate := w.cfg.SampleRate
	return detect.STALTAParams{STASamples: max(int(rate/10), 2), LTASamples: max(int(rate), 8)}
}

func toJSON(regions []detect.Region) []regionJSON {
	out := make([]regionJSON, len(regions))
	for i, r := range regions {
		out[i] = regionJSON{TLo: r.TLo, THi: r.THi, ChLo: r.ChLo, ChHi: r.ChHi, Peak: r.Peak}
	}
	return out
}

// ts is file idx's acquisition timestamp, the s= selection key.
func (w *serveWL) ts(idx int) int64 { return dasgen.FileTimestamp(w.cfg, idx) }

func (w *serveWL) path(idx int) string { return filepath.Join(w.watch, dasgen.FileName(w.cfg, idx)) }

func (w *serveWL) get(path, traceID string) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodGet, w.base+path, nil)
	if err != nil {
		return nil, 0, err
	}
	if traceID != "" {
		req.Header.Set(trace.Header, traceID)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// counters snapshots the program's counters a window's layer metrics
// are computed from.
type serveCounters struct {
	cache           serve.CacheStats
	rejected        float64
	wireIn, wireOut float64
	shards, redisp  float64
	storage         map[string]float64
}

func (w *serveWL) counters() (serveCounters, error) {
	var st struct {
		Admission serve.AdmissionStats `json:"admission"`
	}
	body, status, err := w.get("/status", "")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/status: HTTP %d", status)
	}
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	return serveCounters{
		cache:    w.srv.Cache().Stats(),
		rejected: float64(st.Admission.Rejected),
		wireIn:   float64(w.wireIn.Load()), wireOut: float64(w.wireOut.Load()),
		shards:  counterValue(w.reg, "dassa_cluster_shards_total", obs.L("outcome", "done")),
		redisp:  counterValue(w.reg, "dassa_cluster_shards_total", obs.L("outcome", "retried")),
		storage: dasfCounters(),
	}, err
}

func (w *serveWL) measure(d time.Duration, tr *tracer) (*runOut, error) {
	// The primary op of the detect workloads is local similarity, the
	// detection dassd runs by default and two thirds of their /detect
	// traffic.
	primary := "read"
	if w.detect {
		primary = "localsimi"
	}
	o := newRunOut(primary, w.lanes)
	c0, err := w.counters()
	if err != nil {
		return nil, err
	}
	smp := startSampler()
	start := time.Now()
	o.start = start
	stop := make(chan struct{})
	var iwg sync.WaitGroup
	if !w.detect {
		iwg.Add(1)
		go func() {
			defer iwg.Done()
			w.ingest(start, stop, o, tr)
		}()
	}
	var lwg sync.WaitGroup
	for lane := 0; lane < w.lanes; lane++ {
		lwg.Add(1)
		go func(lane int) {
			defer lwg.Done()
			w.lane(lane, start, d, tr, o)
		}(lane)
	}
	lwg.Wait()
	close(stop)
	iwg.Wait()
	o.window = time.Since(start)
	smp.finish(o)
	if tr == nil {
		w.laneOps = append([]int(nil), o.laneOps...)
	}

	c1, err := w.counters()
	if err != nil {
		return nil, err
	}
	hits, misses := c1.cache.Hits-c0.cache.Hits, c1.cache.Misses-c0.cache.Misses
	if hits+misses > 0 {
		o.counts["cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	o.counts["cache.misses"] = float64(misses)
	o.counts["cache.coalesced"] = float64(c1.cache.Coalesced - c0.cache.Coalesced)
	o.counts["cache.evictions"] = float64(c1.cache.Evictions - c0.cache.Evictions)
	o.counts["serve.admission_rejected"] = c1.rejected - c0.rejected
	o.counts["wire.bytes_in"] = c1.wireIn - c0.wireIn
	o.counts["wire.bytes_out"] = c1.wireOut - c0.wireOut
	o.counts["cluster.shards"] = c1.shards - c0.shards
	o.counts["cluster.redispatched"] = c1.redisp - c0.redisp
	storageDeltas(o, c0.storage)
	return o, nil
}

// lane is one closed-loop client. Untraced it runs until d has passed;
// traced it replays as many ops as the untraced lane completed. The /read
// bodies whose values are checked after the window are a seeded reservoir
// sample over all of the lane's reads, so checked reads come from every
// part of the window: after arrivals, retention trims and evictions too.
func (w *serveWL) lane(lane int, start time.Time, d time.Duration, tr *tracer, o *runOut) {
	gen := newReqGen(w.seed, lane, w.detect, w.cfg.Channels, w.cfg.SamplesPerFile(), w.pool)
	pick := sampleRand(w.seed, lane)
	type kept struct {
		req  request
		body []byte
	}
	var sample []kept
	reads := 0
	n := 0
	for {
		if tr == nil && time.Since(start) >= d {
			break
		}
		if tr != nil && n >= w.laneOps[lane] {
			break
		}
		req := gen.next(int(w.newest.Load()))
		if body := w.op(req, tr, o); body != nil {
			if reads < readSamplesPerLane {
				sample = append(sample, kept{req, body})
			} else if j := pick.Intn(reads + 1); j < readSamplesPerLane {
				sample[j] = kept{req, body}
			}
			reads++
		}
		n++
	}
	o.laneOps[lane] = n
	for _, k := range sample {
		o.later(func() error { return w.checkRead(k.req, k.body) })
	}
}

// op sends one request and books its outcome; it returns the body of a
// successful /read. In the traced replay it first replays the request's
// layers through the public functions, then sends the request carrying a
// trace ID and grafts the server's spans. The op's wall time ends when
// the response is in; the benchmark's own work after that (grafting,
// body checks) is outside it.
func (w *serveWL) op(req request, tr *tracer, o *runOut) []byte {
	tree := tr.tree()
	opStart := time.Now()
	ts := w.ts(req.file)
	var traceID string
	if tr != nil {
		if err := w.replayLayers(tr, tree, o, req, ts); err != nil {
			o.fail(false, "%s: layer replay: %v", req, err)
		}
		traceID = string(trace.NewID())
	}
	t0 := time.Now()
	body, status, err := w.get(req.query(ts), traceID)
	t1 := time.Now()
	o.busy(t1.Sub(opStart))
	if tr != nil {
		tr.add(tree, "bench.op", opStart, t1)
		tr.add(tree, "http", t0, t1)
		w.graftServer(tr, tree, trace.ID(traceID), t0, t1)
	}
	class := "detect"
	if req.kind == "read" {
		class = "read"
	}
	switch {
	case err != nil:
		o.fail(true, "%s: %v", req, err)
	case status != http.StatusOK:
		o.fail(true, "%s: HTTP %d: %s", req, status, clip(body))
	case len(body) == 0 || !json.Valid(body):
		// How a response whose encoding failed after the 200 was sent
		// shows up: an empty or truncated body.
		o.fail(true, "%s: HTTP 200 with an empty or undecodable body (%d bytes)", req, len(body))
	default:
		o.ok(class, t1.Sub(t0), float64(req.ch1-req.ch0)*float64(req.t1-req.t0)/w.cfg.SampleRate)
		o.add("serve.response_bytes", float64(len(body)))
		if class == "read" {
			return body
		}
		o.latency(req.kind, t1.Sub(t0))
		o.later(func() error { return w.checkDetect(req, body, o) })
	}
	return nil
}

// replayLayers runs the request's pipeline through the layers' public
// functions with spans: catalog search, view, slab reads through the
// block cache (or straight from storage on the fan-out path, which
// bypasses the cache), the detection kernel on the same rows, the shard
// wire encoding on the fan-out path, and the /read response encoding.
func (w *serveWL) replayLayers(tr *tracer, tree int64, o *runOut, req request, ts int64) error {
	cache := w.srv.Cache()
	if w.fanout {
		cache = nil
	}
	arr, err := readProbe(tr, tree, w.srv.Ingester().Catalog(), cache, req, ts)
	if err != nil {
		return err
	}
	out := arr
	switch req.kind {
	case "read":
		encodeProbe(tr, tree, arr, req.count)
	case "localsimi":
		p := w.localSimi().LocalSimiParams
		out = pointKernel(tr, tree, o, "detect.localsimi", arr, p.Spec(), p.UDFScratch())
	case "stalta":
		p := w.stalta()
		out = pointKernel(tr, tree, o, "detect.stalta", arr, p.Spec(), p.UDFScratch())
	}
	if w.fanout {
		return wireProbe(tr, tree, out)
	}
	return nil
}

// graftServer copies the spans dassd (and its workers) recorded for one
// request into the op's tree. The server's dass.read spans are renamed
// dass.read.server: the cache and storage calls under them record no
// spans, so their self time is the whole read, not the stitching that
// dass.read_ns reports from the replayed read.
func (w *serveWL) graftServer(tr *tracer, tree int64, id trace.ID, lo, hi time.Time) {
	// The server ends its root span just after the response is written;
	// give it a moment to land in the store.
	for i := 0; i < 50; i++ {
		if td := w.srv.Traces().Get(id); td != nil {
			kept := make([]trace.SpanData, len(td.Spans))
			for j, sd := range td.Spans {
				kept[j] = clampSpan(sd, lo, hi)
				if sd.Name == "dass.read" {
					kept[j].Name = "dass.read.server"
				}
			}
			tr.graft(tree, kept)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// ingest delivers staged files on the open-loop schedule: rename into the
// watched directory, then scan.
func (w *serveWL) ingest(start time.Time, stop <-chan struct{}, o *runOut, tr *tracer) {
	for k := 0; w.arrivals < w.staged; k++ {
		due := start.Add(time.Duration(arrivalOffset(k) * float64(time.Second)))
		timer := time.NewTimer(time.Until(due))
		select {
		case <-stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		idx := w.initial + w.arrivals
		late := time.Since(due)
		t0 := time.Now()
		name := dasgen.FileName(w.cfg, idx)
		if err := os.Rename(filepath.Join(w.stage, name), filepath.Join(w.watch, name)); err != nil {
			o.fail(false, "arrival %s: %v", name, err)
			return
		}
		err := w.srv.Ingester().ScanOnce()
		t1 := time.Now()
		tr.add(tr.tree(), "ingest.scan", t0, t1)
		o.busy(t1.Sub(t0))
		w.arrivals++
		o.add("ingest.scans", 1)
		// Retention trims the catalog, not the directory: every scan
		// walks each file delivered so far.
		o.add("ingest.scan_files", float64(w.initial+w.arrivals))
		if err != nil {
			o.fail(false, "scan after %s: %v", name, err)
			continue
		}
		w.newest.Store(int64(idx))
		o.latency("ingest", t1.Sub(due))
		o.latency("arrival_late", late)
	}
}

// checkRead compares a /read body with a direct dasf read of the window.
func (w *serveWL) checkRead(req request, body []byte) error {
	var resp struct {
		NumChannels int         `json:"num_channels"`
		NumSamples  int         `json:"num_samples"`
		Files       int         `json:"files"`
		Gaps        int         `json:"gaps"`
		Data        [][]float64 `json:"data"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: %v", req, err)
	}
	if resp.Files != req.count || resp.Gaps != 0 || len(resp.Data) != req.ch1-req.ch0 {
		return fmt.Errorf("%s: got %d files, %d gaps, %d rows", req, resp.Files, resp.Gaps, len(resp.Data))
	}
	nt := w.cfg.SamplesPerFile()
	for f := 0; f < req.count; f++ {
		r, err := dasf.Open(w.path(req.file + f))
		if err != nil {
			return fmt.Errorf("%s: reference read: %v", req, err)
		}
		want, err := r.ReadSlab(req.ch0, req.ch1, 0, nt)
		r.Close()
		if err != nil {
			return fmt.Errorf("%s: reference read: %v", req, err)
		}
		for c := 0; c < want.Channels; c++ {
			for t, x := range want.Row(c) {
				at := f*nt + t
				if at < req.t0 || at >= req.t1 {
					continue
				}
				row := resp.Data[c]
				if at-req.t0 >= len(row) || row[at-req.t0] != x {
					return fmt.Errorf("%s: value at channel %d sample %d differs from the file", req, req.ch0+c, at)
				}
			}
		}
	}
	return nil
}

// checkDetect compares a /detect body's events with the reference.
func (w *serveWL) checkDetect(req request, body []byte, o *runOut) error {
	var resp struct {
		Events   []regionJSON    `json:"events"`
		Degraded bool            `json:"degraded"`
		Phases   obs.PhaseReport `json:"phases"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: %v", req, err)
	}
	if c := resp.Phases.Stat(obs.PhaseCompute); c.MeanMS > 0 {
		o.add("imbalance.sum", c.MaxMS/c.MeanMS)
		o.add("imbalance.n", 1)
	}
	want := w.refs[refKey{req.file, req.kind}]
	if resp.Degraded {
		return fmt.Errorf("%s: degraded result over clean files", req)
	}
	if len(resp.Events) != len(want) {
		return fmt.Errorf("%s: %d events, reference has %d", req, len(resp.Events), len(want))
	}
	for i, e := range resp.Events {
		r := want[i]
		if e.TLo != r.TLo || e.THi != r.THi || e.ChLo != r.ChLo || e.ChHi != r.ChHi ||
			ulpDiff(e.Peak, r.Peak) > detectMaxULP {
			return fmt.Errorf("%s: event %d = %+v, reference %+v", req, i, e, r)
		}
	}
	return nil
}

func (w *serveWL) check(out *runOut) {
	out.runChecks()
	if h, ok := out.counts["cache.hit_ratio"]; !w.detect && (!ok || h <= 0 || h >= 1) {
		// Not a failed op, but the workload no longer loads what it is for.
		fmt.Fprintf(os.Stderr, "perfbench: serve_read cache hit ratio %.3f: the cache no longer both hits and misses\n", h)
	}
	// The /detect checks read each response's engine phases.
	if n := out.counts["imbalance.n"]; n > 0 {
		out.counts["haee.compute_imbalance"] = out.counts["imbalance.sum"] / n
	}
}

func (w *serveWL) close() {
	if w.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = w.hs.Shutdown(ctx) // on timeout the listener is closed anyway
		cancel()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	for _, wk := range w.workers {
		wk.Close()
	}
	w.wg.Wait()
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}

// countingListener counts the bytes read from and written to the
// connections it accepts.
type countingListener struct {
	net.Listener
	read, written *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, read: l.read, written: l.written}, nil
}

type countingConn struct {
	net.Conn
	read, written *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// clip shortens a body for an error message.
func clip(b []byte) string {
	b = bytes.TrimSpace(b)
	if len(b) > 120 {
		b = b[:120]
	}
	return string(b)
}
