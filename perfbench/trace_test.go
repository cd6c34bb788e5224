package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimesSumToWall(t *testing.T) {
	tr := newTracer()
	tree := tr.tree()
	// One 100 ms op: a 60 ms engine run holding two parallel 40 ms reads,
	// then a 30 ms encode; 10 ms belong to the op itself.
	tr.add(tree, "bench.op", at(0), at(100))
	tr.add(tree, "haee.compute", at(0), at(60))
	tr.add(tree, "dasf.read", at(10), at(50))
	tr.add(tree, "dasf.read", at(10), at(50))
	tr.add(tree, "serve.encode", at(60), at(90))
	// A second op in its own tree overlaps the first in time without
	// taking any of its time.
	other := tr.tree()
	tr.add(other, "cache.get", at(20), at(30))

	self := tr.selfTimes()
	ms := float64(time.Millisecond)
	want := map[string]float64{
		"bench.op": 10 * ms, "haee.compute": 20 * ms, "dasf.read": 40 * ms,
		"serve.encode": 30 * ms, "cache.get": 10 * ms,
	}
	for name, w := range want {
		if math.Abs(self[name]-w) > 1 {
			t.Errorf("self[%s] = %v ms, want %v ms", name, self[name]/ms, w/ms)
		}
	}
	layers := layerTimes(self)
	var sum float64
	for _, ns := range layers {
		sum += ns
	}
	if math.Abs(sum-110*ms) > 1 {
		t.Errorf("self times sum to %v ms, want the 110 ms the two trees cover", sum/ms)
	}
	if math.Abs(layers["dasf"]-40*ms) > 1 || math.Abs(layers["bench"]-10*ms) > 1 {
		t.Errorf("layer times %v", layers)
	}
	// The op's own 10 ms is the benchmark's, not a layer's.
	if got, want := coverage(layers, 110*ms), 100.0/110; math.Abs(got-want) > 1e-9 {
		t.Errorf("coverage = %v, want %v", got, want)
	}
}

// The layers-sum check: time inside an op that no layer span records
// fails the run instead of counting as covered.
func TestLayersSumCheck(t *testing.T) {
	for _, c := range []struct {
		name     string
		readEnd  int // the op runs 0-100 ms; its one layer span 0-readEnd
		wantFail bool
	}{
		{"layers cover the op", 95, false},
		{"a quarter of the op is unrecorded", 75, true},
	} {
		tr := newTracer()
		tree := tr.tree()
		tr.add(tree, "bench.op", at(0), at(100))
		tr.add(tree, "dasf.read", at(0), at(c.readEnd))
		u, traced := newRunOut("read", 1), newRunOut("read", 1)
		u.laneOps[0], traced.laneOps[0] = 4, 4
		u.counts["dasf.reads"] = 20
		u.wall, traced.wall = 50*time.Millisecond, 100*time.Millisecond
		m, at := perLayer(u, traced, tr)
		if failed := traced.failed == 1; failed != c.wantFail {
			t.Errorf("%s: coverage %.3f (bench %.0f ns), failed=%v, want %v", c.name, at.Coverage, at.BenchNS, failed, c.wantFail)
		}
		if got, want := m["layers.coverage"].Value, float64(c.readEnd)/100; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: layers.coverage = %v, want %v", c.name, got, want)
		}
		// Counts and times are per op.
		if got := m["dasf.reads"].Value; got != 5 {
			t.Errorf("%s: dasf.reads = %v per op, want 5", c.name, got)
		}
		if got, want := m["dasf.read_ns"].Value, float64(c.readEnd)*1e6/4; math.Abs(got-want) > 1 {
			t.Errorf("%s: dasf.read_ns = %v per op, want %v", c.name, got, want)
		}
		if got := m["trace.overhead_frac"].Value; math.Abs(got-1) > 1e-9 {
			t.Errorf("%s: trace.overhead_frac = %v, want 1", c.name, got)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for name, want := range map[string]string{
		"http": "serve", "http /read": "serve", "serve.encode": "serve",
		"haee.exchange": "mpi", "haee.compute": "haee", "core.localsimi": "detect",
		"worker.shard": "cluster", "cluster.dispatch": "cluster", "dass.read": "dass",
		"daslib.rfft": "daslib", "perfbench": "bench", "bench.op": "bench",
		"dass.read.server": "dass",
	} {
		if got := layerOf(name); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", name, got, want)
		}
	}
}

// BENCHMARK.json must list exactly the metrics the benchmark reports.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []specMetric            `json:"end_to_end"`
		PerLayer  []specMetric            `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	o := newRunOut("read", 1)
	o.window = time.Second
	e2e := o.endToEnd(1)
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the report %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s) not reported with that unit", m.Name, m.Unit)
		}
	}
	var names, units []string
	for _, m := range spec.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	var wantNames, wantUnits []string
	for _, m := range layerMetrics {
		wantNames, wantUnits = append(wantNames, m.name), append(wantUnits, m.unit)
	}
	if !reflect.DeepEqual(names, wantNames) || !reflect.DeepEqual(units, wantUnits) {
		t.Errorf("per_layer in BENCHMARK.json differs from layerMetrics")
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
}
