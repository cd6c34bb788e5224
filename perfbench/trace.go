package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dassa/internal/obs/trace"
)

// span is one recorded interval. Spans of one operation share a tree ID;
// a span's parent is the smallest earlier span of its tree that contains
// it, so spans recorded on other goroutines (engine ranks, workers) nest
// by time without threading IDs through the program.
type span struct {
	Tree  int64  `json:"tree"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"` // unix nanoseconds
	End   int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced replay.
type tracer struct {
	mu    sync.Mutex
	spans []span
	trees atomic.Int64
}

func newTracer() *tracer { return &tracer{} }

// tree opens a new operation and returns its ID.
func (t *tracer) tree() int64 {
	if t == nil {
		return 0
	}
	return t.trees.Add(1)
}

// add records [start, end) as name under tree. A nil tracer records
// nothing, so instrumented helpers serve both runs.
func (t *tracer) add(tree int64, name string, start, end time.Time) {
	if t == nil || !end.After(start) {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Tree: tree, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(tree int64, name string, fn func()) {
	t0 := time.Now()
	fn()
	t.add(tree, name, t0, time.Now())
}

// graft copies spans the program recorded itself into tree.
func (t *tracer) graft(tree int64, sds []trace.SpanData) {
	for _, sd := range sds {
		start := time.Unix(0, sd.StartUnixNano)
		t.add(tree, sd.Name, start, start.Add(time.Duration(sd.DurNS)))
	}
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	var encErr error
	for _, s := range t.spans {
		if encErr = enc.Encode(s); encErr != nil {
			break
		}
	}
	t.mu.Unlock()
	return errors.Join(encErr, bw.Flush(), f.Close())
}

// layerOf maps a span name onto the repository module it times.
func layerOf(name string) string {
	switch {
	case name == "http" || strings.HasPrefix(name, "http "):
		return "serve"
	case name == "haee.exchange":
		return "mpi"
	case strings.HasPrefix(name, "core."):
		// The program's detection-op span: its self time is event
		// extraction around the engine run.
		return "detect"
	case name == "worker.shard":
		return "cluster"
	}
	if l, _, ok := strings.Cut(name, "."); ok && l != benchLayer {
		return l
	}
	return benchLayer
}

// benchLayer is the layer of the benchmark's own spans.
const benchLayer = "bench"

// selfTimes attributes every instant of every tree to the spans open at
// that instant that have no open child, split evenly among them when
// several run in parallel. Each span's share is its self time: its
// duration minus what its children cover. Because every instant is handed
// out exactly once, the self times of a tree sum to its covered wall time.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	byTree := map[int64][]span{}
	for _, s := range t.spans {
		byTree[s.Tree] = append(byTree[s.Tree], s)
	}
	t.mu.Unlock()
	self := map[string]float64{}
	for _, sp := range byTree {
		attributeTree(sp, self)
	}
	return self
}

func attributeTree(sp []span, self map[string]float64) {
	// Outer spans first: earlier start, then longer.
	sort.SliceStable(sp, func(i, j int) bool {
		if sp[i].Start != sp[j].Start {
			return sp[i].Start < sp[j].Start
		}
		return sp[i].End > sp[j].End
	})
	n := len(sp)
	parent := make([]int, n)
	for i := range sp {
		parent[i] = -1
		for j := 0; j < i; j++ {
			if sp[j].Start <= sp[i].Start && sp[j].End >= sp[i].End &&
				(parent[i] < 0 || sp[j].End-sp[j].Start <= sp[parent[i]].End-sp[parent[i]].Start) {
				parent[i] = j
			}
		}
	}
	bounds := make([]int64, 0, 2*n)
	for _, s := range sp {
		bounds = append(bounds, s.Start, s.End)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	busyParent := make([]bool, n)
	var leaves []int
	for k := 0; k+1 < len(bounds); k++ {
		a, b := bounds[k], bounds[k+1]
		if a == b {
			continue
		}
		clear(busyParent)
		leaves = leaves[:0]
		for i, s := range sp {
			if s.Start <= a && s.End >= b && parent[i] >= 0 {
				busyParent[parent[i]] = true
			}
		}
		for i, s := range sp {
			if s.Start <= a && s.End >= b && !busyParent[i] {
				leaves = append(leaves, i)
			}
		}
		share := float64(b-a) / float64(len(leaves))
		for _, i := range leaves {
			self[sp[i].Name] += share
		}
	}
}

// layerTimes sums self times per layer.
func layerTimes(self map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for name, ns := range self {
		out[layerOf(name)] += ns
	}
	return out
}

// coverage is the share of the traced wall time the program's layers
// account for: their self times summed over wall. The benchmark's own
// self time (gaps inside an op that no layer span covers) is left out,
// so work no layer records lowers it.
func coverage(layers map[string]float64, wall float64) float64 {
	if wall <= 0 {
		return 0
	}
	var sum float64
	for l, ns := range layers {
		if l != benchLayer {
			sum += ns
		}
	}
	return sum / wall
}

// durations returns, per tree, the summed and the longest duration of the
// spans named name.
func (t *tracer) durations(name string) (sum, longest map[int64]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum, longest = map[int64]float64{}, map[int64]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			d := float64(s.End - s.Start)
			sum[s.Tree] += d
			longest[s.Tree] = max(longest[s.Tree], d)
		}
	}
	return sum, longest
}
