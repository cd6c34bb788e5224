package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of the pairwise rule.
const (
	verdictGain       = "gain"
	verdictNoWorse    = "no worse than the bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// specMetric is one end-to-end metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// judge applies the pairwise rule to one metric of one workload. old and
// new are the two sides' values in run order; run i of each side forms
// pair i, so runs made alternately give alternating pairs.
//
//   - gain: the new side wins at least 9 of every 10 pairs (ties count for
//     neither) and the medians differ by more than the old side's IQR;
//   - unresolved: the old side's IQR is wider than the bound (as a share
//     of its median), unless every new run beats every old run;
//   - worse: the new median is worse by more than the bound;
//   - otherwise no worse than the bound.
func judge(old, new []float64, lowerIsBetter bool, bound float64) string {
	better := func(a, b float64) bool { // a better than b
		if lowerIsBetter {
			return a < b
		}
		return a > b
	}
	pairs := min(len(old), len(new))
	if pairs == 0 {
		return verdictUnresolved
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(new[i], old[i]) {
			wins++
		}
	}
	mo, mn := median(old), median(new)
	gainBy := mn - mo
	if lowerIsBetter {
		gainBy = mo - mn
	}
	spread := iqr(old)
	if wins*10 >= 9*pairs && gainBy > spread {
		return verdictGain
	}
	allBetter := true
	for _, n := range new {
		for _, o := range old {
			if !better(n, o) {
				allBetter = false
			}
		}
	}
	base := math.Abs(mo)
	if base > 0 && spread/base > bound && !allBetter {
		return verdictUnresolved
	}
	if base > 0 && -gainBy/base > bound {
		return verdictWorse
	}
	return verdictNoWorse
}

// compareMain is `perfbench compare old new`, run from the checkout's
// root: it reads two results.jsonl files and prints a verdict per
// workload and end-to-end metric, with the metrics' direction and bound
// taken from BENCHMARK.json. It exits 1 when any metric is worse.
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <old results.jsonl> <new results.jsonl>")
		return 2
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	old, err := loadRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	new, err := loadRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	worse := false
	fmt.Fprintf(stdout, "%-14s %-14s %5s %14s %14s %10s  %s\n", "workload", "metric", "pairs", "old median", "new median", "old IQR", "verdict")
	for _, wl := range sortedKeys(old) {
		if _, ok := new[wl]; !ok {
			continue
		}
		for _, m := range spec.EndToEnd {
			ov, nv := values(old[wl], m.Name), values(new[wl], m.Name)
			v := judge(ov, nv, m.Better == "lower", m.Bound)
			worse = worse || v == verdictWorse
			fmt.Fprintf(stdout, "%-14s %-14s %5d %14.4f %14.4f %10.4f  %s\n",
				wl, m.Name, min(len(ov), len(nv)), median(ov), median(nv), iqr(ov), v)
		}
	}
	if worse {
		return 1
	}
	return 0
}

// loadRecords reads the untraced records of a results file by workload,
// in file order.
func loadRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
