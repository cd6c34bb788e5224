package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileKnownVectors(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 15}, {25, 20}, {50, 35}, {75, 40}, {100, 50}, {90, 46}, {10, 17},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("unsorted median = %v, want 2", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single-value p99 = %v, want 7", got)
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// prints for the same vectors.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 5}, 5, 5},
		{[]float64{1, 3}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := iqr([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5) {
		t.Errorf("iqr = %v, want 5.5", got)
	}
}
