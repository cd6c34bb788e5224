package main

import "testing"

func TestJudge(t *testing.T) {
	old := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name  string
		new   []float64
		lower bool
		bound float64
		want  string
	}{
		{"ties count for neither side", old, true, 0.1, verdictNoWorse},
		{"all pairs won by more than the IQR", []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}, true, 0.1, verdictGain},
		{"all pairs won, higher is better", []float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 110}, false, 0.1, verdictGain},
		{"8 of 10 pairs is not a gain", []float64{90, 91, 89, 90, 92, 88, 90, 91, 120, 120}, true, 0.5, verdictNoWorse},
		{"wins smaller than the IQR are not a gain", []float64{99.5, 100.5, 98.5, 99.5, 101.5, 97.5, 99.5, 100.5, 98.5, 99.5}, true, 0.1, verdictNoWorse},
		{"worse by more than the bound", []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}, true, 0.1, verdictWorse},
		{"worse, higher is better", []float64{70, 71, 69, 70, 72, 68, 70, 71, 69, 70}, false, 0.1, verdictWorse},
		{"worse but within the bound", []float64{104, 105, 103, 104, 106, 102, 104, 105, 103, 104}, true, 0.1, verdictNoWorse},
		{"no pairs", nil, true, 0.1, verdictUnresolved},
	} {
		if got := judge(old, c.new, c.lower, c.bound); got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}

	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if got := judge(noisy, []float64{120, 130, 125, 115, 118, 122, 128, 119, 121, 124}, true, 0.1); got != verdictUnresolved {
		t.Errorf("spread wider than the bound: %q, want %q", got, verdictUnresolved)
	}
	if got := judge(noisy, []float64{50, 55, 52, 54, 51, 53, 56, 50, 52, 55}, true, 0.1); got != verdictGain {
		t.Errorf("every new run better than every old run: %q, want %q", got, verdictGain)
	}
}
