package clitest

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"dassa/internal/core"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/dass"
	"dassa/internal/detect"
)

// TestAnalyzeMatchesCore pins das_analyze to the framework: for each op,
// the result file das_analyze -out writes holds exactly the values the
// matching core.Framework method computes over the same VCA, bit for bit,
// under a different engine layout and read strategy.
func TestAnalyzeMatchesCore(t *testing.T) {
	dir := t.TempDir()
	gen := dasgen.Config{Channels: 16, SampleRate: 50, FileSeconds: 2, NumFiles: 6, Seed: 3, DType: dasf.Float64}
	if _, err := dasgen.Generate(dir, gen, dasgen.Fig10Events(gen)); err != nil {
		t.Fatal(err)
	}
	cat, err := dass.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	vca := filepath.Join(t.TempDir(), "merged.vca.dasf")
	if _, err := dass.CreateVCA(vca, cat.Entries()); err != nil {
		t.Fatal(err)
	}
	v, err := dass.OpenView(vca)
	if err != nil {
		t.Fatal(err)
	}
	_, nt := v.Shape()
	rate := gen.SampleRate
	fw := core.New(core.Config{Nodes: 1, CoresPerNode: 3})

	// The core calls use das_analyze's flag defaults.
	ip := core.DefaultInterferometry(rate).InterferometryParams
	for _, c := range []struct {
		op   string
		core func() (*dasf.Array2D, error)
	}{
		{"localsimi", func() (*dasf.Array2D, error) {
			out, _, err := fw.LocalSimilarityMap(v, detect.LocalSimiParams{M: 25, K: 1, L: 4, Stride: 10})
			return out, err
		}},
		{"interferometry", func() (*dasf.Array2D, error) {
			out, _, err := fw.Interferometry(v, core.InterferometryOptions{InterferometryParams: ip})
			return out, err
		}},
		{"stacked", func() (*dasf.Array2D, error) {
			out, _, err := fw.StackedInterferometry(v, core.StackedInterferometryOptions{
				StackingParams: detect.StackingParams{InterferometryParams: ip, WindowSamples: max(nt/8, 64)},
			})
			return out, err
		}},
		{"stalta", func() (*dasf.Array2D, error) {
			sta := max(int(rate/5), 2)
			out, _, err := fw.STALTA(v, detect.STALTAParams{
				STASamples: sta, LTASamples: max(int(4*rate), sta+1), Stride: 10,
			}, "")
			return out, err
		}},
	} {
		t.Run(c.op, func(t *testing.T) {
			outPath := filepath.Join(t.TempDir(), c.op+".dasf")
			run(t, "das_analyze", "-in", vca, "-op", c.op, "-nodes", "2", "-cores", "2",
				"-read", "commavoid", "-out", outPath)
			r, err := dasf.Open(outPath)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.ReadAll()
			r.Close()
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.core()
			if err != nil {
				t.Fatal(err)
			}
			if err := sameBits(got, want); err != nil {
				t.Errorf("das_analyze -op %s vs core: %v", c.op, err)
			}
		})
	}
}

// sameBits reports the first cell where got and want differ in shape or
// bit pattern (NaN gaps must match as NaN).
func sameBits(got, want *dasf.Array2D) error {
	if got.Channels != want.Channels || got.Samples != want.Samples {
		return fmt.Errorf("shape %d×%d, want %d×%d", got.Channels, got.Samples, want.Channels, want.Samples)
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return fmt.Errorf("cell (%d,%d) = %v, want %v", i/want.Samples, i%want.Samples, g, w)
		}
	}
	return nil
}
