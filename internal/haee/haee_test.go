package haee

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/daslib"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/mpi"
	"dassa/internal/omp"
)

func makeView(t *testing.T, channels, files int) (*dass.View, *dasf.Array2D, dasgen.Config) {
	t.Helper()
	dir := t.TempDir()
	cfg := dasgen.Config{
		Channels: channels, SampleRate: 40, FileSeconds: 2, NumFiles: files,
		Seed: 8, DType: dasf.Float64,
	}
	if _, err := dasgen.Generate(dir, cfg, dasgen.Fig10Events(cfg)); err != nil {
		t.Fatal(err)
	}
	cat, err := dass.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	vca := filepath.Join(dir, "v.dasf")
	if _, err := dass.CreateVCA(vca, cat.Entries()); err != nil {
		t.Fatal(err)
	}
	v, err := dass.OpenView(vca)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := v.Read()
	if err != nil {
		t.Fatal(err)
	}
	return v, full, cfg
}

func TestModeString(t *testing.T) {
	if PureMPI.String() != "mpi" || Hybrid.String() != "hybrid" {
		t.Error("Mode.String broken")
	}
}

func TestConfigValidation(t *testing.T) {
	e := New(Config{Nodes: 0, CoresPerNode: 4})
	if _, err := e.RunPoints(nil, PointsWorkload{UDF: func(*arrayudf.Stencil) float64 { return 0 }}, ""); err == nil {
		t.Error("zero nodes should fail")
	}
	e = New(Config{Nodes: 1, CoresPerNode: 1})
	if _, err := e.RunPoints(nil, PointsWorkload{}, ""); err == nil {
		t.Error("nil UDF should fail")
	}
	if _, err := e.RunRows(nil, RowsWorkload{}, ""); err == nil {
		t.Error("empty rows workload should fail")
	}
}

// TestApplyMTMatchesSequentialApply pins the engine against the serial
// ArrayUDF reference: under every layout and read strategy, a workload
// written with the plain UDF and the same workload written with the
// scratch/destination-passing UDF both reproduce arrayudf.Apply/ApplyRows
// on one rank, bit for bit.
func TestApplyMTMatchesSequentialApply(t *testing.T) {
	v, _, _ := makeView(t, 10, 2)
	pointSpec := arrayudf.Spec{GhostChannels: 1, TimeStride: 3}
	point := func(s *arrayudf.Stencil, w []float64) float64 {
		s.WindowInto(w, -2, 2, 1)
		acc := 2 * s.Value()
		for _, x := range w {
			acc += x
		}
		return acc - s.At(1, -1)
	}
	pointUDF := func(s *arrayudf.Stencil) float64 { return point(s, make([]float64, 5)) }
	pointScratch := func(s *arrayudf.Stencil, scr *daslib.Scratch) float64 {
		w := scr.Float(5)
		defer scr.ReleaseFloat(w)
		return point(s, w)
	}
	const rowLen = 16
	rowSpec := arrayudf.Spec{GhostChannels: 1}
	row := func(s *arrayudf.Stencil, dst []float64) {
		here, next := s.Row(0), s.Row(1)
		for i := range dst {
			dst[i] = here[i*5] - 0.5*next[i*5+1]
		}
	}
	rowUDF := func(s *arrayudf.Stencil) []float64 {
		dst := make([]float64, rowLen)
		row(s, dst)
		return dst
	}

	nch, _ := v.Shape()
	var wantPoints, wantRows *dasf.Array2D
	if _, err := mpi.Run(1, func(c *mpi.Comm) {
		wantPoints = arrayudf.Gather(c, nch, arrayudf.Apply(c, v, pointSpec, pointUDF))
		wantRows = arrayudf.Gather(c, nch, arrayudf.ApplyRows(c, v, rowSpec, rowLen, rowUDF))
	}); err != nil {
		t.Fatal(err)
	}

	for _, layout := range []Config{
		{Nodes: 1, CoresPerNode: 4, Mode: Hybrid},
		{Nodes: 3, CoresPerNode: 2, Mode: Hybrid},
		{Nodes: 2, CoresPerNode: 3, Mode: PureMPI},
	} {
		for _, read := range []struct {
			name     string
			strategy arrayudf.ReadStrategy
		}{{"independent", nil}, {"commavoid", arrayudf.CommAvoidingRead}} {
			cfg := layout
			cfg.ReadStrategy = read.strategy
			eng := New(cfg)
			name := fmt.Sprintf("%s_%dx%d_%s", cfg.Mode, cfg.Nodes, cfg.CoresPerNode, read.name)
			for _, c := range []struct {
				form string
				run  func() (Report, error)
				want *dasf.Array2D
			}{
				{"points/UDF", func() (Report, error) {
					return eng.RunPoints(v, PointsWorkload{Spec: pointSpec, UDF: pointUDF}, "")
				}, wantPoints},
				{"points/UDFScratch", func() (Report, error) {
					return eng.RunPoints(v, PointsWorkload{Spec: pointSpec, UDFScratch: pointScratch}, "")
				}, wantPoints},
				{"rows/UDF", func() (Report, error) {
					return eng.RunRows(v, RowsWorkload{Spec: rowSpec, RowLen: rowLen,
						UDF: func(s *arrayudf.Stencil, _ any) []float64 { return rowUDF(s) }}, "")
				}, wantRows},
				{"rows/UDFInto", func() (Report, error) {
					return eng.RunRows(v, RowsWorkload{Spec: rowSpec, RowLen: rowLen,
						UDFInto: func(s *arrayudf.Stencil, _ any, dst []float64, _ *daslib.Scratch) { row(s, dst) }}, "")
				}, wantRows},
			} {
				rep, err := c.run()
				if err != nil {
					t.Fatalf("%s %s: %v", name, c.form, err)
				}
				got := rep.Output
				if got.Channels != c.want.Channels || got.Samples != c.want.Samples {
					t.Fatalf("%s %s: shape %d×%d, want %d×%d", name, c.form,
						got.Channels, got.Samples, c.want.Channels, c.want.Samples)
				}
				for i := range c.want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(c.want.Data[i]) {
						t.Fatalf("%s %s: output differs at %d: %v vs %v", name, c.form, i, got.Data[i], c.want.Data[i])
					}
				}
			}
		}
	}
}

func TestApplyMTDirect(t *testing.T) {
	// ApplyMTScratch and ApplyRowsInto on a handmade block, checked
	// against direct evaluation.
	a := dasf.NewArray2D(4, 20)
	for c := 0; c < 4; c++ {
		for tt := 0; tt < 20; tt++ {
			a.Set(c, tt, float64(c)*100+float64(tt))
		}
	}
	blk := arrayudf.Block{Data: a, ChLo: 0, ChHi: 4, Ghost: 0}
	team := omp.NewTeam(3)
	spec := arrayudf.Spec{TimeStride: 2}
	out := ApplyMTScratch(team, blk, spec, 20, func(s *arrayudf.Stencil, _ *daslib.Scratch) float64 {
		return 2 * s.Value()
	})
	if out.Channels != 4 || out.Samples != 10 {
		t.Fatalf("points shape %d×%d", out.Channels, out.Samples)
	}
	for c := 0; c < 4; c++ {
		for i := 0; i < 10; i++ {
			if out.At(c, i) != 2*a.At(c, i*2) {
				t.Fatalf("ApplyMTScratch(%d,%d) wrong", c, i)
			}
		}
	}
	rows := ApplyRowsInto(team, blk, 5, func(s *arrayudf.Stencil, dst []float64, _ *daslib.Scratch) {
		for i := range dst {
			dst[i] = -s.Row(0)[i*4]
		}
	})
	if rows.Channels != 4 || rows.Samples != 5 {
		t.Fatalf("rows shape %d×%d", rows.Channels, rows.Samples)
	}
	for c := 0; c < 4; c++ {
		for i := 0; i < 5; i++ {
			if rows.At(c, i) != -a.At(c, i*4) {
				t.Fatalf("ApplyRowsInto(%d,%d) wrong", c, i)
			}
		}
	}

	// A rank that owns no channels yields an empty output of the right width.
	empty := arrayudf.Block{ChLo: 2, ChHi: 2}
	if out := ApplyMTScratch(team, empty, spec, 20, nil); out.Channels != 0 || out.Samples != spec.OutSamples(20) {
		t.Errorf("empty points block: %d×%d", out.Channels, out.Samples)
	}
	if out := ApplyRowsInto(team, empty, 5, nil); out.Channels != 0 || out.Samples != 5 {
		t.Errorf("empty rows block: %d×%d", out.Channels, out.Samples)
	}
}

// TestApplyRowsMTWrongLenPanics: a plain row UDF that breaks its declared
// length panics its rank, and RunRows reports that panic as the run's error.
func TestApplyRowsMTWrongLenPanics(t *testing.T) {
	v, _, _ := makeView(t, 6, 1)
	_, err := New(Config{Nodes: 2, CoresPerNode: 2, Mode: Hybrid}).RunRows(v, RowsWorkload{RowLen: 4,
		UDF: func(*arrayudf.Stencil, any) []float64 { return []float64{1} }}, "")
	if err == nil || !strings.Contains(err.Error(), "returned 1 values, declared 4") {
		t.Errorf("wrong row length: err = %v", err)
	}
}

func TestHybridSharesMasterMemory(t *testing.T) {
	// The core Figure 8 claim: with the same total cores, pure MPI's
	// per-node memory exceeds hybrid's by (cores-1) × shared bytes.
	v, _, cfg := makeView(t, 16, 2)
	params := detect.InterferometryParams{
		Rate: cfg.SampleRate, FilterOrder: 3, CutoffHz: 8,
		ResampleP: 1, ResampleQ: 2, MasterChannel: 0, MaxLag: 30,
	}
	_, nt := v.Shape()
	parts := params.Workload(nt)
	wl := RowsWorkload{Spec: arrayudf.Spec{}, RowLen: parts.RowLen, Prepare: parts.Prepare, UDF: parts.UDF}

	repMPI, err := New(Config{Nodes: 2, CoresPerNode: 4, Mode: PureMPI}).RunRows(v, wl, "")
	if err != nil {
		t.Fatal(err)
	}
	repHyb, err := New(Config{Nodes: 2, CoresPerNode: 4, Mode: Hybrid}).RunRows(v, wl, "")
	if err != nil {
		t.Fatal(err)
	}
	if repMPI.MemPerNode <= repHyb.MemPerNode {
		t.Errorf("pure MPI per-node memory (%d) should exceed hybrid (%d)",
			repMPI.MemPerNode, repHyb.MemPerNode)
	}
	// Same result either way.
	if repMPI.Output.Channels != repHyb.Output.Channels {
		t.Fatal("shape mismatch")
	}
	for i := range repMPI.Output.Data {
		if d := math.Abs(repMPI.Output.Data[i] - repHyb.Output.Data[i]); d > 1e-9 {
			t.Fatalf("mode outputs differ at %d by %g", i, d)
		}
	}
	// Hybrid issues fewer read requests (2 ranks vs 8 ranks doing
	// independent I/O + master reads).
	if repHyb.ReadTrace.Opens >= repMPI.ReadTrace.Opens {
		t.Errorf("hybrid opens (%d) should be below pure MPI opens (%d)",
			repHyb.ReadTrace.Opens, repMPI.ReadTrace.Opens)
	}
}

func TestOOMDetection(t *testing.T) {
	v, _, cfg := makeView(t, 16, 2)
	params := detect.InterferometryParams{
		Rate: cfg.SampleRate, FilterOrder: 3, CutoffHz: 8,
		ResampleP: 1, ResampleQ: 2, MasterChannel: 0, MaxLag: 30,
	}
	_, nt := v.Shape()
	parts := params.Workload(nt)
	wl := RowsWorkload{RowLen: parts.RowLen, Prepare: parts.Prepare, UDF: parts.UDF}
	// A memory cap between hybrid's and pure MPI's footprint OOMs only MPI.
	hyb, err := New(Config{Nodes: 2, CoresPerNode: 4, Mode: Hybrid}).RunRows(v, wl, "")
	if err != nil {
		t.Fatal(err)
	}
	mpiRep, err := New(Config{Nodes: 2, CoresPerNode: 4, Mode: PureMPI}).RunRows(v, wl, "")
	if err != nil {
		t.Fatal(err)
	}
	cap := (hyb.MemPerNode + mpiRep.MemPerNode) / 2
	hyb2, err := New(Config{Nodes: 2, CoresPerNode: 4, Mode: Hybrid, NodeMemoryBytes: cap}).RunRows(v, wl, "")
	if err != nil {
		t.Fatal(err)
	}
	mpi2, err := New(Config{Nodes: 2, CoresPerNode: 4, Mode: PureMPI, NodeMemoryBytes: cap}).RunRows(v, wl, "")
	if err != nil {
		t.Fatal(err)
	}
	if hyb2.OOM {
		t.Error("hybrid should fit under the cap")
	}
	if !mpi2.OOM {
		t.Error("pure MPI should OOM under the cap")
	}
}

func TestRunRowsWritesOutput(t *testing.T) {
	v, _, cfg := makeView(t, 8, 1)
	params := detect.InterferometryParams{
		Rate: cfg.SampleRate, FilterOrder: 3, CutoffHz: 8,
		ResampleP: 1, ResampleQ: 2, MasterChannel: 0, MaxLag: 20,
	}
	_, nt := v.Shape()
	parts := params.Workload(nt)
	wl := RowsWorkload{RowLen: parts.RowLen, Prepare: parts.Prepare, UDF: parts.UDF}
	out := filepath.Join(t.TempDir(), "result.dasf")
	rep, err := New(Config{Nodes: 2, CoresPerNode: 2, Mode: Hybrid}).RunRows(v, wl, out)
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := dasf.ReadInfo(out)
	if err != nil {
		t.Fatal(err)
	}
	if info.NumChannels != 8 || info.NumSamples != parts.RowLen {
		t.Errorf("written result shape %d×%d, want 8×%d", info.NumChannels, info.NumSamples, parts.RowLen)
	}
	if rep.WriteTrace.BytesWritten == 0 {
		t.Error("write trace empty")
	}
	if rep.Total() <= 0 {
		t.Error("phase timings missing")
	}
	// The master channel's self-correlation peaks at 1 at zero lag.
	zero := parts.RowLen / 2
	if d := math.Abs(rep.Output.At(0, zero) - 1); d > 1e-6 {
		t.Errorf("master self-correlation at zero lag = %g, want 1", rep.Output.At(0, zero))
	}
}
