// Quickstart: the end-to-end DASSA workflow through the high-level facade
// (internal/core) — the API a downstream user starts with.
//
//  1. Generate a small synthetic DAS acquisition (stand-in for a real
//     instrument writing one file per minute).
//  2. Open it as a dataset and search by timestamp (das_search semantics).
//  3. Merge the matches into a virtually concatenated array — metadata only.
//  4. Run a custom stencil UDF (three-point moving average, the paper's
//     introductory example) and a built-in analysis (local similarity)
//     with the hybrid execution engine.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"dassa/internal/arrayudf"
	"dassa/internal/core"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "dassa-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Generate: 32 channels, 50 Hz, six 2-second files, with the
	// Figure 10 event mix planted.
	cfg := dasgen.Config{
		Channels: 32, SampleRate: 50, FileSeconds: 2, NumFiles: 6,
		Seed: 7, DType: dasf.Float32,
	}
	if _, err := dasgen.Generate(dir, cfg, dasgen.Fig10Events(cfg)); err != nil {
		log.Fatal(err)
	}

	// 2. Open + search: the first 4 files from the start timestamp.
	ds, err := core.OpenDataset(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d files at %.0f Hz\n", ds.Len(), ds.SampleRate())
	matches := ds.Search(ds.Files()[0].Timestamp, 4)
	fmt.Printf("search found %d files\n", len(matches))

	// 3. Merge virtually — no data is copied.
	v, err := ds.Merge(matches)
	if err != nil {
		log.Fatal(err)
	}
	nch, nt := v.Shape()
	fmt.Printf("VCA view: %d channels × %d samples across %d member files\n",
		nch, nt, v.NumMembers())

	// 4a. A custom UDF: the paper's three-point moving average.
	fw := core.New(core.Config{Nodes: 2, CoresPerNode: 2})
	smoothed, rep, err := fw.Apply(v, 0, 1, func(s *arrayudf.Stencil) float64 {
		return (s.At(-1, 0) + s.At(0, 0) + s.At(1, 0)) / 3
	}, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("smoothed array: %d×%d\nphases: %s\n",
		smoothed.Channels, smoothed.Samples, rep.Phases)
	fmt.Printf("I/O trace: %d opens, %d read calls, %.2f MB\n",
		rep.ReadTrace.Opens, rep.ReadTrace.Reads, float64(rep.ReadTrace.BytesRead)/1e6)

	// 4b. A built-in analysis: local-similarity event detection.
	whole, err := ds.MergeAll()
	if err != nil {
		log.Fatal(err)
	}
	_, events, _, err := fw.LocalSimilarity(whole, core.DefaultLocalSimi(ds.SampleRate()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("local similarity detected %d event region(s)\n", len(events))
	for _, e := range events {
		fmt.Printf("  t=[%d,%d) channels=[%d,%d) peak=%.3f\n", e.TLo, e.THi, e.ChLo, e.ChHi, e.Peak)
	}
	fmt.Println("quickstart OK")
}
