package main

import (
	"math"
	"reflect"
	"testing"
)

func sequence(seed int64, lane int, detect bool, n int) []request {
	g := newReqGen(seed, lane, detect, 512, 800, selectionPool(seed, 24))
	out := make([]request, n)
	for i := range out {
		out[i] = g.next(47 + i/10) // the catalog grows as files arrive
	}
	return out
}

func TestSameSeedSameSequences(t *testing.T) {
	for _, detect := range []bool{false, true} {
		a, b := sequence(7, 0, detect, 200), sequence(7, 0, detect, 200)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("detect=%v: same seed gave different request sequences", detect)
		}
		if reflect.DeepEqual(a, sequence(8, 0, detect, 200)) {
			t.Errorf("detect=%v: seeds 7 and 8 gave the same sequence", detect)
		}
		if reflect.DeepEqual(a, sequence(7, 1, detect, 200)) {
			t.Errorf("detect=%v: lanes 0 and 1 gave the same sequence", detect)
		}
	}
	if !reflect.DeepEqual(selectionPool(7, 24), selectionPool(7, 24)) {
		t.Error("same seed gave different selection pools")
	}
	for k := 0; k < 10; k++ {
		if got, want := arrivalOffset(k), arrivalEvery*float64(k+1); got != want {
			t.Errorf("arrival %d due at %vs, want %vs", k, got, want)
		}
	}
}

func TestDecksKeepTheMix(t *testing.T) {
	tiles, strips := 0, 0
	for _, r := range sequence(3, 0, false, 100) {
		if r.count == 1 {
			tiles++
		} else {
			strips++
		}
		if r.file < 47-zipfMaxRank-3 || r.file+r.count > 47+10 {
			t.Fatalf("request %v leaves the retained window", r)
		}
		if r.ch1-r.ch0 != tileChannels || r.ch0%tileChannels != 0 {
			t.Fatalf("request %v is not a 64-channel band", r)
		}
	}
	if tiles != 80 || strips != 20 {
		t.Errorf("100 reads gave %d tiles and %d strips, want 80 and 20", tiles, strips)
	}
	kinds := map[string]int{}
	pool := map[int]bool{}
	for _, f := range selectionPool(3, 24) {
		pool[f] = true
	}
	for _, r := range sequence(3, 0, true, 100) {
		kinds[r.kind]++
		if !pool[r.file] || r.count != detectFiles {
			t.Fatalf("request %v is not a pooled 4-file selection", r)
		}
	}
	if kinds["localsimi"] != 50 || kinds["stalta"] != 25 || kinds["read"] != 25 {
		t.Errorf("100 detect-workload ops gave %v, want 50/25/25", kinds)
	}
}

// serve_read's skew is solved from its target: the newest files that fit
// in the cache draw hotShare of the picks, in the formula and in the
// seeded draws a lane makes.
func TestZipfMeetsHotShare(t *testing.T) {
	if zipfS <= 1 {
		t.Fatalf("zipfS = %v, outside rand.Zipf's s > 1", zipfS)
	}
	if got := zipfShare(zipfS, zipfMaxRank, cacheFiles); math.Abs(got-hotShare) > 1e-9 {
		t.Errorf("newest %d of %d ranks draw %v, want %v", cacheFiles, zipfMaxRank, got, hotShare)
	}
	g := newReqGen(5, 0, false, readChannels, readSamples, nil)
	const newest, n = 1000, 20000
	hot := 0
	for i := 0; i < n; i++ {
		r := g.next(newest)
		if newest-(r.file+r.count-1) < cacheFiles {
			hot++
		}
	}
	if share := float64(hot) / n; math.Abs(share-hotShare) > 0.01 {
		t.Errorf("%d seeded picks: %.3f on the newest %d files, want %.2f", n, share, cacheFiles, hotShare)
	}
}
