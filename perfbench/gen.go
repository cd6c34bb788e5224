package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"
)

// request is one seeded client operation. File indices are dasgen file
// indices; t0/t1 are samples relative to the selection's first file.
type request struct {
	kind     string // "read", "localsimi" or "stalta"
	file     int
	count    int
	ch0, ch1 int
	t0, t1   int
}

// Traffic shape. Each lane draws its op kinds from a shuffled deck, so
// every run sends the mix in exact proportions and only the order is
// random: serve_read deals 4 tiles to 1 strip, serve_detect and
// serve_fanout 2 localsimi to 1 stalta to 1 read.
var (
	readDeck   = []string{"tile", "tile", "tile", "tile", "strip"}
	detectDeck = []string{"localsimi", "localsimi", "stalta", "read"}
)

const (
	tileChannels = 64
	stripFiles   = 4 // files per serve_read strip
	detectFiles  = 4 // files per serve_detect/serve_fanout selection
	poolSize     = 6 // distinct selections per serve_detect/serve_fanout run

	// serve_read's catalog and the recency skew of its file picks.
	readChannels    = 512
	readSamples     = 800 // 8 s at 100 Hz
	readRetainFiles = 48
	// arrivalSlack is how many files may arrive between a pick and its
	// request being served: two seconds of arrivals, far above any
	// request's latency.
	arrivalSlack = 4
	// zipfMaxRank bounds the recency rank so the oldest file a strip
	// touches stays inside the retained window.
	zipfMaxRank = readRetainFiles - stripFiles - arrivalSlack
	// hotShare is the share of picks that land on the newest files whose
	// tiles fit in the block cache together. The skew exponent is solved
	// from it, so the hot set follows the cache size: most reads hit,
	// and the cold picks plus the blocks every arrival and trim drop
	// keep the cache missing and evicting.
	hotShare = 0.9
)

// cacheFiles is how many of serve_read's files have all their tiles fit
// in the block cache at once.
const cacheFiles = serveCacheBytes / (8 * readChannels * readSamples)

// zipfS is the Zipf exponent that gives the newest cacheFiles files
// hotShare of the picks.
var zipfS = solveZipf(zipfMaxRank, cacheFiles, hotShare)

// zipfShare is the share of rand.Zipf(s, 1, ranks-1) draws below hot.
func zipfShare(s float64, ranks, hot int) float64 {
	var in, all float64
	for k := 0; k < ranks; k++ {
		p := math.Pow(float64(k+1), -s)
		all += p
		if k < hot {
			in += p
		}
	}
	return in / all
}

// solveZipf bisects for the exponent s > 1 (rand.Zipf's domain) whose
// first hot of ranks ranks draw share of the picks.
func solveZipf(ranks, hot int, share float64) float64 {
	lo, hi := 1.0, 8.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if zipfShare(mid, ranks, hot) < share {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// laneRand is client lane i's generator for a workload seed.
func laneRand(seed int64, lane int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(lane) + 1))
}

// sampleRand picks lane i's /read bodies for value checks.
func sampleRand(seed int64, lane int) *rand.Rand {
	return rand.New(rand.NewSource(seed*6151 + int64(lane) + 17))
}

// reqGen produces one lane's request sequence.
type reqGen struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	detect   bool
	channels int // catalog channels
	samples  int // samples per file
	pool     []int
	deck     []string // kinds left in the current deck
}

func newReqGen(seed int64, lane int, detect bool, channels, samples int, pool []int) *reqGen {
	rng := laneRand(seed, lane)
	return &reqGen{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, zipfMaxRank-1),
		detect: detect, channels: channels, samples: samples, pool: pool}
}

// next returns the lane's next request; newest is the newest file index
// in the catalog (serve_read picks files by recency rank from it).
func (g *reqGen) next(newest int) request {
	if len(g.deck) == 0 {
		deck := readDeck
		if g.detect {
			deck = detectDeck
		}
		g.deck = append(g.deck, deck...)
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	kind := g.deck[0]
	g.deck = g.deck[1:]
	band := g.rng.Intn(g.channels/tileChannels) * tileChannels
	if g.detect {
		r := request{kind: kind, file: g.pool[g.rng.Intn(len(g.pool))], count: detectFiles,
			ch0: 0, ch1: g.channels, t0: 0, t1: detectFiles * g.samples}
		if kind == "read" {
			r.ch0, r.ch1 = band, band+tileChannels
		}
		return r
	}
	rank := int(g.zipf.Uint64())
	if kind == "tile" {
		return request{kind: "read", file: newest - rank, count: 1,
			ch0: band, ch1: band + tileChannels, t0: 0, t1: g.samples}
	}
	// A strip is the files ending at the picked one.
	return request{kind: "read", file: newest - rank - (stripFiles - 1), count: stripFiles,
		ch0: band, ch1: band + tileChannels, t0: 0, t1: stripFiles * g.samples}
}

// selectionPool picks serve_detect's distinct selection start files.
func selectionPool(seed int64, files int) []int {
	rng := rand.New(rand.NewSource(seed*104729 + 3))
	return rng.Perm(files - detectFiles + 1)[:poolSize]
}

// query renders r as dassd query parameters; ts is the timestamp of
// r.file.
func (r request) query(ts int64) string {
	q := url.Values{}
	q.Set("s", strconv.FormatInt(ts, 10))
	q.Set("c", strconv.Itoa(r.count))
	if r.kind == "read" {
		q.Set("ch0", strconv.Itoa(r.ch0))
		q.Set("ch1", strconv.Itoa(r.ch1))
		q.Set("t0", strconv.Itoa(r.t0))
		q.Set("t1", strconv.Itoa(r.t1))
		return "/read?" + q.Encode()
	}
	q.Set("op", r.kind)
	return "/detect?" + q.Encode()
}

func (r request) String() string {
	return fmt.Sprintf("%s files [%d,%d) channels [%d,%d) samples [%d,%d)",
		r.kind, r.file, r.file+r.count, r.ch0, r.ch1, r.t0, r.t1)
}

// arrivalOffset is when staged file k is due, relative to the window's
// start: serve_read's open-loop ingest schedule.
func arrivalOffset(k int) float64 { return arrivalEvery * float64(k+1) }

// arrivalEvery is the seconds between staged-file arrivals.
const arrivalEvery = 0.5
