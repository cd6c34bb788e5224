package obs

import (
	"fmt"
	"strings"
	"time"
)

// Phase is one stage of a parallel run — the decomposition the paper's
// Figures 8–10 plot per rank: time spent reading blocks from storage,
// exchanging data between ranks (all-to-all, broadcast, halo), computing
// the UDF, and writing results.
type Phase uint8

const (
	PhaseRead Phase = iota
	PhaseExchange
	PhaseCompute
	PhaseWrite
	// NumPhases sizes RankPhases.
	NumPhases = 4
)

func (p Phase) String() string {
	switch p {
	case PhaseRead:
		return "read"
	case PhaseExchange:
		return "exchange"
	case PhaseCompute:
		return "compute"
	case PhaseWrite:
		return "write"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// Phases lists every phase in report order.
func Phases() []Phase {
	return []Phase{PhaseRead, PhaseExchange, PhaseCompute, PhaseWrite}
}

// RankPhases is one rank's time in each phase of a run, indexed by Phase.
// An engine keeps one per rank; each rank writes only its own record, and
// every consumer (PhaseReport, the dassa_phase_seconds histograms, trace
// spans) reads the same records after the ranks have joined.
type RankPhases [NumPhases]time.Duration

// PhaseStat summarizes one phase across ranks.
type PhaseStat struct {
	// MaxMS is the slowest rank's time — the phase's wall-clock cost in a
	// bulk-synchronous run.
	MaxMS float64 `json:"max_ms"`
	// MeanMS is the average across ranks; a Max≫Mean gap means imbalance.
	MeanMS float64 `json:"mean_ms"`
	// SumMS is total rank-time spent in the phase.
	SumMS float64 `json:"sum_ms"`
}

// PhaseReport is the machine-readable per-run phase breakdown, keyed by
// phase name ("read", "exchange", "compute", "write").
type PhaseReport struct {
	Ranks  int                  `json:"ranks"`
	Phases map[string]PhaseStat `json:"phases"`
}

// Stat returns the named phase's stats (zero value when absent).
func (r PhaseReport) Stat(p Phase) PhaseStat { return r.Phases[p.String()] }

// TotalMaxMS sums the per-phase max times — the modeled bulk-synchronous
// wall time of the run.
func (r PhaseReport) TotalMaxMS() float64 {
	var t float64
	for _, st := range r.Phases {
		t += st.MaxMS
	}
	return t
}

func (r PhaseReport) String() string {
	var b strings.Builder
	for i, p := range Phases() {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%s %.1fms", p, r.Stat(p).MaxMS)
	}
	fmt.Fprintf(&b, " (max across %d ranks)", r.Ranks)
	return b.String()
}

// ReportPhases reduces per-rank records into a PhaseReport.
func ReportPhases(ranks []RankPhases) PhaseReport {
	rep := PhaseReport{Ranks: len(ranks), Phases: map[string]PhaseStat{}}
	if len(ranks) == 0 {
		return rep
	}
	for _, p := range Phases() {
		var sum, maxD time.Duration
		for _, r := range ranks {
			sum += r[p]
			maxD = max(maxD, r[p])
		}
		rep.Phases[p.String()] = PhaseStat{
			MaxMS:  float64(maxD) / 1e6,
			MeanMS: float64(sum) / float64(len(ranks)) / 1e6,
			SumMS:  float64(sum) / 1e6,
		}
	}
	return rep
}

// ObservePhases folds every rank's per-phase time into the registry's
// dassa_phase_seconds histograms, one series per phase. Ranks that spent no
// time in a phase are skipped so empty phases don't flood the zero bucket.
func ObservePhases(reg *Registry, ranks []RankPhases) {
	for _, p := range Phases() {
		var h *Histogram
		for _, r := range ranks {
			if r[p] == 0 {
				continue
			}
			if h == nil {
				h = reg.Histogram("dassa_phase_seconds",
					"per-rank time spent in each run phase (read/exchange/compute/write)",
					LatencyBuckets(), L("phase", p.String()))
			}
			h.Observe(r[p].Seconds())
		}
	}
}
