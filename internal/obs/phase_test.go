package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestReportPhases(t *testing.T) {
	ranks := make([]RankPhases, 4)
	for rank := range ranks {
		ranks[rank][PhaseRead] = time.Duration(rank+1) * 10 * time.Millisecond
		ranks[rank][PhaseExchange] = 5 * time.Millisecond
	}
	ranks[3][PhaseCompute] = 100 * time.Millisecond

	rep := ReportPhases(ranks)
	if rep.Ranks != 4 {
		t.Fatalf("ranks = %d", rep.Ranks)
	}
	rd := rep.Stat(PhaseRead)
	if rd.MaxMS != 40 || rd.SumMS != 100 || rd.MeanMS != 25 {
		t.Fatalf("read stat = %+v", rd)
	}
	if ex := rep.Stat(PhaseExchange); ex.MaxMS != 5 || ex.SumMS != 20 {
		t.Fatalf("exchange stat = %+v", ex)
	}
	if cp := rep.Stat(PhaseCompute); cp.MaxMS != 100 || cp.SumMS != 100 {
		t.Fatalf("compute stat = %+v", cp)
	}
	if got := rep.TotalMaxMS(); got != 40+5+100 {
		t.Fatalf("TotalMaxMS = %g", got)
	}
	str := rep.String()
	for _, phase := range []string{"read", "exchange", "compute", "write"} {
		if !strings.Contains(str, phase) {
			t.Fatalf("report string misses %q: %s", phase, str)
		}
	}

	// No ranks: an empty report, not a division by zero.
	empty := ReportPhases(nil)
	if empty.Ranks != 0 || empty.TotalMaxMS() != 0 || empty.Stat(PhaseRead) != (PhaseStat{}) {
		t.Fatalf("empty report = %+v", empty)
	}
}

func TestObservePhases(t *testing.T) {
	ranks := make([]RankPhases, 3)
	ranks[0][PhaseRead] = 2 * time.Millisecond
	ranks[1][PhaseRead] = 3 * time.Millisecond
	// rank 2 idle; compute untouched entirely.
	r := NewRegistry()
	ObservePhases(r, ranks)
	h := r.Histogram("dassa_phase_seconds", "", LatencyBuckets(), L("phase", "read"))
	if h.Count() != 2 {
		t.Fatalf("read observations = %d, want 2", h.Count())
	}
	var sb strings.Builder
	_ = r.WriteProm(&sb)
	if strings.Contains(sb.String(), `phase="compute"`) {
		t.Fatalf("idle phase must not create a series:\n%s", sb.String())
	}
}

func TestLoggerGrammar(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("dropped")
	lg.Warn("kept", "k", 1)
	out := buf.String()
	if strings.Contains(out, "dropped") || !strings.Contains(out, `"msg":"kept"`) {
		t.Fatalf("level/format wrong: %s", out)
	}
	if _, err := NewLogger(&buf, "loud", "text"); err == nil {
		t.Fatal("bad level must error")
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Fatal("bad format must error")
	}
	// Nop swallows everything without touching a writer.
	OrNop(nil).Error("into the void")
	if lv, _ := ParseLevel("ERROR"); lv != slog.LevelError {
		t.Fatal("ParseLevel must be case-insensitive")
	}
}
