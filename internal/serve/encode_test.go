package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"dassa/internal/testutil/leakcheck"
)

// TestReadGapEncodesNull deletes a member file after ingest: the degraded
// /read must still answer 200 with a decodable body, report the gap, and
// carry the lost samples as JSON null.
func TestReadGapEncodesNull(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	var paths []string
	for _, p := range stageFiles(t, 3) {
		paths = append(paths, arrive(t, dir, p))
	}
	s := newTestServer(t, dir)
	if err := s.Ingester().ScanOnce(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(paths[1]); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	before := encodeErrors.Load()

	var got struct {
		NumChannels int          `json:"num_channels"`
		NumSamples  int          `json:"num_samples"`
		Gaps        int          `json:"gaps"`
		Data        [][]*float64 `json:"data"`
	}
	// Each file is 50 samples: [40, 110) spans the tail of file 0, all of
	// the deleted file 1, and the head of file 2.
	if resp := getJSON(t, ts, "/read?ch0=1&ch1=4&t0=40&t1=110", &got); resp.StatusCode != 200 {
		t.Fatalf("/read over a lost member: status %d, want 200", resp.StatusCode)
	}
	if got.Gaps != 1 || got.NumChannels != 3 || got.NumSamples != 70 || len(got.Data) != 3 {
		t.Fatalf("degraded read: gaps=%d shape=%dx%d rows=%d, want 1 gap over 3x70",
			got.Gaps, got.NumChannels, got.NumSamples, len(got.Data))
	}
	for c, row := range got.Data {
		for i, v := range row {
			if lost := i >= 10 && i < 60; lost != (v == nil) {
				t.Fatalf("row %d sample %d: null=%v, want null exactly over the lost file", c, i, v == nil)
			}
		}
	}
	if n := encodeErrors.Load() - before; n != 0 {
		t.Fatalf("gap read counted %d encode errors, want 0", n)
	}
}

// TestWriteJSONEncodeFailure checks that a body encoding/json rejects
// becomes a counted 500 with a decodable error, never a 200 with no body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	before := encodeErrors.Load()
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"peak": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("500 body %q: %v", rec.Body.String(), err)
	}
	if n := encodeErrors.Load() - before; n != 1 {
		t.Fatalf("encode errors counted %d, want 1", n)
	}

	// A clean value keeps the status and the encoder's exact bytes.
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, map[string]any{"a": "<&>", "x": 1.5})
	if rec.Code != http.StatusCreated || rec.Body.String() != "{\"a\":\"<&>\",\"x\":1.5}\n" {
		t.Fatalf("clean body: %d %q", rec.Code, rec.Body.String())
	}
}
