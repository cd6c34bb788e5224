package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dassa/internal/dass"
	"dassa/internal/pfs"
)

// Fig6Row is one point of Figure 6: merging n files into an RCA vs a VCA.
type Fig6Row struct {
	Files      int
	SearchTime time.Duration
	VCATime    time.Duration
	RCATime    time.Duration
	VCABytes   int64 // size of the created VCA file
	RCABytes   int64 // size of the created RCA file
}

// Speedup returns how much faster VCA construction is than RCA.
func (r Fig6Row) Speedup() float64 {
	if r.VCATime <= 0 {
		return 0
	}
	return float64(r.RCATime) / float64(r.VCATime)
}

// RunFig6 reproduces Figure 6: search time plus RCA/VCA construction time
// as the number of merged files grows. The paper's numbers (search ≤2 ms,
// VCA ≤10 ms, RCA up to 9978 s, ≈70000× apart) come from the same
// asymmetry measured here: VCA touches only metadata, RCA moves all data.
func RunFig6(o Options) ([]Fig6Row, error) {
	w := o.out()
	cat, err := EnsureDataset(o)
	if err != nil {
		return nil, err
	}
	hline(w, "Figure 6: search and merge (RCA vs VCA)")
	fmt.Fprintf(w, "%8s %14s %14s %14s %10s\n", "files", "search", "create-VCA", "create-RCA", "VCA-speedup")

	var rows []Fig6Row
	entries := cat.Entries()
	for n := 3; n <= len(entries); n *= 2 {
		if n > len(entries) {
			break
		}
		start := entries[0].Timestamp
		var found []dass.Entry
		searchTime, err := timeIt(func() error {
			found = cat.SearchStartCount(start, n)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(found) != n {
			return nil, fmt.Errorf("bench: search returned %d files, want %d", len(found), n)
		}
		vcaPath := filepath.Join(o.DataDir, fmt.Sprintf("fig6_%d.vca.dasf", n))
		rcaPath := filepath.Join(o.DataDir, fmt.Sprintf("fig6_%d.rca.dasf", n))
		vcaTime, err := timeIt(func() error {
			_, err := dass.CreateVCA(vcaPath, found)
			return err
		})
		if err != nil {
			return nil, err
		}
		rcaTime, err := timeIt(func() error {
			_, err := dass.CreateRCA(rcaPath, found)
			return err
		})
		if err != nil {
			return nil, err
		}
		row := Fig6Row{Files: n, SearchTime: searchTime, VCATime: vcaTime, RCATime: rcaTime}
		if st, err := os.Stat(vcaPath); err == nil {
			row.VCABytes = st.Size()
		}
		if st, err := os.Stat(rcaPath); err == nil {
			row.RCABytes = st.Size()
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%8d %14v %14v %14v %9.0fx\n",
			n, searchTime.Round(time.Microsecond), vcaTime.Round(time.Microsecond),
			rcaTime.Round(time.Microsecond), row.Speedup())
		os.Remove(rcaPath)
	}
	fmt.Fprintf(w, "paper: search ≤0.002s, VCA ≤0.01s, RCA up to 9978s (avg ≈70000× apart)\n")
	return rows, nil
}

// Table1Row is one line of Table I's comparison.
type Table1Row struct {
	Scheme            string
	ExtraSpacePct     float64
	ConstructionTime  time.Duration
	DuplicationAcross bool // duplicates data when the same file joins two merges
	ParallelRead      time.Duration
	// ConstructionIO is what building the merged file did: data read
	// calls and bytes written — the mechanism behind ConstructionTime,
	// and deterministic where the time is not.
	ConstructionIO pfs.Trace
}

// table1Reps is how many interleaved VCA/RCA constructions Table I times
// after a warm-up pair; each scheme reports its fastest.
const table1Reps = 5

// RunTable1 reproduces Table I: RCA vs VCA on extra space, construction
// overhead, duplication across groups, and parallel-read support.
func RunTable1(o Options) ([]Table1Row, error) {
	w := o.out()
	cat, err := EnsureDataset(o)
	if err != nil {
		return nil, err
	}
	entries := cat.Entries()
	var originalBytes int64
	for _, e := range entries {
		st, err := os.Stat(e.Path)
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		originalBytes += st.Size()
	}

	vcaPath := filepath.Join(o.DataDir, "table1.vca.dasf")
	rcaPath := filepath.Join(o.DataDir, "table1.rca.dasf")
	defer os.Remove(rcaPath)
	// Warm up once (page cache, metadata paths), then alternate the two
	// schemes so drift on a loaded machine hits both alike, and keep each
	// one's fastest run.
	var vcaTime, rcaTime time.Duration
	var vcaIO, rcaIO pfs.Trace
	for i := 0; i <= table1Reps; i++ {
		vt, err := timeIt(func() (err error) { vcaIO, err = dass.CreateVCA(vcaPath, entries); return err })
		if err != nil {
			return nil, err
		}
		rt, err := timeIt(func() (err error) { rcaIO, err = dass.CreateRCA(rcaPath, entries); return err })
		if err != nil {
			return nil, err
		}
		if i == 0 {
			continue
		}
		if i == 1 || vt < vcaTime {
			vcaTime = vt
		}
		if i == 1 || rt < rcaTime {
			rcaTime = rt
		}
	}
	vcaSize := int64(0)
	if st, err := os.Stat(vcaPath); err == nil {
		vcaSize = st.Size()
	}
	rcaSize := int64(0)
	if st, err := os.Stat(rcaPath); err == nil {
		rcaSize = st.Size()
	}
	// CreateVCA counts its one metadata write but not its bytes.
	vcaIO.BytesWritten = vcaSize

	readTime := func(path string) (time.Duration, error) {
		v, err := dass.OpenView(path)
		if err != nil {
			return 0, err
		}
		return timeIt(func() error { _, _, err := v.Read(); return err })
	}
	vcaRead, err := readTime(vcaPath)
	if err != nil {
		return nil, err
	}
	rcaRead, err := readTime(rcaPath)
	if err != nil {
		return nil, err
	}

	rows := []Table1Row{
		{Scheme: "RCA", ExtraSpacePct: 100 * float64(rcaSize) / float64(originalBytes),
			ConstructionTime: rcaTime, DuplicationAcross: true, ParallelRead: rcaRead, ConstructionIO: rcaIO},
		{Scheme: "VCA", ExtraSpacePct: 100 * float64(vcaSize) / float64(originalBytes),
			ConstructionTime: vcaTime, DuplicationAcross: false, ParallelRead: vcaRead, ConstructionIO: vcaIO},
	}
	hline(w, "Table I: RCA vs VCA")
	fmt.Fprintf(w, "%6s %14s %16s %22s %14s\n", "scheme", "extra space", "construction", "duplication across", "full read")
	for _, r := range rows {
		fmt.Fprintf(w, "%6s %13.2f%% %16v %22v %14v\n",
			r.Scheme, r.ExtraSpacePct, r.ConstructionTime.Round(time.Microsecond),
			r.DuplicationAcross, r.ParallelRead.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "paper: RCA 100%% extra space / high overhead; VCA 0%% / low\n")
	return rows, nil
}
