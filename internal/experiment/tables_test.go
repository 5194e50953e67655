package experiment

import (
	"strings"
	"testing"
)

func TestTablesShapeMatchesPaper(t *testing.T) {
	// Regenerate all three tables with the default (paper) configuration
	// and assert the qualitative shape the paper reports:
	//   - our approach never loses to the random mean on average,
	//   - every row's percentages are ≥ 100 (nothing beats the bound),
	//   - the termination condition fires in at least one experiment
	//     somewhere across the suite,
	//   - row counts match the paper's tables (10, 11, 17).
	cases := []struct {
		name string
		run  func(Config) (*TableResult, error)
		rows int
	}{
		{"Table1", Table1, 10},
		{"Table2", Table2, 11},
		{"Table3", Table3, 17},
	}
	atBoundTotal := 0
	oursWins := 0
	rows := 0
	for _, tc := range cases {
		res, err := tc.run(Config{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.Rows) != tc.rows {
			t.Fatalf("%s: %d rows, want %d", tc.name, len(res.Rows), tc.rows)
		}
		for _, r := range res.Rows {
			rows++
			if r.OursPct < 100 || r.RandomPct < 100 {
				t.Fatalf("%s exp %d: percentage below 100 (ours %.1f random %.1f)",
					tc.name, r.Exp, r.OursPct, r.RandomPct)
			}
			if r.Bound <= 0 || r.OursTime < r.Bound {
				t.Fatalf("%s exp %d: total %d below bound %d", tc.name, r.Exp, r.OursTime, r.Bound)
			}
			if r.AtBound != (r.OursTime == r.Bound) {
				t.Fatalf("%s exp %d: AtBound flag inconsistent", tc.name, r.Exp)
			}
			if r.Improvement() >= 0 {
				oursWins++
			}
			if r.NP < 30 || r.NP > 300 || r.NS < 4 || r.NS > 40 {
				t.Fatalf("%s exp %d: np=%d ns=%d outside the paper's ranges", tc.name, r.Exp, r.NP, r.NS)
			}
		}
		atBoundTotal += res.AtBound
	}
	if atBoundTotal == 0 {
		t.Fatal("termination condition never fired across all tables")
	}
	// Ours should win (or tie) in the vast majority of experiments.
	if oursWins*100 < rows*90 {
		t.Fatalf("our approach won only %d/%d experiments", oursWins, rows)
	}
}

func TestTablesDeterministicPerSeed(t *testing.T) {
	a, err := Table1(Config{MasterSeed: 77, RandomTrials: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Table1(Config{MasterSeed: 77, RandomTrials: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d differs across identical runs", i)
		}
	}
	c, err := Table1(Config{MasterSeed: 78, RandomTrials: 3})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Rows {
		if a.Rows[i] != c.Rows[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different master seeds produced identical tables (suspicious)")
	}
}

func TestRenderAndHistogram(t *testing.T) {
	res, err := Table1(Config{RandomTrials: 2})
	if err != nil {
		t.Fatal(err)
	}
	table := res.Render()
	for _, want := range []string{"Table 1", "our approach", "random", "improvement", "termination condition"} {
		if !strings.Contains(table, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, table)
		}
	}
	hist := res.Histogram()
	if !strings.Contains(hist, "Fig. 25") || !strings.Contains(hist, "exp 1") {
		t.Fatalf("histogram missing labels:\n%s", hist)
	}
	lo, hi := res.ImprovementRange()
	if lo > hi {
		t.Fatalf("improvement range inverted: %v > %v", lo, hi)
	}
}

func TestImprovementRangeEmpty(t *testing.T) {
	var res TableResult
	lo, hi := res.ImprovementRange()
	if lo != 0 || hi != 0 {
		t.Fatal("empty range should be 0,0")
	}
}

func TestMeshInstancesStable(t *testing.T) {
	a, err := MeshInstances(Config{MasterSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeshInstances(Config{MasterSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != 11 {
		t.Fatalf("instance counts: %d vs %d, want 11", len(a), len(b))
	}
	for i := range a {
		if !a[i].Prob.Equal(b[i].Prob) || !a[i].Sys.Equal(b[i].Sys) {
			t.Fatalf("instance %d differs across identical configs", i)
		}
		if a[i].Clus.K != a[i].Sys.NumNodes() {
			t.Fatalf("instance %d: clusters %d ≠ processors %d", i, a[i].Clus.K, a[i].Sys.NumNodes())
		}
	}
}

func TestAblationReportRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation suite is slow")
	}
	out, err := AblationReport(Config{RandomTrials: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"E8", "E9", "E10", "E11", "random-change", "pairwise-exchange", "dataflow", "contention", "link contention"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation report missing %q:\n%s", want, out)
		}
	}
}

// TestAblationE8Pinned pins the E8 line — the paper's random-change
// refinement against one steepest-descent pairwise sweep from the same
// initial assignment — at two master seeds, so a change to either
// refinement path shows up as a changed figure.
func TestAblationE8Pinned(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation suite is slow")
	}
	for _, tc := range []struct {
		seed int64
		want string
	}{
		{1991, "   random-change (paper): 109.3%   pairwise-exchange: 109.8%\n"},
		{7, "   random-change (paper): 112.0%   pairwise-exchange: 112.5%\n"},
	} {
		out, err := AblationReport(Config{MasterSeed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "E8 refinement strategy (mean % over bound, 11 mesh instances):\n"+tc.want) {
			t.Fatalf("seed %d: E8 line changed, want %q in:\n%s", tc.seed, tc.want, out)
		}
	}
}
