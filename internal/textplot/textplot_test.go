package textplot

import (
	"strings"
	"testing"

	"mimdmap/internal/schedule"
)

func TestRangeHistogramBasics(t *testing.T) {
	series := []RangeSeries{
		{Label: "exp 1", Lo: 104, Hi: 148},
		{Label: "exp 2", Lo: 100, Hi: 133, AtBound: true},
	}
	out := RangeHistogram("Fig. 25", series, 10)
	for _, want := range []string{
		"Fig. 25",
		"% over lower bound",
		"exp 1",
		"exp 2",
		"ours= 104.0%",
		"random= 148.0%",
		"improvement= 44.0",
		"termination condition",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram missing %q:\n%s", want, out)
		}
	}
	// The at-bound experiment gets a star marker.
	if !strings.Contains(out, "*exp 2") {
		t.Errorf("no at-bound marker:\n%s", out)
	}
	// Axis reaches at least the maximum value.
	if !strings.Contains(out, "150 |") {
		t.Errorf("axis does not cover 150:\n%s", out)
	}
}

func TestRangeHistogramEmpty(t *testing.T) {
	out := RangeHistogram("empty", nil, 10)
	if !strings.Contains(out, "(no data)") {
		t.Fatalf("empty histogram output wrong:\n%s", out)
	}
}

func TestRangeHistogramDefaultStep(t *testing.T) {
	out := RangeHistogram("t", []RangeSeries{{Label: "a", Lo: 100, Hi: 101}}, 0)
	if out == "" || !strings.Contains(out, "a") {
		t.Fatal("default step rendering broken")
	}
}

func TestGanttPlacesTasks(t *testing.T) {
	res := &schedule.Result{
		Start:     []int{0, 2},
		End:       []int{2, 5},
		TotalTime: 5,
	}
	clusterOf := []int{0, 1}
	procOf := []int{1, 0} // cluster 0 → proc 1, cluster 1 → proc 0
	out := Gantt(res, clusterOf, procOf, 2)
	lines := strings.Split(out, "\n")
	// Header + separator + 5 time rows + total line.
	if len(lines) < 8 {
		t.Fatalf("too few lines:\n%s", out)
	}
	if !strings.Contains(lines[0], "P0") || !strings.Contains(lines[0], "P1") {
		t.Fatalf("missing processor headers: %s", lines[0])
	}
	// Task 0 occupies proc 1 rows 0–1; task 1 occupies proc 0 rows 2–4.
	if !strings.Contains(lines[2], "0") {
		t.Fatalf("row 0 missing task 0: %q", lines[2])
	}
	if !strings.Contains(lines[4], "1") {
		t.Fatalf("row 2 missing task 1: %q", lines[4])
	}
	if !strings.Contains(out, "total time = 5") {
		t.Fatalf("missing total line:\n%s", out)
	}
}

func TestGanttZeroSizeTask(t *testing.T) {
	res := &schedule.Result{
		Start:     []int{0, 1},
		End:       []int{1, 1}, // task 1 has size 0
		TotalTime: 1,
	}
	out := Gantt(res, []int{0, 0}, []int{0}, 1)
	if !strings.Contains(out, "(1)") {
		t.Fatalf("zero-size task not marked:\n%s", out)
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{
		{"1", "2"},
		{"333", "4"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d, want 4:\n%s", len(lines), out)
	}
	// All lines equal width (right-padded headers, aligned columns).
	if !strings.Contains(lines[0], "a") || !strings.Contains(lines[0], "long-header") {
		t.Fatalf("headers wrong: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "-") {
		t.Fatalf("separator wrong: %q", lines[1])
	}
	// Cells right-aligned to the header width.
	if !strings.Contains(lines[2], "  1") {
		t.Fatalf("cell alignment wrong: %q", lines[2])
	}
}
