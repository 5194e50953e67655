package main

import (
	"strings"
	"testing"
)

func TestParseFlagsWiresConfig(t *testing.T) {
	f, err := parseFlags([]string{
		"-table", "2", "-seed", "7", "-trials", "3",
		"-workers", "8", "-starts", "4", "-edgefactor", "2.5",
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.table != 2 {
		t.Fatalf("table = %d, want 2", f.table)
	}
	if f.cfg.MasterSeed != 7 || f.cfg.RandomTrials != 3 {
		t.Fatalf("cfg seed/trials = %d/%d, want 7/3", f.cfg.MasterSeed, f.cfg.RandomTrials)
	}
	if f.cfg.Workers != 8 {
		t.Fatalf("cfg.Workers = %d, want 8", f.cfg.Workers)
	}
	if f.cfg.Starts != 4 {
		t.Fatalf("cfg.Starts = %d, want 4", f.cfg.Starts)
	}
	if f.cfg.EdgeFactor != 2.5 {
		t.Fatalf("cfg.EdgeFactor = %g, want 2.5", f.cfg.EdgeFactor)
	}
}

func TestParseFlagsDefaults(t *testing.T) {
	f, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.table != 0 || f.fig != "" || f.ablation || f.extension || f.sweep {
		t.Fatalf("unexpected non-default selectors: %+v", f)
	}
	if f.cfg.Workers != 0 || f.cfg.Starts != 0 {
		t.Fatalf("cfg workers/starts = %d/%d, want 0/0", f.cfg.Workers, f.cfg.Starts)
	}
}

func TestParseFlagsRejectsUnknown(t *testing.T) {
	if _, err := parseFlags([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunningFigureSmoke(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "running"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"lower bound (ideal graph):", "optimal proven:", "Fig. 24"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("running-figure output missing %q:\n%s", want, out.String())
		}
	}
}

// TestTable2ByteIdenticalAcrossWorkerFlags is the end-to-end determinism
// guarantee at the CLI layer: the full printed report of -table 2 is
// byte-identical at 1, 4 and 8 workers.
func TestTable2ByteIdenticalAcrossWorkerFlags(t *testing.T) {
	render := func(workers string) string {
		var out strings.Builder
		if err := run([]string{"-table", "2", "-trials", "2", "-workers", workers}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	want := render("1")
	if !strings.Contains(want, "Table 2 (meshes)") {
		t.Fatalf("report missing Table 2 header:\n%s", want)
	}
	for _, workers := range []string{"4", "8"} {
		if got := render(workers); got != want {
			t.Fatalf("-workers %s output differs from -workers 1:\n%s\nvs\n%s", workers, want, got)
		}
	}
}

func TestTable1WithStartsSmoke(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-table", "1", "-trials", "2", "-starts", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table 1 (hypercubes)") {
		t.Fatalf("multi-start table run produced no Table 1:\n%s", out.String())
	}
}
