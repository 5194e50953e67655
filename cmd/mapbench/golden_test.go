package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestGoldenReports compares every reproduction mode's printed report with
// its checked-in golden file, byte for byte. The reports run the whole
// pipeline — distance tables, canonical routes (ablation E11), weighted
// distances under link delays (extension), placement and refinement — so
// any change to what a mapping computes shows up here. Regenerate with
// `make golden` (go test ./cmd/mapbench -run TestGoldenReports -update)
// only when an output change is intended.
func TestGoldenReports(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"table1", []string{"-table", "1"}},
		{"table2", []string{"-table", "2"}},
		{"table3", []string{"-table", "3"}},
		{"ablation", []string{"-ablation"}},
		{"ablation-seed7", []string{"-ablation", "-seed", "7"}},
		{"extension", []string{"-extension"}},
		{"sweep", []string{"-sweep"}},
		{"fig-running", []string{"-fig", "running"}},
		{"fig-cardinality", []string{"-fig", "cardinality"}},
		{"fig-commcost", []string{"-fig", "commcost"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("mapbench %v output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", tc.args, path, out.Bytes(), want)
			}
		})
	}
}
