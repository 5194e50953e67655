package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// mapserveBin is the mapserve binary the quick runs start, built once.
var mapserveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mapserveBin = filepath.Join(dir, "mapserve")
	if out, err := exec.Command("go", "build", "-o", mapserveBin, "mimdmap/cmd/mapserve").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building mapserve: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// quickRun runs every workload in the quick shape through the command line
// and returns the summary line and every printed "workload metric value
// unit" line as workload/metric → "value unit".
func quickRun(t *testing.T, seed int64, traced bool) (summary, map[string]string) {
	t.Helper()
	trace := "0"
	if traced {
		trace = "1"
	}
	var stdout, stderr bytes.Buffer
	args := []string{"--quick", "--seconds", "0.05", "--mapserve", mapserveBin, "--seed", strconv.FormatInt(seed, 10), "--trace", trace}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the summary: %v\n%s", err, lines[len(lines)-1])
	}
	printed := map[string]string{}
	for _, line := range lines[:len(lines)-1] {
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("line %q is not \"workload metric value unit\"", line)
		}
		printed[f[0]+"/"+f[1]] = f[2] + " " + f[3]
	}
	return sum, printed
}

// TestQuickRunsReportBenchmarkMetrics runs every workload, untraced and
// traced, at the default and the held-out seed, and checks that the
// summary carries exactly the metrics BENCHMARK.json names, with their
// units, and that every answer passed the oracle.
func TestQuickRunsReportBenchmarkMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(listed) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", names, listed)
	}
	for _, seed := range []int64{1991, 2024} {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			defs := bf.EndToEnd
			if traced {
				defs = bf.PerLayer
			}
			for _, w := range names {
				for _, d := range defs {
					want[w+"/"+d.Name] = d.Unit
				}
			}
			sum, printed := quickRun(t, seed, traced)
			if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
				t.Errorf("seed %d traced=%v: correct=%v failed=%d attempted=%d", seed, traced, sum.Correct, sum.Failed, sum.Attempted)
			}
			var got, wanted []string
			for k, v := range sum.Metrics {
				got = append(got, k+" "+v.Unit)
				if p := printed[k]; !strings.HasSuffix(p, " "+v.Unit) {
					t.Errorf("seed %d: %s printed as %q", seed, k, p)
				}
			}
			for k, u := range want {
				wanted = append(wanted, k+" "+u)
			}
			sort.Strings(got)
			sort.Strings(wanted)
			if fmt.Sprint(got) != fmt.Sprint(wanted) {
				t.Errorf("seed %d traced=%v: metrics\n%v\nwant\n%v", seed, traced, got, wanted)
			}
		}
	}
}

// TestQuickRunsRepeat checks that the counted figures repeat at one seed:
// answer quality and refinement trials exactly, allocation per operation
// to within 0.1% (TotalAlloc is process-wide, and the runtime allocates a
// few KB for goroutine bookkeeping whenever scheduling differs).
func TestQuickRunsRepeat(t *testing.T) {
	_, first := quickRun(t, 1991, false)
	_, again := quickRun(t, 1991, false)
	_, tracedFirst := quickRun(t, 1991, true)
	_, tracedAgain := quickRun(t, 1991, true)
	same := func(k string, a, b map[string]string) {
		if a[k] == "" || a[k] != b[k] {
			t.Errorf("%s: %q then %q", k, a[k], b[k])
		}
	}
	for _, w := range workloads {
		same(w.name+"/quality_pct_over_bound", first, again)
		same(w.name+"/search.trials", tracedFirst, tracedAgain)
		same(w.name+"/search.quality_pct_over_bound", tracedFirst, tracedAgain)
		k := w.name + "/alloc_mb_per_op"
		a, errA := strconv.ParseFloat(strings.TrimSuffix(first[k], " MB"), 64)
		b, errB := strconv.ParseFloat(strings.TrimSuffix(again[k], " MB"), 64)
		if errA != nil || errB != nil || math.Abs(a-b) > 1e-3*a {
			t.Errorf("%s: %q then %q", k, first[k], again[k])
		}
	}
}

// TestSpeedMetricsFastestWindow checks that the timing metrics come from
// the window that took the least wall time, and from the whole run when
// the run is shorter than one window.
func TestSpeedMetricsFastestWindow(t *testing.T) {
	ms := time.Millisecond
	lat := []float64{4, 4, 1, 2, 3, 3, 9}
	starts := []time.Duration{0, 4 * ms, 8 * ms, 9 * ms, 11 * ms, 14 * ms, 17 * ms}
	r := newResult("w", false)
	r.speedMetrics(lat, starts, 26*ms, 2)
	if got := r.Metrics["latency_ms_p50"]; got != 1.5 {
		t.Errorf("p50 %v, want 1.5 (the window of ops 2 and 3)", got)
	}
	if got := r.Metrics["throughput_per_s"]; math.Abs(got-2/0.003) > 1e-6 {
		t.Errorf("throughput %v, want %v", got, 2/0.003)
	}
	if got := r.Info["windows"].Value; got != 3 {
		t.Errorf("%v windows, want 3", got)
	}
	r = newResult("w", false)
	r.speedMetrics(lat, starts, 26*ms, 8)
	if got := r.Metrics["throughput_per_s"]; math.Abs(got-7/0.026) > 1e-6 {
		t.Errorf("short run: throughput %v, want %v", got, 7/0.026)
	}
}

// TestSeedChangesInstances checks that the seed alone shapes every
// workload's instances.
func TestSeedChangesInstances(t *testing.T) {
	for _, w := range workloads {
		a, err := w.build(1991, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.build(2024, true)
		if err != nil {
			t.Fatal(err)
		}
		again, err := w.build(1991, true)
		if err != nil {
			t.Fatal(err)
		}
		if a.base[0].prob.Fingerprint() == b.base[0].prob.Fingerprint() {
			t.Errorf("%s: seeds 1991 and 2024 generate the same first instance", w.name)
		}
		for i := range a.base {
			if a.base[i].prob.Fingerprint() != again.base[i].prob.Fingerprint() {
				t.Errorf("%s: seed 1991 generated instance %d differently twice", w.name, i)
			}
		}
		if a.op(5).seed == b.op(5).seed {
			t.Errorf("%s: seeds 1991 and 2024 give operation 5 the same request seed", w.name)
		}
	}
}
