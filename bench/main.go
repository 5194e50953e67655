// Command bench is the repository benchmark. It runs the mapper on four
// workloads — paper-tables, large-cold, search-heavy and serve-mix — and
// prints every end-to-end metric, or with --trace 1 every per-layer metric,
// as "workload metric value unit" lines, then one JSON summary line. Every
// answer is checked; any failure makes the exit status non-zero.
//
// run.sh builds this program and cmd/mapserve from the checkout and runs
// it from the repository root:
//
//	bash bench/run.sh                                   # every workload
//	bash bench/run.sh --workload serve-mix --seed 2024
//	bash bench/run.sh --trace 1 --trace-out trace.json  # per-layer run
//
// The seed is the only input that shapes the generated instances: 1991 is
// the default, 2024 is held out for confirming a claim. README.md
// describes the workloads, the metrics and how to compare two commits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed     int64
	seconds  float64
	quick    bool
	mapserve string
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

func (c config) setupReps() int {
	if c.quick {
		return 1
	}
	return setupReps
}

func (c config) minOps(w *workload) int {
	if c.quick {
		return w.quickMinOps
	}
	return w.minOps
}

func (c config) traceOps(w *workload) int {
	if c.quick {
		return minTraceOps
	}
	return w.traceOps
}

func (c config) wireOps(w *workload) int {
	if c.quick {
		return 1
	}
	return w.wireOps
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// summary is the JSON line that ends the output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the -out file: raw samples plus what a paired comparison needs
// to know about the run.
type record struct {
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Traced     bool      `json:"traced"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Started    string    `json:"started"`
	Results    []*result `json:"results"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	name := fs.String("workload", "all", "workload to run: paper-tables, large-cold, search-heavy, serve-mix or all")
	fs.Int64Var(&cfg.seed, "seed", 1991, "seed every generated input derives from (1991 default, 2024 held out)")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "how long each workload's measured loop runs")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
	fs.BoolVar(&cfg.quick, "quick", false, "small operation counts and instances, for the package test")
	fs.StringVar(&cfg.mapserve, "mapserve", ".bench_build/mapserve", "mapserve binary serve-mix and the traced wire probes start")
	out := fs.String("out", "", "write raw samples and run metadata as JSON to this file")
	traceOut := fs.String("trace-out", "", "with --trace 1, write the recorded spans as JSON to this file")
	commit := fs.String("commit", "unknown", "commit being measured, recorded in -out")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		selected = []*workload{w}
	}
	if _, err := os.Stat(cfg.mapserve); err != nil {
		fmt.Fprintf(stderr, "bench: mapserve binary: %v (build it with bench/run.sh)\n", err)
		return 1
	}

	rec := record{Seed: cfg.seed, Seconds: cfg.seconds, Traced: *trace == 1, GoVersion: runtime.Version(), Commit: *commit,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Started: time.Now().UTC().Format(time.RFC3339)}
	total := summary{Correct: true, Metrics: map[string]metricValue{}}
	ctx := context.Background()
	for _, w := range selected {
		res, err := measure(ctx, w, cfg, *trace == 1)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		for _, line := range res.lines() {
			fmt.Fprintln(stdout, line)
		}
		for _, f := range res.Failures {
			fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, f)
		}
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for _, d := range res.defs() {
			key := d.name
			if len(selected) > 1 {
				key = w.name + "/" + d.name
			}
			total.Metrics[key] = metricValue{Value: res.Metrics[d.name], Unit: d.unit}
		}
		rec.Results = append(rec.Results, res)
	}
	total.Correct = total.Failed == 0
	if err := writeFiles(rec, *out, *traceOut); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// measure runs one workload, untraced or traced, and checks that the
// result carries every metric it must.
func measure(ctx context.Context, w *workload, cfg config, traced bool) (*result, error) {
	var res *result
	var err error
	switch {
	case traced:
		res, err = traceWorkload(ctx, w, cfg)
	case w.serve:
		res, err = measureServe(ctx, w, cfg)
	default:
		res, err = measureInproc(ctx, w, cfg)
	}
	if err != nil {
		return nil, err
	}
	return res, res.check()
}

// writeFiles writes the -out record and the -trace-out spans.
func writeFiles(rec record, out, traceOut string) error {
	if out != "" {
		if err := writeJSON(out, rec); err != nil {
			return err
		}
	}
	if traceOut == "" {
		return nil
	}
	if !rec.Traced {
		return errors.New("--trace-out needs --trace 1")
	}
	type workloadSpans struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	var all []workloadSpans
	for _, r := range rec.Results {
		all = append(all, workloadSpans{r.Workload, r.Spans})
	}
	return writeJSON(traceOut, all)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
