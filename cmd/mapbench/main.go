// Command mapbench regenerates the paper's evaluation: Tables 1–3 with
// their Figs. 25–27 histograms, the §2.2 counterexample figures, the §4
// running example, and the ablation experiments listed in the
// internal/experiment package doc.
//
// Usage:
//
//	mapbench                     # everything
//	mapbench -table 1            # only Table 1 / Fig. 25
//	mapbench -fig cardinality    # only the cardinality counterexample
//	mapbench -fig commcost       # only the comm-cost counterexample
//	mapbench -fig running        # only the running example
//	mapbench -ablation           # only the ablations
//	mapbench -seed 7 -trials 25  # change master seed / random trials
//	mapbench -workers 8          # cap the experiment fan-out (0 = all CPUs)
//	mapbench -starts 4           # multi-start refinement chains per mapping
//
// Independent experiments fan out across -workers goroutines; the output
// is byte-identical at any worker count because every instance derives its
// random streams from the master seed. The clusterer-comparison extension
// covers every strategy in the shared clusterer registry
// (mimdmap.ClustererNames), the same source of truth mapper, mapgen and
// mapserve resolve names against.
//
// mapbench reproduces results; it does not time anything. Kernel timings
// are Go benchmarks (go test -bench SwapScalar ./internal/schedule/ and
// go test -bench Refiners ./internal/search/), and end-to-end and
// per-layer timings come from the repository benchmark (bash bench/run.sh,
// with --trace 1 for the layer breakdown).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mimdmap/internal/experiment"
)

// errUsage signals that the flag package already printed the parse error
// and usage; main must not report it a second time.
var errUsage = errors.New("invalid arguments")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintln(os.Stderr, "mapbench:", err)
		}
		os.Exit(1)
	}
}

// benchFlags is the parsed command line.
type benchFlags struct {
	cfg       experiment.Config
	table     int
	fig       string
	ablation  bool
	extension bool
	sweep     bool
}

// parseFlags parses args into the experiment configuration and selectors.
func parseFlags(args []string) (benchFlags, error) {
	fs := flag.NewFlagSet("mapbench", flag.ContinueOnError)
	var (
		table      = fs.Int("table", 0, "regenerate only this table (1, 2 or 3); 0 = all")
		fig        = fs.String("fig", "", "regenerate only this worked figure: cardinality, commcost or running")
		ablation   = fs.Bool("ablation", false, "run only the ablation experiments")
		extension  = fs.Bool("extension", false, "run only the extension experiments (exact optimum, clusterers, heterogeneous links)")
		sweep      = fs.Bool("sweep", false, "run only the workload calibration sweep")
		seed       = fs.Int64("seed", 0, "master seed (0 = paper default 1991)")
		trials     = fs.Int("trials", 0, "random mappings averaged per instance (0 = 10)")
		edgeFactor = fs.Float64("edgefactor", 0, "DAG density: edge probability = edgefactor/np (0 = default)")
		taskSize   = fs.Int("tasksize", 0, "maximum task size (0 = default)")
		edgeWeight = fs.Int("edgeweight", 0, "maximum communication weight (0 = default)")
		workers    = fs.Int("workers", 0, "max concurrent experiments (0 = all CPUs, 1 = sequential)")
		starts     = fs.Int("starts", 0, "multi-start refinement chains per mapping in the table, extension and sweep experiments (0 or 1 = single chain)")
		refiner    = fs.String("refiner", "", "search strategy refining the table and sweep mappings (default: the paper's random-change refinement): "+experiment.RefinerUsage())
	)
	if err := fs.Parse(args); err != nil {
		return benchFlags{}, err
	}
	return benchFlags{
		cfg: experiment.Config{
			MasterSeed:    *seed,
			RandomTrials:  *trials,
			EdgeFactor:    *edgeFactor,
			TaskSizeMax:   *taskSize,
			EdgeWeightMax: *edgeWeight,
			Workers:       *workers,
			Starts:        *starts,
			Refiner:       *refiner,
		},
		table:     *table,
		fig:       *fig,
		ablation:  *ablation,
		extension: *extension,
		sweep:     *sweep,
	}, nil
}

func run(args []string, stdout io.Writer) error {
	f, err := parseFlags(args)
	if errors.Is(err, flag.ErrHelp) {
		return nil // -h: usage already printed, exit 0
	}
	if err != nil {
		return errUsage
	}
	return report(f, stdout)
}

func report(f benchFlags, w io.Writer) error {
	cfg := f.cfg
	all := f.table == 0 && f.fig == "" && !f.ablation && !f.extension && !f.sweep

	tables := []struct {
		id  int
		run func(experiment.Config) (*experiment.TableResult, error)
	}{
		{1, experiment.Table1},
		{2, experiment.Table2},
		{3, experiment.Table3},
	}
	for _, t := range tables {
		if !all && f.table != t.id {
			continue
		}
		res, err := t.run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
		fmt.Fprintln(w, res.Histogram())
		lo, hi := res.ImprovementRange()
		fmt.Fprintf(w, "improvement range: %.0f–%.0f points over random mapping\n\n", lo, hi)
	}

	figs := []struct {
		key string
		run func() (string, error)
	}{
		{"cardinality", experiment.CardinalityReport},
		{"commcost", experiment.CommCostReport},
		{"running", experiment.RunningReport},
	}
	for _, fg := range figs {
		if !all && f.fig != fg.key {
			continue
		}
		report, err := fg.run()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report)
	}

	if all || f.ablation {
		report, err := experiment.AblationReport(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report)
	}

	if all || f.extension {
		for _, rep := range []func(experiment.Config) (string, error){
			experiment.ExactGapReport,
			experiment.CompareClusterersReport,
			experiment.CompareRefinersReport,
			experiment.HeteroLinksReport,
			experiment.CompareTopologiesReport,
		} {
			report, err := rep(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, report)
		}
	}

	if all || f.sweep {
		report, err := experiment.SweepReport(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report)
	}
	return nil
}
