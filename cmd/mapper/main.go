// Command mapper maps a clustered problem graph onto a system graph with
// the paper's strategy and prints the mapping, its schedule, and the
// comparison against the lower bound and random placement. It is a thin
// shell over the Solver API: the flags build one mimdmap.Request.
//
// Usage:
//
//	mapper -prob prob.txt -sys sys.txt -clus clus.txt
//	mapper -prob prob.txt -topology mesh-4x4 -clusterer random
//	mapper -prob prob.txt -topology ring-8 -clusterer edge-zeroing -gantt
//	mapper -prob prob.txt -topology mesh-4x4 -clusterer random -starts 8 -workers 4
//
// Either -clus (a clustering file) or -clusterer (a registered strategy
// applied on the fly) must be given; the cluster count always equals the
// machine size. -seed is the single root of every random stream — the
// clusterer, random topologies, the refinement chains, and the comparison
// trials all derive from it, so one seed reproduces the whole run.
// -starts N refines N independent seeded chains concurrently and keeps the
// best mapping; -workers caps the concurrency (0 = all CPUs). -refiner
// swaps the refinement strategy for any registered search strategy
// (mimdmap.RefinerNames) — all priced through the same swap session at the
// same trial budget.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"mimdmap"
)

// errUsage signals that the flag package already printed the parse error
// and usage; main must not report it a second time.
var errUsage = errors.New("invalid arguments")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintln(os.Stderr, "mapper:", err)
		}
		os.Exit(1)
	}
}

// run parses args and executes the command, writing the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mapper", flag.ContinueOnError)
	var (
		probPath  = fs.String("prob", "", "problem graph file (required)")
		sysPath   = fs.String("sys", "", "system graph file")
		topoSpec  = fs.String("topology", "", "alternatively, a topology spec like mesh-4x4")
		clusPath  = fs.String("clus", "", "clustering file")
		clusterer = fs.String("clusterer", "", "or cluster on the fly: "+mimdmap.ClustererUsage())
		refiner   = fs.String("refiner", "", "search strategy refining the mapping (default: the paper's random-change refinement): "+mimdmap.RefinerUsage())
		seed      = fs.Int64("seed", 1, "root seed for every random stream: clustering, topology, refinement, trials")
		refines   = fs.Int("refinements", 0, "refinement budget (0 = paper default of ns)")
		full      = fs.Bool("full-propagation", false, "use full critical-edge propagation")
		gantt     = fs.Bool("gantt", false, "print the execution chart")
		trials    = fs.Int("random-trials", 10, "random mappings to average for comparison")
		starts    = fs.Int("starts", 1, "independent refinement chains raced concurrently (best wins)")
		workers   = fs.Int("workers", 0, "max concurrent chains (0 = all CPUs)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage already printed, exit 0
		}
		return errUsage
	}

	if *probPath == "" {
		return fmt.Errorf("-prob is required")
	}
	prob, err := readFile(*probPath, mimdmap.ReadProblem)
	if err != nil {
		return err
	}
	req := &mimdmap.Request{
		Problem:   prob,
		Topology:  *topoSpec,
		Clusterer: *clusterer,
		Refiner:   *refiner,
		Seed:      *seed,
	}
	req.Options.MaxRefinements = *refines
	req.Options.Starts = *starts
	req.Options.Workers = *workers
	if *full {
		req.Options.Propagation = mimdmap.FullPropagation
	}
	if *sysPath != "" {
		if req.System, err = readFile(*sysPath, mimdmap.ReadSystem); err != nil {
			return err
		}
		req.Topology = "" // an explicit -sys file wins, as it always has
	}
	if *clusPath != "" {
		if req.Clustering, err = readFile(*clusPath, mimdmap.ReadClustering); err != nil {
			return err
		}
		req.Clusterer = "" // an explicit -clus file wins, as it always has
	}

	resp, err := mimdmap.Solve(context.Background(), req)
	if err != nil {
		return err
	}
	res, sys, clus := resp.Result, resp.System, resp.Clustering

	fmt.Fprintf(stdout, "problem: %d tasks, %d edges; machine: %s (%d nodes)\n",
		prob.NumTasks(), prob.NumEdges(), sys.Name, sys.NumNodes())
	fmt.Fprintf(stdout, "lower bound:        %d\n", res.LowerBound)
	fmt.Fprintf(stdout, "initial assignment: %d\n", res.InitialTotalTime)
	fmt.Fprintf(stdout, "final total time:   %d (%.1f%% of bound) after %d refinements\n",
		res.TotalTime, 100*float64(res.TotalTime)/float64(res.LowerBound), res.Refinements)
	if *refiner != "" {
		fmt.Fprintf(stdout, "refiner:            %s\n", resp.Diagnostics.Refiner)
	}
	if *starts > 1 {
		fmt.Fprintf(stdout, "multi-start:        best of %d chains (chain %d won)\n", *starts, res.Chain)
	}
	fmt.Fprintf(stdout, "optimal proven:     %v\n", res.OptimalProven)
	fmt.Fprintf(stdout, "mapping (cluster → processor): %v\n", res.Assignment.ProcOf)

	if *trials > 0 {
		eval, err := mimdmap.NewEvaluator(prob, clus, sys)
		if err != nil {
			return err
		}
		// The comparison trials draw from their own stream of the root seed
		// so they never perturb (or depend on) the refinement's draws.
		rng := rand.New(rand.NewSource(*seed ^ 0x74726961)) // "tria"
		mean, _, best := mimdmap.RandomMapping(eval, *trials, rng)
		fmt.Fprintf(stdout, "random mapping (%d trials): mean %.0f (%.1f%%), best %d\n",
			*trials, mean, 100*mean/float64(res.LowerBound), best)
	}
	if *gantt {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, mimdmap.RenderGantt(resp.Schedule, clus, res.Assignment, sys.NumNodes()))
	}
	return nil
}

func readFile[T any](path string, read func(r io.Reader) (T, error)) (T, error) {
	var zero T
	f, err := os.Open(path)
	if err != nil {
		return zero, err
	}
	defer f.Close()
	return read(f)
}
