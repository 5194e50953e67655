// Hypercube: a Table-1-style experiment with a full trace. A random
// 96-task program is clustered onto a 16-processor hypercube; the
// critical-edge-guided mapping is compared against the mean of random
// mappings and against simulated annealing, all normalised to the
// ideal-graph lower bound.
//
// Run with:
//
//	go run ./examples/hypercube [-seed N]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"mimdmap"
)

func main() {
	seed := flag.Int64("seed", 1991, "random seed for the whole experiment")
	flag.Parse()
	rng := rand.New(rand.NewSource(*seed))

	// A random precedence program: 96 tasks, about two edges per task,
	// computation-heavy weights (the paper's §5 regime).
	prob, err := mimdmap.RandomProblem(mimdmap.RandomProblemConfig{
		Tasks:         96,
		EdgeProb:      4.0 / 96,
		MinTaskSize:   1,
		MaxTaskSize:   20,
		MinEdgeWeight: 1,
		MaxEdgeWeight: 5,
		Connected:     true,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}

	sys := mimdmap.Hypercube(4) // 16 processors
	clus, err := mimdmap.RandomClusterer(rng).Cluster(prob, sys.NumNodes())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("program: %d tasks, %d edges, total work %d\n",
		prob.NumTasks(), prob.NumEdges(), prob.TotalWork())
	fmt.Printf("machine: %s (%d processors, %d links)\n\n",
		sys.Name, sys.NumNodes(), sys.NumLinks())

	// Our strategy, with full trace.
	res, err := mimdmap.Map(prob, clus, sys, &mimdmap.Options{Rand: rng})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ideal-graph lower bound:   %d\n", res.LowerBound)
	fmt.Printf("critical problem edges:    %d\n", res.Critical.NumCriticalProbEdges())
	fmt.Printf("critical abstract edges:   %d\n", res.Critical.NumCriticalAbsEdges())
	fmt.Printf("critical clusters frozen:  %v\n", res.Critical.CriticalClusters())
	fmt.Printf("initial assignment total:  %d (%.1f%% of bound)\n",
		res.InitialTotalTime, pct(res.InitialTotalTime, res.LowerBound))
	fmt.Printf("after %d refinements:      %d (%.1f%% of bound), optimal proven: %v\n\n",
		res.Refinements, res.TotalTime, pct(res.TotalTime, res.LowerBound), res.OptimalProven)

	// Baselines on the identical instance.
	eval, err := mimdmap.NewEvaluator(prob, clus, sys)
	if err != nil {
		log.Fatal(err)
	}
	mean, _, best := mimdmap.RandomMapping(eval, 10, rng)
	fmt.Printf("random mapping (10 trials): mean %.0f (%.1f%%), best %d (%.1f%%)\n",
		mean, 100*mean/float64(res.LowerBound), best, pct(best, res.LowerBound))
	_, saTime := mimdmap.Anneal(eval, mimdmap.AnnealOptions{}, rng)
	fmt.Printf("simulated annealing:        %d (%.1f%%)\n", saTime, pct(saTime, res.LowerBound))
	fmt.Printf("\nimprovement over random mean: %.0f percentage points\n",
		100*mean/float64(res.LowerBound)-pct(res.TotalTime, res.LowerBound))
}

func pct(x, bound int) float64 { return 100 * float64(x) / float64(bound) }
