package experiment

import (
	"context"
	"fmt"
	"math/rand"

	"mimdmap/internal/cluster"
	"mimdmap/internal/core"
	"mimdmap/internal/exact"
	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/parallel"
	"mimdmap/internal/schedule"
	"mimdmap/internal/service"
	"mimdmap/internal/stats"
	"mimdmap/internal/topology"
)

// These experiments extend the paper's §5 evaluation: the 1991
// paper could only compare against the ideal-graph lower bound, which is
// not always attainable; the branch-and-bound solver provides the true
// optimum on small machines, and the clusterer comparison quantifies how
// much the upstream clustering step (which the paper treats as given)
// matters for the mapping stage.

// ExactGapRow compares the heuristic against the exact optimum on one
// instance.
type ExactGapRow struct {
	Exp        int
	Topology   string
	NP, NS     int
	Bound      int // ideal-graph lower bound
	Optimum    int // branch-and-bound optimum
	Heuristic  int // our mapping strategy
	RandomMean float64
	Nodes      int // search nodes the exact solver expanded
}

// GapPct returns the heuristic's gap over the true optimum in percent.
func (r ExactGapRow) GapPct() float64 {
	return 100 * float64(r.Heuristic-r.Optimum) / float64(r.Optimum)
}

// ExactGap runs heuristic-versus-optimal on small machines (ring, mesh,
// hypercube, star, random; ns 4–8) where branch and bound is tractable.
// The machines run concurrently under cfg.Workers; each derives its RNGs
// from its own seed, so results do not depend on the worker count.
func ExactGap(cfg Config) ([]ExactGapRow, error) {
	cfg.defaults()
	machines := []func(rng *rand.Rand) *graph.System{
		func(*rand.Rand) *graph.System { return topology.Ring(5) },
		func(*rand.Rand) *graph.System { return topology.Mesh(2, 3) },
		func(*rand.Rand) *graph.System { return topology.Hypercube(3) },
		func(*rand.Rand) *graph.System { return topology.Star(6) },
		func(rng *rand.Rand) *graph.System { return topology.Random(7, 0.2, rng) },
		func(*rand.Rand) *graph.System { return topology.Chain(6) },
		func(*rand.Rand) *graph.System { return topology.Mesh(2, 4) },
		func(rng *rand.Rand) *graph.System { return topology.Random(8, 0.15, rng) },
	}
	return parallel.Map(context.Background(), len(machines), cfg.Workers,
		func(ctx context.Context, i int) (ExactGapRow, error) {
			seed := cfg.MasterSeed + int64(i)*104729
			sysRng := rand.New(rand.NewSource(seed))
			genRng := rand.New(rand.NewSource(seed + 1))
			clusRng := rand.New(rand.NewSource(seed + 2))
			mapRng := rand.New(rand.NewSource(seed + 3))
			randRng := rand.New(rand.NewSource(seed + 4))

			sys := machines[i](sysRng)
			ns := sys.NumNodes()
			np := 30 + genRng.Intn(31)
			prob, err := gen.Random(gen.RandomConfig{
				Tasks:         np,
				EdgeProb:      cfg.EdgeFactor / float64(np),
				MinTaskSize:   1,
				MaxTaskSize:   cfg.TaskSizeMax,
				MinEdgeWeight: 1,
				MaxEdgeWeight: cfg.EdgeWeightMax,
				Connected:     true,
			}, genRng)
			if err != nil {
				return ExactGapRow{}, err
			}
			clus, err := (&cluster.Random{Rand: clusRng}).Cluster(prob, ns)
			if err != nil {
				return ExactGapRow{}, err
			}
			m, err := core.New(prob, clus, sys, core.Options{
				Rand:    mapRng,
				Starts:  cfg.Starts,
				Workers: cfg.Workers,
				Seed:    seed + 5,
			})
			if err != nil {
				return ExactGapRow{}, err
			}
			out, err := m.RunParallel(ctx)
			if err != nil {
				return ExactGapRow{}, err
			}
			ex := exact.Solve(m.Evaluator(), out.LowerBound, exact.Options{})
			if !ex.Proven {
				return ExactGapRow{}, fmt.Errorf("exact solver did not prove optimality on experiment %d", i+1)
			}
			randomMean := 0.0
			randA := schedule.NewAssignment(ns)
			for t := 0; t < cfg.RandomTrials; t++ {
				schedule.RandPermInto(randRng, randA.ProcOf)
				randomMean += float64(m.Evaluator().TotalTime(randA))
			}
			randomMean /= float64(cfg.RandomTrials)
			return ExactGapRow{
				Exp: i + 1, Topology: sys.Name, NP: np, NS: ns,
				Bound: out.LowerBound, Optimum: ex.TotalTime,
				Heuristic: out.TotalTime, RandomMean: randomMean, Nodes: ex.Nodes,
			}, nil
		})
}

// ExactGapReport renders the heuristic-versus-optimal comparison.
func ExactGapReport(cfg Config) (string, error) {
	rows, err := ExactGap(cfg)
	if err != nil {
		return "", err
	}
	headers := []string{"expts", "topology", "np", "ns", "bound", "optimum", "heuristic", "gap%", "random", "bb-nodes"}
	var cells [][]string
	sumGap := 0.0
	boundTight := 0
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Exp), r.Topology,
			fmt.Sprintf("%d", r.NP), fmt.Sprintf("%d", r.NS),
			fmt.Sprintf("%d", r.Bound), fmt.Sprintf("%d", r.Optimum),
			fmt.Sprintf("%d", r.Heuristic), fmt.Sprintf("%.1f", r.GapPct()),
			fmt.Sprintf("%.0f", r.RandomMean), fmt.Sprintf("%d", r.Nodes),
		})
		sumGap += r.GapPct()
		if r.Optimum == r.Bound {
			boundTight++
		}
	}
	return comparisonSection(
		"Extension: heuristic vs exact optimum (branch and bound)",
		headers, cells,
		fmt.Sprintf("mean heuristic gap over the true optimum: %.1f%%", sumGap/float64(len(rows))),
		fmt.Sprintf("ideal lower bound tight (optimum == bound) in %d of %d cases", boundTight, len(rows)),
	), nil
}

// ClustererRow compares clustering strategies on one instance, all mapped
// with the full strategy afterwards.
type ClustererRow struct {
	Clusterer string
	// MeanPct is the mean final total time as % of each instance's own
	// lower bound (bounds differ per clustering: clustering changes the
	// ideal graph).
	MeanPct float64
	// MeanTime is the mean absolute total time, comparable across
	// clusterers because the instances are identical.
	MeanTime float64
	// AtBound counts termination-condition hits.
	AtBound int
}

// CompareClusterers maps the Table-2 mesh workload once per clustering
// strategy. The paper assumes clustering is given; this measures how much
// the choice matters for the final mapped time.
func CompareClusterers(cfg Config) ([]ClustererRow, error) {
	cfg.defaults()
	instances, err := MeshInstances(cfg)
	if err != nil {
		return nil, err
	}
	// Every registered strategy competes — the registry is the single
	// source of truth for what "every clusterer" means, shared with the
	// CLIs and the server. Each instance owns a generator seeded from the
	// master seed, so randomised strategies stay deterministic.
	names := service.ClustererNames()
	clusterers := make([]cluster.Clusterer, 0, len(names))
	for _, name := range names {
		cl, err := service.ClustererByName(name, rand.New(rand.NewSource(cfg.MasterSeed)))
		if err != nil {
			return nil, err
		}
		clusterers = append(clusterers, cl)
	}
	// One worker per clusterer: each clusterer instance owns its generator,
	// and the instance loop below stays sequential so that generator's
	// stream is consumed in a fixed order.
	return parallel.Map(context.Background(), len(clusterers), cfg.Workers,
		func(ctx context.Context, c int) (ClustererRow, error) {
			cl := clusterers[c]
			var pcts, times []float64
			atBound := 0
			for ii, in := range instances {
				clus, err := cl.Cluster(in.Prob, in.Sys.NumNodes())
				if err != nil {
					return ClustererRow{}, err
				}
				m, err := core.New(in.Prob, clus, in.Sys, core.Options{
					Rand:    rand.New(rand.NewSource(cfg.MasterSeed + 41)),
					Starts:  cfg.Starts,
					Workers: cfg.Workers,
					Seed:    cfg.MasterSeed + 43 + 97*int64(ii),
				})
				if err != nil {
					return ClustererRow{}, err
				}
				out, err := m.RunParallel(ctx)
				if err != nil {
					return ClustererRow{}, err
				}
				pcts = append(pcts, stats.PercentOver(out.LowerBound, float64(out.TotalTime)))
				times = append(times, float64(out.TotalTime))
				if out.OptimalProven {
					atBound++
				}
			}
			return ClustererRow{
				Clusterer: cl.Name(),
				MeanPct:   stats.Mean(pcts),
				MeanTime:  stats.Mean(times),
				AtBound:   atBound,
			}, nil
		})
}

// CompareClusterersReport renders the clusterer comparison.
func CompareClusterersReport(cfg Config) (string, error) {
	rows, err := CompareClusterers(cfg)
	if err != nil {
		return "", err
	}
	headers := []string{"clusterer", "mean total time", "mean % over own bound", "at-bound"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Clusterer,
			fmt.Sprintf("%.0f", r.MeanTime),
			fmt.Sprintf("%.1f", r.MeanPct),
			fmt.Sprintf("%d", r.AtBound),
		})
	}
	return comparisonSection(
		"Extension: clustering strategies under the same mapper (mesh workload)",
		headers, cells,
		"(total time is comparable across rows; % is against each clustering's own ideal bound)",
	), nil
}
