// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the E8–E10 ablations (listed in internal/experiment). Each benchmark
// reports the headline numbers as custom metrics so `go test -bench .`
// reproduces the evaluation:
//
//	ours%/bound    mean total time of our strategy, % of the lower bound
//	random%/bound  mean total time of random mapping, % of the lower bound
//	improve_pts    mean improvement in percentage points (the tables'
//	               fourth column)
//	at_bound       number of experiments stopped by the termination
//	               condition (§5's statistic for Figs. 26–27)
package mimdmap_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mimdmap"
	"mimdmap/internal/baseline"
	"mimdmap/internal/core"
	"mimdmap/internal/critical"
	"mimdmap/internal/experiment"
	"mimdmap/internal/gen"
	"mimdmap/internal/search"
)

func reportTable(b *testing.B, run func(experiment.Config) (*experiment.TableResult, error)) {
	b.Helper()
	var res *experiment.TableResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = run(experiment.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	ours, random, improve := 0.0, 0.0, 0.0
	for _, r := range res.Rows {
		ours += r.OursPct
		random += r.RandomPct
		improve += r.Improvement()
	}
	n := float64(len(res.Rows))
	b.ReportMetric(ours/n, "ours%/bound")
	b.ReportMetric(random/n, "random%/bound")
	b.ReportMetric(improve/n, "improve_pts")
	b.ReportMetric(float64(res.AtBound), "at_bound")
}

// BenchmarkTable1 regenerates Table 1 / Fig. 25: ten random programs mapped
// onto hypercubes (ns 4–32), our strategy versus the random-mapping mean.
func BenchmarkTable1Hypercubes(b *testing.B) { reportTable(b, experiment.Table1) }

// BenchmarkTable2 regenerates Table 2 / Fig. 26: eleven random programs
// mapped onto 2-D meshes (ns 4–40).
func BenchmarkTable2Meshes(b *testing.B) { reportTable(b, experiment.Table2) }

// BenchmarkTable3 regenerates Table 3 / Fig. 27: seventeen random programs
// mapped onto random connected topologies (ns 4–40).
func BenchmarkTable3RandomTopologies(b *testing.B) { reportTable(b, experiment.Table3) }

// BenchmarkFigCardinality regenerates the §2.2 cardinality counterexample
// (Figs. 7–12): time of the max-cardinality assignment (A1) versus the time
// optimum (A2) versus the lower bound.
func BenchmarkFigCardinality(b *testing.B) {
	var report string
	var err error
	for i := 0; i < b.N; i++ {
		report, err = experiment.CardinalityReport()
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = report
	// Fixed, exhaustively verified values (see internal/experiment tests).
	b.ReportMetric(8, "bound")
	b.ReportMetric(12, "A1_time")
	b.ReportMetric(8, "A2_time")
}

// BenchmarkFigCommCost regenerates the §2.2 communication-cost
// counterexample (Figs. 13–17): time of the min-comm-cost assignment (A3)
// versus the time optimum (A4) versus the lower bound.
func BenchmarkFigCommCost(b *testing.B) {
	var report string
	var err error
	for i := 0; i < b.N; i++ {
		report, err = experiment.CommCostReport()
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = report
	b.ReportMetric(11, "bound")
	b.ReportMetric(12, "A3_time")
	b.ReportMetric(11, "A4_time")
}

// BenchmarkFigRunning regenerates the running example (Figs. 2–6 and 24):
// the initial assignment meets the bound and refinement never runs.
func BenchmarkFigRunning(b *testing.B) {
	ex := experiment.RunningExample()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		m, err := core.New(ex.Prob, ex.Clus, ex.Sys, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res, err = m.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.LowerBound), "bound")
	b.ReportMetric(float64(res.TotalTime), "total")
	b.ReportMetric(float64(res.Refinements), "refinements")
}

// ablationInstances builds the shared mesh workload (Table 2 instances).
func ablationInstances(b *testing.B) []*experiment.Instance {
	b.Helper()
	ins, err := experiment.MeshInstances(experiment.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return ins
}

// BenchmarkAblationRefinement (E8): the paper's random-change refinement
// versus one full pairwise-exchange sweep from the same initial assignment
// (§4.3.3 claims random changes work better).
func BenchmarkAblationRefinement(b *testing.B) {
	ins := ablationInstances(b)
	var randPct, pairPct float64
	for i := 0; i < b.N; i++ {
		randPct, pairPct = 0, 0
		for _, in := range ins {
			m, err := core.New(in.Prob, in.Clus, in.Sys, core.Options{Rand: rand.New(rand.NewSource(11))})
			if err != nil {
				b.Fatal(err)
			}
			out, err := m.Run()
			if err != nil {
				b.Fatal(err)
			}
			randPct += 100 * float64(out.TotalTime) / float64(out.LowerBound)

			m2, err := core.New(in.Prob, in.Clus, in.Sys, core.Options{
				Refiner:        search.Pairwise{MaxRounds: 1},
				MaxRefinements: math.MaxInt,
			})
			if err != nil {
				b.Fatal(err)
			}
			out2, err := m2.Run()
			if err != nil {
				b.Fatal(err)
			}
			pairPct += 100 * float64(out2.TotalTime) / float64(out2.LowerBound)
		}
	}
	n := float64(len(ins))
	b.ReportMetric(randPct/n, "random-change%")
	b.ReportMetric(pairPct/n, "pairwise%")
}

// BenchmarkAblationPropagation (E9): Paper versus Full critical-edge
// propagation; critical.Propagation documents how the two modes differ.
func BenchmarkAblationPropagation(b *testing.B) {
	ins := ablationInstances(b)
	var paperPct, fullPct float64
	for i := 0; i < b.N; i++ {
		paperPct, fullPct = 0, 0
		for _, in := range ins {
			for _, mode := range []critical.Propagation{critical.Paper, critical.Full} {
				m, err := core.New(in.Prob, in.Clus, in.Sys, core.Options{
					Propagation: mode, Rand: rand.New(rand.NewSource(13)),
				})
				if err != nil {
					b.Fatal(err)
				}
				out, err := m.Run()
				if err != nil {
					b.Fatal(err)
				}
				pct := 100 * float64(out.TotalTime) / float64(out.LowerBound)
				if mode == critical.Paper {
					paperPct += pct
				} else {
					fullPct += pct
				}
			}
		}
	}
	n := float64(len(ins))
	b.ReportMetric(paperPct/n, "paper%")
	b.ReportMetric(fullPct/n, "full%")
}

// BenchmarkAblationContention (E10): dataflow versus contention-aware
// evaluation of the final mapping and of one random mapping.
func BenchmarkAblationContention(b *testing.B) {
	ins := ablationInstances(b)
	var flowOurs, contOurs, flowRand, contRand float64
	for i := 0; i < b.N; i++ {
		flowOurs, contOurs, flowRand, contRand = 0, 0, 0, 0
		for _, in := range ins {
			m, err := core.New(in.Prob, in.Clus, in.Sys, core.Options{Rand: rand.New(rand.NewSource(17))})
			if err != nil {
				b.Fatal(err)
			}
			out, err := m.Run()
			if err != nil {
				b.Fatal(err)
			}
			e := m.Evaluator()
			randA := baseline.RandomAssignment(in.Clus.K, rand.New(rand.NewSource(19)))
			flowOurs += float64(out.TotalTime)
			contOurs += float64(e.ContendedTotalTime(out.Assignment))
			flowRand += float64(e.TotalTime(randA))
			contRand += float64(e.ContendedTotalTime(randA))
		}
	}
	n := float64(len(ins))
	b.ReportMetric(flowOurs/n, "flow_ours")
	b.ReportMetric(contOurs/n, "cont_ours")
	b.ReportMetric(flowRand/n, "flow_rand")
	b.ReportMetric(contRand/n, "cont_rand")
}

// BenchmarkAblationLinkContention (E11): dataflow versus FCFS
// store-and-forward link contention on the final mappings.
func BenchmarkAblationLinkContention(b *testing.B) {
	ins := ablationInstances(b)
	var linkOurs, linkRand float64
	for i := 0; i < b.N; i++ {
		linkOurs, linkRand = 0, 0
		for _, in := range ins {
			m, err := core.New(in.Prob, in.Clus, in.Sys, core.Options{Rand: rand.New(rand.NewSource(29))})
			if err != nil {
				b.Fatal(err)
			}
			out, err := m.Run()
			if err != nil {
				b.Fatal(err)
			}
			routes := mimdmap.NewRouteTable(in.Sys)
			randA := baseline.RandomAssignment(in.Clus.K, rand.New(rand.NewSource(31)))
			linkOurs += float64(m.Evaluator().LinkContendedTotalTime(out.Assignment, routes))
			linkRand += float64(m.Evaluator().LinkContendedTotalTime(randA, routes))
		}
	}
	n := float64(len(ins))
	b.ReportMetric(linkOurs/n, "link_ours")
	b.ReportMetric(linkRand/n, "link_rand")
}

// BenchmarkAblationTermination (E7 companion): how many evaluations the
// §4.3.1 termination condition saves across the mesh workload.
func BenchmarkAblationTermination(b *testing.B) {
	ins := ablationInstances(b)
	var withStop, withoutStop float64
	for i := 0; i < b.N; i++ {
		withStop, withoutStop = 0, 0
		for _, in := range ins {
			for _, disable := range []bool{false, true} {
				m, err := core.New(in.Prob, in.Clus, in.Sys, core.Options{
					DisableTermination: disable, Rand: rand.New(rand.NewSource(23)),
				})
				if err != nil {
					b.Fatal(err)
				}
				out, err := m.Run()
				if err != nil {
					b.Fatal(err)
				}
				if disable {
					withoutStop += float64(out.Refinements)
				} else {
					withStop += float64(out.Refinements)
				}
			}
		}
	}
	b.ReportMetric(withStop, "refines_with_stop")
	b.ReportMetric(withoutStop, "refines_without_stop")
}

// BenchmarkExtensionExactGap (extension): the heuristic's mean gap over the
// branch-and-bound optimum on small machines, and how often the ideal lower
// bound is actually attainable.
func BenchmarkExtensionExactGap(b *testing.B) {
	var rows []experiment.ExactGapRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiment.ExactGap(experiment.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	gap := 0.0
	tight := 0
	for _, r := range rows {
		gap += r.GapPct()
		if r.Optimum == r.Bound {
			tight++
		}
	}
	b.ReportMetric(gap/float64(len(rows)), "gap%/optimum")
	b.ReportMetric(float64(tight), "bound_tight")
}

// BenchmarkExtensionClusterers (extension): mean mapped total time per
// clustering strategy over the shared mesh workload.
func BenchmarkExtensionClusterers(b *testing.B) {
	var rows []experiment.ClustererRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiment.CompareClusterers(experiment.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MeanTime, r.Clusterer+"_time")
	}
}

// BenchmarkExtensionHeteroLinks (E15): the mesh workload on machines with
// random per-link delay factors 1–3.
func BenchmarkExtensionHeteroLinks(b *testing.B) {
	var rows []experiment.HeteroRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiment.HeteroLinks(experiment.Config{}, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	ours, random := 0.0, 0.0
	for _, r := range rows {
		ours += r.OursPct
		random += r.RandomPct
	}
	n := float64(len(rows))
	b.ReportMetric(ours/n, "ours%/bound")
	b.ReportMetric(random/n, "random%/bound")
	b.ReportMetric((random-ours)/n, "improve_pts")
}

// BenchmarkExtensionTopologies (E16): seven 16-processor machines on
// identical workloads; mean % over the machine-independent bound.
func BenchmarkExtensionTopologies(b *testing.B) {
	var rows []experiment.TopoRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiment.CompareTopologies(experiment.Config{}, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.OursPct, r.Topology+"%")
	}
}

// BenchmarkMapperScaling measures the mapper itself (not the experiment
// harness) on a representative single instance, for -benchmem profiling.
func BenchmarkMapperScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	prob, err := mimdmap.RandomProblem(mimdmap.RandomProblemConfig{
		Tasks: 240, EdgeProb: 6.0 / 240, MinTaskSize: 1, MaxTaskSize: 20,
		MinEdgeWeight: 1, MaxEdgeWeight: 5, Connected: true,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	sys := mimdmap.Mesh(5, 8)
	clus, err := mimdmap.RandomClusterer(rng).Cluster(prob, sys.NumNodes())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mimdmap.Map(prob, clus, sys, &mimdmap.Options{
			Rand: rand.New(rand.NewSource(31)),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluator measures the refinement hot path: one total-time
// evaluation of a 240-task program on a 40-node machine.
func BenchmarkEvaluator(b *testing.B) {
	rng := rand.New(rand.NewSource(37))
	prob, err := mimdmap.RandomProblem(mimdmap.RandomProblemConfig{
		Tasks: 240, EdgeProb: 6.0 / 240, Connected: true,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	sys := mimdmap.Mesh(5, 8)
	clus, err := mimdmap.RandomClusterer(rng).Cluster(prob, sys.NumNodes())
	if err != nil {
		b.Fatal(err)
	}
	eval, err := mimdmap.NewEvaluator(prob, clus, sys)
	if err != nil {
		b.Fatal(err)
	}
	a := mimdmap.RandomAssignment(clus.K, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.TotalTime(a)
	}
}

// --- Parallel execution engine (internal/parallel) ---
//
// The engine fans the embarrassingly parallel table experiments out across
// a bounded worker pool; these benchmarks pin sequential versus parallel
// wall-clock on the same workload. Output is byte-identical at any worker
// count, so the comparison is pure throughput. On a single-core machine
// the variants tie (modulo pool overhead); the parallel ones win once
// GOMAXPROCS > 1.

// benchTable2AtWorkers regenerates Table 2 with the experiment fan-out
// capped at the given worker count.
func benchTable2AtWorkers(b *testing.B, workers int) {
	b.Helper()
	var res *experiment.TableResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.Table2(experiment.Config{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Rows)), "experiments")
}

// BenchmarkTable2Workers1 is the sequential baseline (workers == 1 runs the
// plain loop, no goroutines).
func BenchmarkTable2Workers1(b *testing.B) { benchTable2AtWorkers(b, 1) }

// BenchmarkTable2Workers4 fans the eleven mesh experiments across four
// workers.
func BenchmarkTable2Workers4(b *testing.B) { benchTable2AtWorkers(b, 4) }

// BenchmarkTable2WorkersMax uses one worker per available CPU.
func BenchmarkTable2WorkersMax(b *testing.B) { benchTable2AtWorkers(b, 0) }

// BenchmarkSweepWorkers{1,Max} do the same for the calibration sweep — the
// heaviest harness entry point (four full Table 2 regenerations).
func benchSweepAtWorkers(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Sweep(experiment.Config{Workers: workers}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepWorkers1(b *testing.B)   { benchSweepAtWorkers(b, 1) }
func BenchmarkSweepWorkersMax(b *testing.B) { benchSweepAtWorkers(b, 0) }

// benchMapStarts measures multi-start refinement: K independent chains on
// one fixed 160-task/32-node instance, racing to the lower bound.
func benchMapStarts(b *testing.B, starts int) {
	b.Helper()
	rng := rand.New(rand.NewSource(51))
	prob, err := mimdmap.RandomProblem(mimdmap.RandomProblemConfig{
		Tasks: 160, EdgeProb: 3.0 / 160, MinTaskSize: 1, MaxTaskSize: 20,
		MinEdgeWeight: 1, MaxEdgeWeight: 5, Connected: true,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	sys := mimdmap.Mesh(4, 8)
	clus, err := mimdmap.RandomClusterer(rng).Cluster(prob, sys.NumNodes())
	if err != nil {
		b.Fatal(err)
	}
	var res *core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = mimdmap.MapParallel(context.Background(), prob, clus, sys, &mimdmap.Options{
			Rand:           rand.New(rand.NewSource(3)),
			MaxRefinements: 400,
			Starts:         starts,
			Seed:           9,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.TotalTime), "total")
	b.ReportMetric(float64(res.LowerBound), "bound")
}

func BenchmarkMapStarts1(b *testing.B) { benchMapStarts(b, 1) }
func BenchmarkMapStarts8(b *testing.B) { benchMapStarts(b, 8) }

// BenchmarkColdMapLarge maps the large-cold benchmark workload's shape —
// one np=2000 random DAG (edge factor 3, sizes [1,20], weights [1,5]) on
// mesh-8x16 with random clustering — from a fresh, unfrozen copy of the
// problem each iteration (copied outside the timer), so the problem's
// sparse view is rebuilt every time: the figure is a true cold set-up, not
// a memoised one.
func BenchmarkColdMapLarge(b *testing.B) {
	const np = 2000
	rng := rand.New(rand.NewSource(1991))
	prob, err := mimdmap.RandomProblem(mimdmap.RandomProblemConfig{
		Tasks: np, EdgeProb: 3.0 / np, MinTaskSize: 1, MaxTaskSize: 20,
		MinEdgeWeight: 1, MaxEdgeWeight: 5, Connected: true,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	sys := mimdmap.Mesh(8, 16)
	clus, err := mimdmap.RandomClusterer(rng).Cluster(prob, sys.NumNodes())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := prob.Clone()
		b.StartTimer()
		if _, err := mimdmap.Map(p, clus, sys, &mimdmap.Options{
			Rand: rand.New(rand.NewSource(int64(i) + 1)), Workers: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchHeavy maps the search-heavy benchmark workload's shape —
// a Table 2 style instance (np=160) on mesh-5x8 — under the adaptive
// portfolio with two chains and a 2000-trial budget, so the portfolio's
// lockstep rounds and every arm's trial loop run on each benchmark pass.
func BenchmarkSearchHeavy(b *testing.B) {
	sys := mimdmap.Mesh(5, 8)
	prob, clus, err := gen.TableInstance(sys.NumNodes(), 1991)
	if err != nil {
		b.Fatal(err)
	}
	portfolio, err := search.RefinerByName("portfolio")
	if err != nil {
		b.Fatal(err)
	}
	var res *core.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = mimdmap.MapParallel(context.Background(), prob, clus, sys, &mimdmap.Options{
			Refiner:        portfolio,
			MaxRefinements: 2000,
			Starts:         2,
			Workers:        1,
			Seed:           int64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.TotalTime), "total")
	b.ReportMetric(float64(res.LowerBound), "bound")
}
