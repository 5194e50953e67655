package schedule

import (
	"math/rand"
	"testing"

	"mimdmap/internal/cluster"
	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/paths"
	"mimdmap/internal/topology"
)

// benchInstance generates a Table 1–3 style workload via the shared
// gen.TableInstance builder, the generator BenchmarkRefiners in
// internal/search also draws its workloads from.
func benchInstance(tb testing.TB, sys *graph.System, seed int64) (*Evaluator, *Assignment) {
	tb.Helper()
	ns := sys.NumNodes()
	prob, clus, err := gen.TableInstance(ns, seed)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := NewEvaluator(prob, clus, paths.New(sys))
	if err != nil {
		tb.Fatal(err)
	}
	return e, FromPerm(rand.New(rand.NewSource(seed)).Perm(ns))
}

// benchRefineTrials measures refinement trials/sec: candidate swaps of a
// fixed incumbent drawn ahead and priced SwapLanes at a time, exactly as
// core.refine does. b.N counts trials, not batches.
func benchRefineTrials(b *testing.B, sys *graph.System, seed int64) {
	e, a := benchInstance(b, sys, seed)
	k := a.K()
	rng := rand.New(rand.NewSource(seed + 1))
	sess := e.NewSwapSession(a)
	var ks, ls, totals [SwapLanes]int
	b.ReportAllocs()
	b.ResetTimer()
	for t := 0; t < b.N; t += SwapLanes {
		for l := 0; l < SwapLanes; l++ {
			ks[l], ls[l] = RandSwapPair(rng, k)
		}
		sess.TrySwapBatch(&ks, &ls, &totals)
		refineBenchSink += totals[0] + totals[SwapLanes-1]
	}
}

var refineBenchSink int

func BenchmarkRefineTrialHypercube16(b *testing.B) { benchRefineTrials(b, topology.Hypercube(4), 1991) }
func BenchmarkRefineTrialHypercube32(b *testing.B) { benchRefineTrials(b, topology.Hypercube(5), 1991) }
func BenchmarkRefineTrialMesh4x4(b *testing.B)     { benchRefineTrials(b, topology.Mesh(4, 4), 1991) }
func BenchmarkRefineTrialMesh5x8(b *testing.B)     { benchRefineTrials(b, topology.Mesh(5, 8), 1991) }
func BenchmarkRefineTrialRandom24(b *testing.B)    { benchRefineTrials(b, random24(), 1991) }

// BenchmarkSwapKernel measures what a trial costs when the priced-pair
// memo misses: the session's table is switched off, so every batch of
// random pairs of a fixed incumbent reaches an evaluation pass. b.N counts
// trials. The shapes are the five refine machines, the large-cold shape
// (np=2000 random DAG on mesh-8x16 under random clustering) and a narrow
// one: 256 independent 4-task pipelines on mesh-8x16, whose swaps each
// touch only a few chains.
func BenchmarkSwapKernel(b *testing.B) {
	for _, sys := range refineMachines() {
		b.Run(sys.Name, func(b *testing.B) {
			e, a := benchInstance(b, sys, 1991)
			benchKernel(b, e, a)
		})
	}
	b.Run("large-cold", func(b *testing.B) {
		e, a := largeColdInstance(b)
		benchKernel(b, e, a)
	})
	b.Run("pipelines", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1991))
		sys := topology.Mesh(8, 16)
		p, c := pipelines(256, 4, sys.NumNodes(), rng)
		e, err := NewEvaluator(p, c, paths.New(sys))
		if err != nil {
			b.Fatal(err)
		}
		benchKernel(b, e, FromPerm(rng.Perm(sys.NumNodes())))
	})
}

// benchKernel prices batches of random swaps of a with the session's
// priced-pair memo switched off.
func benchKernel(b *testing.B, e *Evaluator, a *Assignment) {
	k := a.K()
	rng := rand.New(rand.NewSource(7))
	sess := e.NewSwapSession(a)
	sess.memoTotal = nil
	var ks, ls, totals [SwapLanes]int
	b.ReportAllocs()
	b.ResetTimer()
	for t := 0; t < b.N; t += SwapLanes {
		for l := 0; l < SwapLanes; l++ {
			ks[l], ls[l] = RandSwapPair(rng, k)
		}
		sess.TrySwapBatch(&ks, &ls, &totals)
		refineBenchSink += totals[0] + totals[SwapLanes-1]
	}
}

// largeColdInstance is the large-cold workload's shape: an np=2000 random
// DAG (edge factor 3, sizes [1,20], weights [1,5]) on mesh-8x16 under
// random clustering, with a random incumbent.
func largeColdInstance(tb testing.TB) (*Evaluator, *Assignment) {
	tb.Helper()
	const np = 2000
	rng := rand.New(rand.NewSource(1991))
	p, err := gen.Random(gen.RandomConfig{
		Tasks: np, EdgeProb: 3.0 / np, MinTaskSize: 1, MaxTaskSize: 20,
		MinEdgeWeight: 1, MaxEdgeWeight: 5, Connected: true,
	}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	sys := topology.Mesh(8, 16)
	c, err := (&cluster.Random{Rand: rng}).Cluster(p, sys.NumNodes())
	if err != nil {
		tb.Fatal(err)
	}
	e, err := NewEvaluator(p, c, paths.New(sys))
	if err != nil {
		tb.Fatal(err)
	}
	return e, FromPerm(rng.Perm(sys.NumNodes()))
}

// pipelines builds a narrow-cone instance: independent chains of `stages`
// tasks, every task dealt to a random one of k clusters.
func pipelines(chains, stages, k int, rng *rand.Rand) (*graph.Problem, *graph.Clustering) {
	n := chains * stages
	p := graph.NewProblem(n)
	c := graph.NewClustering(n, k)
	for i, t := range rng.Perm(n) {
		c.Of[t] = i % k
	}
	for t := 0; t < n; t++ {
		p.Size[t] = 1 + rng.Intn(20)
		if t%stages > 0 {
			p.SetEdge(t-1, t, 1+rng.Intn(5))
		}
	}
	return p, c
}

// refineMachines are the five Table 1–3 style machines BENCH_refine.json
// was recorded on, in its order.
func refineMachines() []*graph.System {
	return []*graph.System{
		topology.Hypercube(4), topology.Hypercube(5),
		topology.Mesh(4, 4), topology.Mesh(5, 8), random24(),
	}
}

// random24 is the Table 3 style sparse random machine, ns=24.
func random24() *graph.System {
	return topology.Random(24, 0.08, rand.New(rand.NewSource(1991+100)))
}

// BenchmarkRefineTotalTime is the scalar fast path: one full evaluation,
// no allocation, reusing the evaluator's scratch arena.
func BenchmarkRefineTotalTime(b *testing.B) {
	e, a := benchInstance(b, topology.Mesh(5, 8), 1991)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refineBenchSink += e.TotalTime(a)
	}
}

// BenchmarkRefineEvaluateInto prices the warm EvaluateInto path that
// service callers use to rescore full schedules without allocating.
func BenchmarkRefineEvaluateInto(b *testing.B) {
	e, a := benchInstance(b, topology.Mesh(5, 8), 1991)
	var res Result
	e.EvaluateInto(a, &res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EvaluateInto(a, &res)
		refineBenchSink += res.TotalTime
	}
}
