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

var refineBenchSink int

// BenchmarkSwapKernel measures what a priced trial costs in the batch
// kernel: batches of random pairs of a fixed incumbent, each batch one
// evaluation pass, as the refinement loop prices them, on each of
// benchShapes' shapes. b.N counts trials.
func BenchmarkSwapKernel(b *testing.B) {
	benchShapes(b, func(b *testing.B, sess *SwapSession, rng *rand.Rand, k int) {
		var ks, ls, totals [SwapLanes]int
		for t := 0; t < b.N; t += SwapLanes {
			for l := 0; l < SwapLanes; l++ {
				ks[l], ls[l] = RandSwapPair(rng, k)
			}
			sess.TrySwapBatch(&ks, &ls, &totals)
			refineBenchSink += totals[0] + totals[SwapLanes-1]
		}
	})
}

// BenchmarkSwapScalar is BenchmarkSwapKernel's scalar companion: the same
// random pairs on the same shapes, one TrySwap pass per trial. The ratio of
// a batch (SwapLanes trials of BenchmarkSwapKernel) to one scalar trial is
// the cost basis of the trial queue's choice between them.
func BenchmarkSwapScalar(b *testing.B) {
	benchShapes(b, func(b *testing.B, sess *SwapSession, rng *rand.Rand, k int) {
		for t := 0; t < b.N; t++ {
			refineBenchSink += sess.TrySwap(RandSwapPair(rng, k))
		}
	})
}

// benchShapes runs price on a fresh session of each of the swap
// benchmarks' shapes: the five refine machines, the large-cold shape
// (np=2000 random DAG on mesh-8x16 under random clustering) and a narrow
// one, 256 independent 4-task pipelines on mesh-8x16, whose swaps each
// touch only a few chains. price draws its pairs from rng over the k
// clusters.
func benchShapes(b *testing.B, price func(b *testing.B, sess *SwapSession, rng *rand.Rand, k int)) {
	run := func(name string, build func(testing.TB) (*Evaluator, *Assignment)) {
		b.Run(name, func(b *testing.B) {
			e, a := build(b)
			sess := e.NewSwapSession(a)
			rng := rand.New(rand.NewSource(7))
			b.ReportAllocs()
			b.ResetTimer()
			price(b, sess, rng, a.K())
		})
	}
	for _, sys := range refineMachines() {
		run(sys.Name, func(tb testing.TB) (*Evaluator, *Assignment) { return benchInstance(tb, sys, 1991) })
	}
	run("large-cold", largeColdInstance)
	run("pipelines", func(tb testing.TB) (*Evaluator, *Assignment) {
		rng := rand.New(rand.NewSource(1991))
		sys := topology.Mesh(8, 16)
		p, c := pipelines(256, 4, sys.NumNodes(), rng)
		e, err := NewEvaluator(p, c, paths.New(sys))
		if err != nil {
			tb.Fatal(err)
		}
		return e, FromPerm(rng.Perm(sys.NumNodes()))
	})
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
