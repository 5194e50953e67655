package schedule

import (
	"math/rand"
	"testing"

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
