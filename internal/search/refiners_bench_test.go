package search

import (
	"context"
	"math/rand"
	"testing"

	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/paths"
	"mimdmap/internal/schedule"
	"mimdmap/internal/topology"
)

// BenchmarkRefiners times every registered refiner on the batched
// SwapSession kernel, one sub-benchmark per <workload>/<refiner>. b.N
// counts trials. Workloads are gen.TableInstance(ns, 1991+ns*7919), the
// instances BENCH_search.json was recorded on. A refiner that converges
// before b.N trials (pairwise local optima, annealing freeze-out) gets a
// fresh random incumbent with the timer stopped, so the rate reflects
// steady-state searching rather than one descent.
func BenchmarkRefiners(b *testing.B) {
	const seed = 1991
	workloads := []struct {
		name string
		sys  *graph.System
	}{
		{"table1/hypercube-32", topology.Hypercube(5)},
		{"table2/mesh-4x4", topology.Mesh(4, 4)},
		{"table3/random-24", topology.Random(24, 0.08, rand.New(rand.NewSource(seed+100)))},
	}
	for _, wl := range workloads {
		ns := wl.sys.NumNodes()
		prob, clus, err := gen.TableInstance(ns, seed+int64(ns)*7919)
		if err != nil {
			b.Fatal(err)
		}
		e, err := schedule.NewEvaluator(prob, clus, paths.New(wl.sys))
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range RefinerNames() {
			b.Run(wl.name+"/"+name, func(b *testing.B) {
				r, err := RefinerByName(name)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				sess := e.NewSwapSession(schedule.FromPerm(rng.Perm(clus.K)))
				perm := make([]int, clus.K)
				budget := Budget{DisableTermination: true}
				b.ResetTimer()
				for trials := 0; trials < b.N; {
					budget.Trials = b.N - trials
					tr := r.Refine(context.Background(), sess, budget, rng)
					if tr.Trials == 0 {
						b.Fatalf("%s spent no trials with budget %d", name, budget.Trials)
					}
					trials += tr.Trials
					if trials < b.N {
						b.StopTimer()
						schedule.RandPermInto(rng, perm)
						sess.CommitAssign(perm, sess.TryAssign(perm))
						b.StartTimer()
					}
				}
			})
		}
	}
}
