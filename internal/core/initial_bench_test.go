package core

import (
	"math/rand"
	"testing"

	"mimdmap/internal/cluster"
	"mimdmap/internal/critical"
	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/ideal"
	"mimdmap/internal/topology"
)

var placeBenchSink int

// largeColdInstance is the large-cold benchmark workload's shape: an
// np=2000 random DAG (edge factor 3, sizes [1,20], weights [1,5]) randomly
// clustered onto mesh-8x16, seed 1991.
func largeColdInstance(tb testing.TB) (*graph.Problem, *graph.Clustering, *graph.System) {
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
	return p, c, sys
}

// BenchmarkInitialAssignment times the §4.3.2 placement as a cold run
// performs it — build the abstract graph, then place every cluster — on
// the large-cold shape and a Table 2 shape (gen.TableInstance on
// mesh-5x8). The ideal graph and critical analysis it consumes are
// computed once, outside the timer.
func BenchmarkInitialAssignment(b *testing.B) {
	shapes := []struct {
		name  string
		build func(testing.TB) (*graph.Problem, *graph.Clustering, *graph.System)
	}{
		{"large-cold", largeColdInstance},
		{"mesh-5x8", func(tb testing.TB) (*graph.Problem, *graph.Clustering, *graph.System) {
			sys := topology.Mesh(5, 8)
			p, c, err := gen.TableInstance(sys.NumNodes(), 1991)
			if err != nil {
				tb.Fatal(err)
			}
			return p, c, sys
		}},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			p, c, sys := sh.build(b)
			m, err := New(p, c, sys, Options{})
			if err != nil {
				b.Fatal(err)
			}
			g, err := ideal.Derive(p, c)
			if err != nil {
				b.Fatal(err)
			}
			crit := critical.Analyze(p, c, g, critical.Paper)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				assign, _ := m.initialAssignment(crit, graph.BuildAbstract(p, c))
				placeBenchSink += assign.ProcOf[0]
			}
		})
	}
}
