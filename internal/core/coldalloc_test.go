package core

import (
	"math/rand"
	"runtime"
	"testing"

	"mimdmap/internal/cluster"
	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/topology"
)

// TestColdLargeAllocation guards against the np×np set-up coming back: a
// cold New+Run of a fresh, unfrozen np=2000 problem on a 128-processor mesh
// must allocate O(np + edges + ns²), not the ~130 MB that dense clustered,
// ideal and critical edge matrices cost at this size.
func TestColdLargeAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("generates an np=2000 instance")
	}
	const np, limit = 2000, 8 << 20
	p, c, sys := largeColdInstance(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := New(p, c, sys, Options{Rand: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("cold New+Run at np=%d allocated %.2f MB", np, float64(got)/(1<<20))
	if got >= limit {
		t.Fatalf("cold New+Run at np=%d allocated %.1f MB, want < %d MB", np, float64(got)/(1<<20), limit>>20)
	}
}

// TestInitialAssignmentAllocation guards the §4.3.2 placement against
// per-node allocation: placing K = ns = 128 abstract nodes must allocate
// O(K + ns) words in total — a handful of per-solve vectors — not a fresh
// degree table or neighbour list for every placed node.
func TestInitialAssignmentAllocation(t *testing.T) {
	const np, runs = 1000, 20
	rng := rand.New(rand.NewSource(2003))
	p, err := gen.Random(gen.RandomConfig{
		Tasks: np, EdgeProb: 3.0 / np, MinTaskSize: 1, MaxTaskSize: 20,
		MinEdgeWeight: 1, MaxEdgeWeight: 5, Connected: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	sys := topology.Mesh(8, 16)
	c, err := (&cluster.Random{Rand: rng}).Cluster(p, sys.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p, c, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	crit := analyse(t, m)
	abs := graph.BuildAbstract(p, c)
	m.initialAssignment(crit, abs) // warm up

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		m.initialAssignment(crit, abs)
	}
	runtime.ReadMemStats(&after)
	words := (after.TotalAlloc - before.TotalAlloc) / runs / 8
	limit := uint64(16 * (c.K + sys.NumNodes()))
	t.Logf("initialAssignment at K = ns = %d allocated %d words per call", c.K, words)
	if words > limit {
		t.Fatalf("initialAssignment at K = ns = %d allocated %d words per call, want <= %d (16 per abstract and system node)", c.K, words, limit)
	}
}
