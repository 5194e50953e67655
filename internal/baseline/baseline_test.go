package baseline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mimdmap/internal/graph"
	"mimdmap/internal/ideal"
	"mimdmap/internal/paths"
	"mimdmap/internal/schedule"
	"mimdmap/internal/topology"
)

// cardInstance is the cardinality counterexample: unit tasks on a 4-cycle
// DAG with a heavy chord, mapped to a 4-ring (see internal/experiment).
func cardInstance(t *testing.T) *schedule.Evaluator {
	t.Helper()
	p := graph.NewProblem(4)
	for i := range p.Size {
		p.Size[i] = 1
	}
	p.SetEdge(0, 1, 1)
	p.SetEdge(1, 2, 1)
	p.SetEdge(2, 3, 1)
	p.SetEdge(0, 3, 1)
	p.SetEdge(0, 2, 4)
	c := graph.NewClustering(4, 4)
	c.Of = []int{0, 1, 2, 3}
	e, err := schedule.NewEvaluator(p, c, paths.New(topology.Ring(4)))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randomInstance(rng *rand.Rand, maxN int) (*schedule.Evaluator, int) {
	n := 4 + rng.Intn(maxN-3)
	p := graph.NewProblem(n)
	for i := range p.Size {
		p.Size[i] = 1 + rng.Intn(8)
	}
	perm := rng.Perm(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < 0.3 {
				p.SetEdge(perm[a], perm[b], 1+rng.Intn(5))
			}
		}
	}
	k := 2 + rng.Intn(n-1)
	c := graph.NewClustering(n, k)
	dealt := rng.Perm(n)
	for i, task := range dealt {
		if i < k {
			c.Of[task] = i
		} else {
			c.Of[task] = rng.Intn(k)
		}
	}
	sys := topology.Random(k, 0.2, rng)
	e, err := schedule.NewEvaluator(p, c, paths.New(sys))
	if err != nil {
		panic(err)
	}
	g, err := ideal.Derive(p, c)
	if err != nil {
		panic(err)
	}
	return e, g.LowerBound
}

func TestRandomAssignmentIsBijection(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(20)
		return RandomAssignment(k, rng).Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomMappingMeanAndBest(t *testing.T) {
	e := cardInstance(t)
	rng := rand.New(rand.NewSource(5))
	mean, best, bestTime := RandomMapping(e, 50, rng)
	if best == nil {
		t.Fatal("no best assignment returned")
	}
	if float64(bestTime) > mean {
		t.Fatalf("best %d above mean %.1f", bestTime, mean)
	}
	if got := e.TotalTime(best); got != bestTime {
		t.Fatalf("best time %d but evaluates to %d", bestTime, got)
	}
	// 50 trials over 24 permutations: the optimum (8) must be found.
	if bestTime != 8 {
		t.Fatalf("bestTime = %d, want 8", bestTime)
	}
}

func TestRandomMappingPanicsOnZeroTrials(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero trials")
		}
	}()
	RandomMapping(cardInstance(t), 0, rand.New(rand.NewSource(1)))
}

func TestPairwiseExchangeDescends(t *testing.T) {
	e := cardInstance(t)
	start := schedule.FromPerm([]int{3, 1, 0, 2})
	got := start.Clone()
	cost := descend(got, e.TotalTime)
	if cost > e.TotalTime(start) {
		t.Fatalf("exchange worsened: %d > %d", cost, e.TotalTime(start))
	}
	if e.TotalTime(got) != cost {
		t.Fatal("returned cost does not match the assignment left in place")
	}
	// 4-cluster instance: steepest descent must reach the global optimum 8
	// from any start (the landscape is tiny).
	if cost != 8 {
		t.Fatalf("cost = %d, want 8", cost)
	}
	// From a local optimum, descend changes nothing.
	at := got.Clone()
	if again := descend(got, e.TotalTime); again != cost || !got.Equal(at) {
		t.Fatalf("descend from its own optimum moved to %v at %d, want %v at %d", got.ProcOf, again, at.ProcOf, cost)
	}
}

func TestMaxCardinalityFindsForcedStretch(t *testing.T) {
	e := cardInstance(t)
	a, card := MaxCardinality(e, 6, rand.New(rand.NewSource(2)))
	// The instance's maximum cardinality is 4 (see experiment package).
	if card != 4 {
		t.Fatalf("cardinality = %d, want 4", card)
	}
	if e.Cardinality(a) != 4 {
		t.Fatal("returned assignment does not achieve reported cardinality")
	}
	// Every cardinality-4 assignment stretches the heavy edge 0→2,
	// so its total time must exceed the optimum of 8.
	if e.TotalTime(a) <= 8 {
		t.Fatalf("max-cardinality assignment too fast: %d", e.TotalTime(a))
	}
}

func TestSearchersNeverBeatLowerBoundProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, bound := randomInstance(rng, 16)
		if _, total := AnnealTotalTime(e, AnnealOptions{Steps: 200}, rng); total < bound {
			return false
		}
		mean, _, best := RandomMapping(e, 5, rng)
		return best >= bound && mean >= float64(bound)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	e := cardInstance(t)
	a1, c1 := MaxCardinality(e, 3, rand.New(rand.NewSource(9)))
	a2, c2 := MaxCardinality(e, 3, rand.New(rand.NewSource(9)))
	if c1 != c2 || !a1.Equal(a2) {
		t.Fatal("MaxCardinality not deterministic")
	}
	b1, t1 := AnnealTotalTime(e, AnnealOptions{}, rand.New(rand.NewSource(9)))
	b2, t2 := AnnealTotalTime(e, AnnealOptions{}, rand.New(rand.NewSource(9)))
	if t1 != t2 || !b1.Equal(b2) {
		t.Fatal("Anneal not deterministic")
	}
}
