package baseline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mimdmap/internal/graph"
	"mimdmap/internal/paths"
	"mimdmap/internal/schedule"
)

func TestAnnealFindsOptimumOnTinyInstance(t *testing.T) {
	e := cardInstance(t)
	_, total := AnnealTotalTime(e, AnnealOptions{Steps: 2000}, rand.New(rand.NewSource(6)))
	if total != 8 {
		t.Fatalf("annealed total = %d, want 8", total)
	}
}

func TestAnnealNeverWorseThanStart(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, _ := randomInstance(rng, 14)
		// AnnealTotalTime's first draw is its random start, so a generator
		// with the same seed reproduces that start.
		start := RandomAssignment(e.Clus.K, rand.New(rand.NewSource(seed)))
		best, cost := AnnealTotalTime(e, AnnealOptions{Steps: 300}, rand.New(rand.NewSource(seed)))
		if cost > e.TotalTime(start) {
			return false
		}
		return e.TotalTime(best) == cost
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAnnealSingleCluster(t *testing.T) {
	p := graph.NewProblem(2)
	p.Size = []int{3, 4}
	p.SetEdge(0, 1, 5)
	c := graph.NewClustering(2, 1)
	e, err := schedule.NewEvaluator(p, c, paths.New(graph.NewSystem(1)))
	if err != nil {
		t.Fatal(err)
	}
	best, cost := AnnealTotalTime(e, AnnealOptions{}, rand.New(rand.NewSource(1)))
	if cost != 7 || best.K() != 1 {
		t.Fatal("single-cluster annealing broken")
	}
}

func TestAnnealOptionsDefaults(t *testing.T) {
	var o AnnealOptions
	o.defaults(10)
	if o.Cooling != 0.995 || o.Steps != 2000 || o.MinTemp != 1e-3 {
		t.Fatalf("defaults = %+v", o)
	}
	// Explicit values survive.
	o = AnnealOptions{Cooling: 0.9, Steps: 5, MinTemp: 1}
	o.defaults(10)
	if o.Cooling != 0.9 || o.Steps != 5 || o.MinTemp != 1 {
		t.Fatalf("explicit options overwritten: %+v", o)
	}
}
