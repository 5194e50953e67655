package baseline

import (
	"math/rand"
	"testing"

	"mimdmap/internal/gen"
	"mimdmap/internal/paths"
	"mimdmap/internal/schedule"
	"mimdmap/internal/topology"
)

// These tests pin the steady-state allocation contract of the baseline
// trial loops, matching the internal/schedule AllocsPerRun tests: buffers
// are hoisted out of the loops, so spending a much larger trial budget must
// not allocate more.

func allocInstance(t *testing.T) *schedule.Evaluator {
	t.Helper()
	sys := topology.Mesh(4, 4)
	prob, clus, err := gen.TableInstance(sys.NumNodes(), 7)
	if err != nil {
		t.Fatal(err)
	}
	e, err := schedule.NewEvaluator(prob, clus, paths.New(sys))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestRandomMappingAllocationFlat: the trial loop reuses one trial buffer
// and one best buffer, so 64× more trials allocate nothing extra.
func TestRandomMappingAllocationFlat(t *testing.T) {
	e := allocInstance(t)
	measure := func(trials int) float64 {
		rng := rand.New(rand.NewSource(3))
		return testing.AllocsPerRun(5, func() {
			RandomMapping(e, trials, rng)
		})
	}
	small, large := measure(8), measure(8*64)
	if large > small {
		t.Fatalf("RandomMapping allocations scale with trials: %v at 8, %v at %d", small, large, 8*64)
	}
	if small > 6 {
		t.Fatalf("RandomMapping allocates %v objects per call, want a handful of fixed buffers", small)
	}
}

// TestPairwiseExchangeAllocationFlat: descend works in place, so with an
// allocation-free objective neither a single sweep from a local optimum nor
// a long descent allocates at all.
func TestPairwiseExchangeAllocationFlat(t *testing.T) {
	e := allocInstance(t)
	start := schedule.FromPerm(rand.New(rand.NewSource(9)).Perm(16))
	obj := e.TotalTime
	optimum := start.Clone()
	descend(optimum, obj)
	cur := start.Clone()
	measure := func(from *schedule.Assignment) float64 {
		return testing.AllocsPerRun(5, func() {
			copy(cur.ProcOf, from.ProcOf)
			descend(cur, obj)
		})
	}
	oneSweep, descent := measure(optimum), measure(start)
	if oneSweep != 0 || descent != 0 {
		t.Fatalf("descend allocates %v objects for one sweep and %v for a full descent, want 0", oneSweep, descent)
	}
}

// TestBokhariAllocationFlat: the ascent and jumps reuse one working
// assignment; more jumps must not allocate more.
func TestBokhariAllocationFlat(t *testing.T) {
	e := allocInstance(t)
	measure := func(jumps int) float64 {
		rng := rand.New(rand.NewSource(13))
		return testing.AllocsPerRun(5, func() {
			Bokhari(e, BokhariOptions{Jumps: jumps}, rng)
		})
	}
	small, large := measure(2), measure(2*32)
	if large > small {
		t.Fatalf("Bokhari allocations scale with jumps: %v at 2, %v at %d", small, large, 2*32)
	}
}
