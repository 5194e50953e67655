package core

import (
	"context"
	"math/rand"
	"testing"

	"mimdmap/internal/cluster"
	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/topology"
)

// refinableInstance generates a random clustered instance on a mesh whose
// initial assignment does not already sit on the lower bound, so the
// refinement chains have real work to do.
func refinableInstance(t *testing.T, seed int64) (*graph.Problem, *graph.Clustering, *graph.System) {
	t.Helper()
	for ; ; seed += 101 {
		rng := rand.New(rand.NewSource(seed))
		sys := topology.Mesh(3, 4)
		ns := sys.NumNodes()
		prob, err := gen.Random(gen.RandomConfig{
			Tasks:         5 * ns,
			EdgeProb:      3.0 / float64(5*ns),
			MinTaskSize:   1,
			MaxTaskSize:   8,
			MinEdgeWeight: 1,
			MaxEdgeWeight: 6,
			Connected:     true,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		clus, err := (&cluster.Random{Rand: rng}).Cluster(prob, ns)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(prob, clus, sys, Options{MaxRefinements: -1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.OptimalProven {
			return prob, clus, sys
		}
	}
}

func TestRunParallelSingleStartEqualsRun(t *testing.T) {
	prob, clus, sys := refinableInstance(t, 7)
	for _, seed := range []int64{1, 2, 77} {
		m, err := New(prob, clus, sys, Options{Rand: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		par, err := MapParallel(context.Background(), prob, clus, sys, Options{
			Rand:   rand.New(rand.NewSource(seed)),
			Starts: 1,
			Seed:   999, // must be ignored for the single chain
		})
		if err != nil {
			t.Fatal(err)
		}
		if par.TotalTime != seq.TotalTime || par.Refinements != seq.Refinements ||
			par.Improved != seq.Improved || par.OptimalProven != seq.OptimalProven {
			t.Fatalf("seed %d: parallel (time %d, ref %d, imp %d, opt %v) != sequential (time %d, ref %d, imp %d, opt %v)",
				seed, par.TotalTime, par.Refinements, par.Improved, par.OptimalProven,
				seq.TotalTime, seq.Refinements, seq.Improved, seq.OptimalProven)
		}
		if !par.Assignment.Equal(seq.Assignment) {
			t.Fatalf("seed %d: assignments differ: %v vs %v", seed, par.Assignment.ProcOf, seq.Assignment.ProcOf)
		}
	}
}

func TestRunContextUncancelledEqualsRun(t *testing.T) {
	prob, clus, sys := refinableInstance(t, 13)
	m1, err := New(prob, clus, sys, Options{Rand: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m1.Run()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := New(prob, clus, sys, Options{Rand: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m2.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTime != b.TotalTime || !a.Assignment.Equal(b.Assignment) {
		t.Fatalf("RunContext(Background) diverged from Run: %d vs %d", b.TotalTime, a.TotalTime)
	}
}

func TestRunContextPreCancelledStopsAtInitialAssignment(t *testing.T) {
	prob, clus, sys := refinableInstance(t, 19)
	m, err := New(prob, clus, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := m.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refinements != 0 {
		t.Fatalf("Refinements = %d under a pre-cancelled context, want 0", res.Refinements)
	}
	if res.TotalTime != res.InitialTotalTime {
		t.Fatalf("TotalTime %d != InitialTotalTime %d", res.TotalTime, res.InitialTotalTime)
	}
	if err := res.Assignment.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRunParallelDeterministicWithoutTermination pins the strongest
// guarantee: with the termination condition off no chain can cancel
// another, so the entire multi-start result — winning chain included — is
// identical at every worker count.
func TestRunParallelDeterministicWithoutTermination(t *testing.T) {
	prob, clus, sys := refinableInstance(t, 23)
	run := func(workers int) *Result {
		res, err := MapParallel(context.Background(), prob, clus, sys, Options{
			Rand:               rand.New(rand.NewSource(5)),
			Starts:             6,
			Workers:            workers,
			Seed:               1991,
			DisableTermination: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if got.TotalTime != want.TotalTime || got.Chain != want.Chain {
			t.Fatalf("workers=%d: (time %d, chain %d) != workers=1 (time %d, chain %d)",
				workers, got.TotalTime, got.Chain, want.TotalTime, want.Chain)
		}
		if !got.Assignment.Equal(want.Assignment) {
			t.Fatalf("workers=%d: assignment differs from workers=1", workers)
		}
	}
}

// TestRunParallelTotalTimeDeterministic covers the default mode: early
// cancellation removes only chains that could not win, so the total time,
// the optimality verdict, the winning chain and its assignment match the
// sequential run at every worker count.
func TestRunParallelTotalTimeDeterministic(t *testing.T) {
	prob, clus, sys := refinableInstance(t, 29)
	run := func(workers int) *Result {
		res, err := MapParallel(context.Background(), prob, clus, sys, Options{
			Rand:    rand.New(rand.NewSource(5)),
			Starts:  8,
			Workers: workers,
			Seed:    7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	for _, workers := range []int{4, 8} {
		got := run(workers)
		if got.TotalTime != want.TotalTime || got.OptimalProven != want.OptimalProven || got.Chain != want.Chain {
			t.Fatalf("workers=%d: (time %d, opt %v, chain %d) != workers=1 (time %d, opt %v, chain %d)",
				workers, got.TotalTime, got.OptimalProven, got.Chain, want.TotalTime, want.OptimalProven, want.Chain)
		}
		if !got.Assignment.Equal(want.Assignment) {
			t.Fatalf("workers=%d: assignment differs from workers=1", workers)
		}
	}
}

func TestRunParallelNeverWorseThanSequential(t *testing.T) {
	prob, clus, sys := refinableInstance(t, 31)
	m, err := New(prob, clus, sys, Options{Rand: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	par, err := MapParallel(context.Background(), prob, clus, sys, Options{
		Rand:   rand.New(rand.NewSource(9)),
		Starts: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if par.TotalTime > seq.TotalTime {
		t.Fatalf("multi-start time %d worse than its own chain 0 at %d", par.TotalTime, seq.TotalTime)
	}
	if par.TotalTime < par.LowerBound {
		t.Fatalf("total time %d below the lower bound %d", par.TotalTime, par.LowerBound)
	}
	if err := par.Assignment.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRunParallelOptimalChainCancelsOthers finds an instance whose
// sequential refinement reaches the lower bound, then checks that the
// multi-start run returns a provably optimal result too — the early-cancel
// path cannot lose the optimum, whichever chain gets there first — and
// that the sequential run's winner wins at every worker count.
func TestRunParallelOptimalChainCancelsOthers(t *testing.T) {
	// Light communication keeps the bound attainable; search a few seeds
	// for a case where refinement (not the initial assignment) reaches it.
	for seed := int64(1); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys := topology.Mesh(2, 3)
		ns := sys.NumNodes()
		prob, err := gen.Random(gen.RandomConfig{
			Tasks:         4 * ns,
			EdgeProb:      3.0 / float64(4*ns),
			MinTaskSize:   2,
			MaxTaskSize:   20,
			MinEdgeWeight: 1,
			MaxEdgeWeight: 2,
			Connected:     true,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		clus, err := (&cluster.Random{Rand: rng}).Cluster(prob, ns)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(prob, clus, sys, Options{Rand: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !seq.OptimalProven || seq.Refinements == 0 {
			continue // want the bound reached by refinement specifically
		}
		run := func(workers int) *Result {
			par, err := MapParallel(context.Background(), prob, clus, sys, Options{
				Rand:    rand.New(rand.NewSource(seed)),
				Starts:  6,
				Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			return par
		}
		want := run(1)
		for round := 0; round < 40; round++ {
			par := run(2 + round%3)
			if !par.OptimalProven || par.TotalTime != par.LowerBound {
				t.Fatalf("seed %d: multi-start lost a provable optimum: time %d, bound %d, proven %v",
					seed, par.TotalTime, par.LowerBound, par.OptimalProven)
			}
			if err := par.Assignment.Validate(); err != nil {
				t.Fatal(err)
			}
			if par.Chain != want.Chain || !par.Assignment.Equal(want.Assignment) {
				t.Fatalf("seed %d round %d: optimal chain %d won, the sequential run picks chain %d", seed, round, par.Chain, want.Chain)
			}
		}
		return
	}
	t.Fatal("no seed produced a refinement-reached optimum; generator drifted?")
}

func TestRunParallelPreCancelledReturnsInitialAssignment(t *testing.T) {
	prob, clus, sys := refinableInstance(t, 37)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := MapParallel(ctx, prob, clus, sys, Options{Starts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime != res.InitialTotalTime {
		t.Fatalf("TotalTime %d != InitialTotalTime %d under cancelled context", res.TotalTime, res.InitialTotalTime)
	}
	if err := res.Assignment.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMapParallelValidatesInputs(t *testing.T) {
	prob, clus, sys := refinableInstance(t, 41)
	bad := topology.Ring(sys.NumNodes() + 1) // cluster count no longer matches
	if _, err := MapParallel(context.Background(), prob, clus, bad, Options{Starts: 4}); err == nil {
		t.Fatal("mismatched system size accepted")
	}
}

// TestRunParallelManyChainsUnderRace drives many concurrent chains over the
// shared evaluator and analysis state; meaningful mainly under -race.
func TestRunParallelManyChainsUnderRace(t *testing.T) {
	prob, clus, sys := refinableInstance(t, 43)
	res, err := MapParallel(context.Background(), prob, clus, sys, Options{
		Rand:    rand.New(rand.NewSource(11)),
		Starts:  16,
		Workers: 8,
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.TotalTime < res.LowerBound {
		t.Fatalf("total time %d below bound %d", res.TotalTime, res.LowerBound)
	}
}
