package search

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/paths"
	"mimdmap/internal/schedule"
	"mimdmap/internal/topology"
)

// instance builds a Table 1–3 style workload and a random start assignment.
func instance(tb testing.TB, sys *graph.System, seed int64) (*schedule.Evaluator, *schedule.Assignment) {
	tb.Helper()
	ns := sys.NumNodes()
	prob, clus, err := gen.TableInstance(ns, seed)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := schedule.NewEvaluator(prob, clus, paths.New(sys))
	if err != nil {
		tb.Fatal(err)
	}
	return e, schedule.FromPerm(rand.New(rand.NewSource(seed)).Perm(ns))
}

func TestRegistryNames(t *testing.T) {
	names := RefinerNames()
	want := []string{"anneal", "bokhari", "full-reshuffle", "paper", "pairwise", "portfolio"}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("registry misses %q (has %v)", w, names)
		}
	}
	for _, n := range names {
		r, err := RefinerByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if r.Name() != n {
			t.Fatalf("refiner %q reports name %q", n, r.Name())
		}
	}
	if _, err := RefinerByName("no-such-strategy"); err == nil {
		t.Fatal("unknown refiner accepted")
	}
	if err := RegisterRefiner("paper", func() Refiner { return Paper{} }); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := RegisterRefiner("", func() Refiner { return Paper{} }); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := RegisterRefiner("nil-factory", nil); err == nil {
		t.Fatal("nil factory accepted")
	}
}

// refPaper is the scalar trial-at-a-time reference of the §4.3.3
// random-change refinement — the loop core.Mapper ran before the batch
// kernel existed. The paper refiner must match it bit for bit: same
// assignment, same totals, same trial counts, same random stream.
func refPaper(ev *schedule.Evaluator, a *schedule.Assignment, free []int, budget, bound int, rng *rand.Rand) (trials, improved, total int) {
	total = ev.TotalTime(a)
	for trials < budget {
		i, j := schedule.RandSwapPair(rng, len(free))
		k, l := free[i], free[j]
		a.Swap(k, l)
		tt := ev.TotalTime(a)
		trials++
		if tt == bound {
			improved++
			total = tt
			return
		}
		if tt < total {
			improved++
			total = tt
		} else {
			a.Swap(k, l)
		}
	}
	return
}

func TestPaperMatchesScalarReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 1991} {
		for _, budget := range []int{1, 5, 8, 23, 200} {
			ev, start := instance(t, topology.Mesh(4, 4), seed)
			free := []int{0, 2, 3, 5, 7, 8, 10, 11, 13, 14, 15} // pin a few clusters
			bound := 1                                          // unreachable: no early exit

			refA := start.Clone()
			refRng := rand.New(rand.NewSource(seed * 31))
			refTrials, refImproved, refTotal := refPaper(ev.Fork(), refA, free, budget, bound, refRng)

			rng := rand.New(rand.NewSource(seed * 31))
			sess := ev.NewSwapSession(start)
			tr := Paper{}.Refine(context.Background(), sess, Budget{Trials: budget, Free: free, LowerBound: bound}, rng)

			if tr.Trials != refTrials || tr.Improved != refImproved || tr.Final != refTotal {
				t.Fatalf("seed %d budget %d: trace {%d %d %d}, reference {%d %d %d}",
					seed, budget, tr.Trials, tr.Improved, tr.Final, refTrials, refImproved, refTotal)
			}
			for k, p := range sess.ProcOf() {
				if refA.ProcOf[k] != p {
					t.Fatalf("seed %d budget %d: assignment diverges at cluster %d", seed, budget, k)
				}
			}
			if got, want := rng.Int63(), refRng.Int63(); got != want {
				t.Fatalf("seed %d budget %d: random streams diverged after refinement", seed, budget)
			}
			if sess.TotalTime() != tr.Final {
				t.Fatalf("session total %d != trace final %d", sess.TotalTime(), tr.Final)
			}
		}
	}
}

// refReshuffle mirrors the pre-seam FullReshuffle loop.
func refReshuffle(ev *schedule.Evaluator, a *schedule.Assignment, free, procs []int, budget, bound int, rng *rand.Rand) (trials, improved, total int) {
	current := a
	trial := a.Clone()
	perm := make([]int, len(procs))
	total = ev.TotalTime(a)
	for t := 0; t < budget; t++ {
		trials++
		schedule.RandPermInto(rng, perm)
		for i, k := range free {
			trial.ProcOf[k] = procs[perm[i]]
		}
		tt := ev.TotalTime(trial)
		if tt == bound {
			improved++
			total = tt
			copy(a.ProcOf, trial.ProcOf)
			return
		}
		if tt < total {
			improved++
			total = tt
			current, trial = trial, current
		}
		copy(trial.ProcOf, current.ProcOf)
	}
	copy(a.ProcOf, current.ProcOf)
	return
}

func TestFullReshuffleMatchesScalarReference(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		for _, budget := range []int{1, 16, 120} {
			ev, start := instance(t, topology.Hypercube(4), seed)
			free := []int{1, 2, 4, 6, 9, 11, 12, 14}
			procs := make([]int, len(free))
			for i, k := range free {
				procs[i] = start.ProcOf[k]
			}
			refA := start.Clone()
			refRng := rand.New(rand.NewSource(seed))
			refTrials, refImproved, refTotal := refReshuffle(ev.Fork(), refA, free, procs, budget, 1, refRng)

			rng := rand.New(rand.NewSource(seed))
			sess := ev.NewSwapSession(start)
			tr := FullReshuffle{}.Refine(context.Background(), sess, Budget{Trials: budget, Free: free, FreeProcs: procs, LowerBound: 1}, rng)

			if tr.Trials != refTrials || tr.Improved != refImproved || tr.Final != refTotal {
				t.Fatalf("seed %d budget %d: trace {%d %d %d}, reference {%d %d %d}",
					seed, budget, tr.Trials, tr.Improved, tr.Final, refTrials, refImproved, refTotal)
			}
			for k, p := range sess.ProcOf() {
				if refA.ProcOf[k] != p {
					t.Fatalf("seed %d budget %d: assignment diverges at cluster %d", seed, budget, k)
				}
			}
			if got, want := rng.Int63(), refRng.Int63(); got != want {
				t.Fatal("random streams diverged")
			}
		}
	}
}

// refPairwise is the scalar steepest-descent loop total-time pairwise
// exchange ran on before it moved onto the batch kernel: sweep every pair
// of free clusters in order, commit the first strictly best exchange, and
// stop at a local optimum or after maxRounds sweeps (0 means unlimited).
// Pinned clusters never move because only free pairs are tried.
func refPairwise(ev *schedule.Evaluator, a *schedule.Assignment, free []int, maxRounds int) (trials, improved, total int) {
	total = ev.TotalTime(a)
	for round := 0; maxRounds <= 0 || round < maxRounds; round++ {
		bestK, bestL, bestT := -1, -1, total
		for i := 0; i < len(free); i++ {
			for j := i + 1; j < len(free); j++ {
				k, l := free[i], free[j]
				a.Swap(k, l)
				trials++
				if tt := ev.TotalTime(a); tt < bestT {
					bestK, bestL, bestT = k, l, tt
				}
				a.Swap(k, l)
			}
		}
		if bestK == -1 {
			break // local optimum
		}
		a.Swap(bestK, bestL)
		improved++
		total = bestT
	}
	return
}

func TestPairwiseMatchesScalarReference(t *testing.T) {
	systems := []struct {
		name string
		sys  *graph.System
	}{
		{"mesh-4x4", topology.Mesh(4, 4)},
		{"hypercube-5", topology.Hypercube(5)},
	}
	for _, s := range systems {
		// Pin every third cluster; the rest may move.
		var free []int
		for k := 0; k < s.sys.NumNodes(); k++ {
			if k%3 != 1 {
				free = append(free, k)
			}
		}
		for _, seed := range []int64{1, 7, 1991} {
			for _, rounds := range []int{0, 1, 2} {
				ev, start := instance(t, s.sys, seed)
				refA := start.Clone()
				refTrials, refImproved, refTotal := refPairwise(ev.Fork(), refA, free, rounds)

				sess := ev.NewSwapSession(start)
				tr := Pairwise{MaxRounds: rounds}.Refine(context.Background(), sess,
					Budget{Trials: math.MaxInt, Free: free, LowerBound: 1}, rand.New(rand.NewSource(seed)))

				if tr.Trials != refTrials || tr.Improved != refImproved || tr.Final != refTotal {
					t.Fatalf("%s seed %d rounds %d: trace {%d %d %d}, reference {%d %d %d}",
						s.name, seed, rounds, tr.Trials, tr.Improved, tr.Final, refTrials, refImproved, refTotal)
				}
				for k, p := range sess.ProcOf() {
					if refA.ProcOf[k] != p {
						t.Fatalf("%s seed %d rounds %d: assignment diverges at cluster %d", s.name, seed, rounds, k)
					}
				}
			}
		}
	}
}

// TestRefinersContract runs every registered strategy through the common
// contract: never worsen the start, leave the session committed at Final,
// respect the trial budget, record trials when asked, and be deterministic
// given the generator seed.
func TestRefinersContract(t *testing.T) {
	for _, name := range RefinerNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func() (Trace, []int, int) {
				ev, start := instance(t, topology.Mesh(4, 4), 42)
				sess := ev.NewSwapSession(start)
				r, err := RefinerByName(name)
				if err != nil {
					t.Fatal(err)
				}
				tr := r.Refine(context.Background(), sess, Budget{
					Trials:       300,
					LowerBound:   1, // unreachable
					RecordTrials: true,
				}, rand.New(rand.NewSource(99)))
				procs := append([]int(nil), sess.ProcOf()...)
				return tr, procs, ev.Fork().TotalTime(schedule.FromPerm(procs))
			}
			tr, procs, evaluated := run()
			ev, start := instance(t, topology.Mesh(4, 4), 42)
			initial := ev.TotalTime(start)
			if tr.Final > initial {
				t.Fatalf("%s worsened the start: %d > %d", name, tr.Final, initial)
			}
			if evaluated != tr.Final {
				t.Fatalf("%s: committed assignment evaluates to %d, trace says %d", name, evaluated, tr.Final)
			}
			if tr.Trials > 300 {
				t.Fatalf("%s overspent the budget: %d trials", name, tr.Trials)
			}
			if len(tr.Totals) != tr.Trials {
				t.Fatalf("%s recorded %d totals for %d trials", name, len(tr.Totals), tr.Trials)
			}
			tr2, procs2, _ := run()
			if tr2.Final != tr.Final || tr2.Trials != tr.Trials || tr2.Improved != tr.Improved {
				t.Fatalf("%s not deterministic: {%d %d %d} vs {%d %d %d}",
					name, tr.Final, tr.Trials, tr.Improved, tr2.Final, tr2.Trials, tr2.Improved)
			}
			for i := range procs {
				if procs[i] != procs2[i] {
					t.Fatalf("%s not deterministic: assignments differ at cluster %d", name, i)
				}
			}
		})
	}
}

// TestRefinersTerminateAtBound pins the lower-bound early exit: on an
// instance whose bound is attainable, every strategy that reaches it must
// stop and report AtBound with the session committed on a bound-meeting
// assignment, also while every trial's total is recorded.
func TestRefinersTerminateAtBound(t *testing.T) {
	// A chain problem on a chain machine: identity placement meets the
	// bound, and any start is a few swaps away from it.
	prob := graph.NewProblem(6)
	for i := range prob.Size {
		prob.Size[i] = 2
	}
	for i := 0; i < 5; i++ {
		prob.SetEdge(i, i+1, 1)
	}
	clus := graph.NewClustering(6, 6)
	for i := range clus.Of {
		clus.Of[i] = i
	}
	ev, err := schedule.NewEvaluator(prob, clus, paths.New(topology.Chain(6)))
	if err != nil {
		t.Fatal(err)
	}
	bound := ev.TotalTime(schedule.FromPerm([]int{0, 1, 2, 3, 4, 5}))
	for _, name := range RefinerNames() {
		r, err := RefinerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		// With totals recorded, every trial leaves one total, and a run
		// ending at the bound ends on the improving trial that reached it.
		for _, record := range []bool{false, true} {
			found := false
			for seed := int64(1); seed <= 20; seed++ {
				start := schedule.FromPerm(rand.New(rand.NewSource(seed)).Perm(6))
				sess := ev.NewSwapSession(start)
				b := Budget{Trials: 5000, LowerBound: bound, RecordTrials: record}
				tr := r.Refine(context.Background(), sess, b, rand.New(rand.NewSource(seed)))
				if record && len(tr.Totals) != tr.Trials {
					t.Fatalf("%s seed %d: recorded %d totals for %d trials", name, seed, len(tr.Totals), tr.Trials)
				}
				if !tr.AtBound {
					continue
				}
				found = true
				if tr.Final != bound || sess.TotalTime() != bound {
					t.Fatalf("%s seed %d: AtBound with final %d, session %d, bound %d", name, seed, tr.Final, sess.TotalTime(), bound)
				}
				if record && (tr.Totals[len(tr.Totals)-1] != bound || tr.Improved < 1) {
					t.Fatalf("%s seed %d: AtBound with last total %d (bound %d) and %d improving trials",
						name, seed, tr.Totals[len(tr.Totals)-1], bound, tr.Improved)
				}
			}
			if !found {
				t.Fatalf("%s (record %v) never reached the attainable bound %d in 20 seeded runs", name, record, bound)
			}
		}
	}
}

// TestRefinersCancellation: a cancelled context stops every strategy
// immediately, leaving a valid committed incumbent.
func TestRefinersCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range RefinerNames() {
		r, err := RefinerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ev, start := instance(t, topology.Mesh(4, 4), 5)
		want := ev.TotalTime(start)
		sess := ev.NewSwapSession(start)
		tr := r.Refine(ctx, sess, Budget{Trials: 1 << 20, LowerBound: 1}, rand.New(rand.NewSource(1)))
		if tr.Final != want || sess.TotalTime() != want {
			t.Fatalf("%s refined under a cancelled context (final %d, want %d)", name, tr.Final, want)
		}
	}
}

// TestRefinersAllocationFlat pins the acceptance criterion that every
// registered strategy runs its trials through the batched session without
// per-trial allocation: a 32× larger budget must not allocate more, beyond
// a small fixed slack for round-sliced strategies. The portfolio runs a
// budget-capped number of rounds (at most defaultPortfolioRounds), and each
// round's arm may set up its waived per-run scratch — overhead that is
// bounded by the round cap, not the trial count, so the slack stays far
// below the thousands of allocations a per-trial leak would add here.
func TestRefinersAllocationFlat(t *testing.T) {
	ev, start := instance(t, topology.Mesh(4, 4), 11)
	measure := func(name string, budget int) float64 {
		r, err := RefinerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sess := ev.NewSwapSession(start)
		rng := rand.New(rand.NewSource(3))
		b := Budget{Trials: budget, LowerBound: 1, DisableTermination: true}
		return testing.AllocsPerRun(5, func() {
			r.Refine(context.Background(), sess, b, rng)
		})
	}
	const roundSlack = 4 * defaultPortfolioRounds
	for _, name := range RefinerNames() {
		small := measure(name, 64)
		large := measure(name, 64*32)
		if large > small+roundSlack {
			t.Errorf("%s: allocations scale with the trial budget (%v at 64 trials, %v at %d)",
				name, small, large, 64*32)
		}
	}
}
