package schedule

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"mimdmap/internal/cluster"
	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/paths"
	"mimdmap/internal/topology"
)

// Delta-vs-full metamorphic tests: a delta-evaluating session, a session
// forced onto the full kernel, and the scalar evaluator must agree on the
// exact total of every trial of a random swap sequence, across every kind
// of commit the refiners perform — lane commits, blind scalar commits,
// wholesale CommitAssign — and across degenerate (identity, duplicate)
// lanes. The cached end times must stay byte-identical to a fresh rebuild.

// forceFullKernel routes every future TrySwap/TrySwapBatch of the session
// down the full evaluation pass by exhausting the cone budget.
func forceFullKernel(s *SwapSession) { s.coneBudget = -1 }

// deltaTestSystems are the machine shapes the walk runs on: regular,
// irregular, and tiny.
func deltaTestSystems(seed int64) []*graph.System {
	return []*graph.System{
		topology.Mesh(4, 4),
		topology.Hypercube(4),
		topology.Random(12, 0.3, rand.New(rand.NewSource(seed))),
		topology.Ring(5),
	}
}

// TestDeltaMatchesFullOverRandomSwapSequences is the delta oracle: over a
// long random walk of batched and scalar trials with interleaved commits,
// every total from the delta path must equal the forced-full path and the
// scalar evaluator, and the committed end-time cache must equal a fresh
// full evaluation of the incumbent after every commit.
func TestDeltaMatchesFullOverRandomSwapSequences(t *testing.T) {
	for _, sys := range deltaTestSystems(17) {
		for _, seed := range []int64{3, 1991} {
			e, a := benchInstance(t, sys, seed)
			k := a.K()
			rng := rand.New(rand.NewSource(seed + 7))
			delta := e.NewSwapSession(a)
			full := e.NewSwapSession(a)
			forceFullKernel(full)
			oracle := a.Clone()

			var ks, ls, dTotals, fTotals [SwapLanes]int
			perm := make([]int, k)
			for round := 0; round < 120; round++ {
				for l := 0; l < SwapLanes; l++ {
					ks[l], ls[l] = RandSwapPair(rng, k)
				}
				ks[2], ls[2] = ks[1], ls[1]       // duplicate lane
				ks[SwapLanes-1] = ls[SwapLanes-1] // identity lane
				delta.TrySwapBatch(&ks, &ls, &dTotals)
				full.TrySwapBatch(&ks, &ls, &fTotals)
				for l := 0; l < SwapLanes; l++ {
					oracle.Swap(ks[l], ls[l])
					want := e.TotalTime(oracle)
					oracle.Swap(ks[l], ls[l])
					if dTotals[l] != want {
						t.Fatalf("%s seed %d round %d lane %d: delta total %d, evaluator says %d", sys.Name, seed, round, l, dTotals[l], want)
					}
					if fTotals[l] != want {
						t.Fatalf("%s seed %d round %d lane %d: full total %d, evaluator says %d", sys.Name, seed, round, l, fTotals[l], want)
					}
				}
				// Scalar trials agree too, including the identity swap.
				si, sj := RandSwapPair(rng, k)
				if round%5 == 0 {
					sj = si
				}
				if dt, ft := delta.TrySwap(si, sj), full.TrySwap(si, sj); dt != ft {
					t.Fatalf("%s seed %d round %d: scalar TrySwap(%d,%d) delta %d, full %d", sys.Name, seed, round, si, sj, dt, ft)
				}

				// Commit something: a priced lane, a blind scalar trial, a
				// wholesale reassignment, or nothing.
				switch round % 4 {
				case 0:
					lane := round / 4 % SwapLanes
					delta.CommitSwap(ks[lane], ls[lane], dTotals[lane])
					full.CommitSwap(ks[lane], ls[lane], fTotals[lane])
					oracle.Swap(ks[lane], ls[lane])
				case 1:
					total := delta.TrySwap(si, sj)
					delta.CommitSwap(si, sj, total)
					full.CommitSwap(si, sj, total)
					oracle.Swap(si, sj)
				case 2:
					RandPermInto(rng, perm)
					total := delta.TryAssign(perm)
					delta.CommitAssign(perm, total)
					full.CommitAssign(perm, total)
					copy(oracle.ProcOf, perm)
				}
				if want := e.TotalTime(oracle); delta.TotalTime() != want || full.TotalTime() != want {
					t.Fatalf("%s seed %d round %d: committed totals delta %d full %d, evaluator says %d", sys.Name, seed, round, delta.TotalTime(), full.TotalTime(), want)
				}
				// The cached committed end times must mirror a fresh full
				// evaluation of the incumbent, with consistent maxima.
				checkCommittedCache(t, fmt.Sprintf("%s seed %d round %d", sys.Name, seed, round), delta, oracle.ProcOf)
				// The cone mask must always be fully unwound between trials.
				for i, m := range delta.mask {
					if m != 0 {
						t.Fatalf("%s seed %d round %d: mask[%d] = %b left set after the pass", sys.Name, seed, round, i, m)
					}
				}
			}
		}
	}
}

// TestDeltaFallbackAtEveryBudget sweeps the cone budget from "always fall
// back" to "never fall back": the totals of one fixed trial sequence must
// not depend on where the fallback threshold sits.
func TestDeltaFallbackAtEveryBudget(t *testing.T) {
	e, a := benchInstance(t, topology.Mesh(4, 4), 23)
	k := a.K()
	budgets := []int{-1, 0, 1, 4, 16, 64, 256, 1 << 30}
	sessions := make([]*SwapSession, len(budgets))
	for i, b := range budgets {
		sessions[i] = e.NewSwapSession(a)
		sessions[i].coneBudget = b
	}
	rng := rand.New(rand.NewSource(29))
	var ks, ls [SwapLanes]int
	totals := make([][SwapLanes]int, len(budgets))
	for round := 0; round < 80; round++ {
		for l := 0; l < SwapLanes; l++ {
			ks[l], ls[l] = RandSwapPair(rng, k)
		}
		for i, sess := range sessions {
			sess.TrySwapBatch(&ks, &ls, &totals[i])
		}
		for i := 1; i < len(sessions); i++ {
			if totals[i] != totals[0] {
				t.Fatalf("round %d: budget %d totals %v differ from budget %d totals %v", round, budgets[i], totals[i], budgets[0], totals[0])
			}
		}
		lane := round % SwapLanes
		for i, sess := range sessions {
			sess.CommitSwap(ks[lane], ls[lane], totals[i][lane])
		}
	}
}

// TestDeltaIdentityBatchPricesIncumbent pins the no-seed early exit: a
// batch of identity lanes prices the committed incumbent in every lane.
func TestDeltaIdentityBatchPricesIncumbent(t *testing.T) {
	e, a := benchInstance(t, topology.Hypercube(3), 11)
	sess := e.NewSwapSession(a)
	var ks, ls, totals [SwapLanes]int
	for l := 0; l < SwapLanes; l++ {
		ks[l], ls[l] = l%a.K(), l%a.K()
	}
	sess.TrySwapBatch(&ks, &ls, &totals)
	for l, got := range totals {
		if got != sess.TotalTime() {
			t.Fatalf("identity lane %d priced %d, incumbent total is %d", l, got, sess.TotalTime())
		}
	}
}

// TestLaneViewsSyncDegenerateLanes pins laneViews.sync's bookkeeping for
// degenerate draws: lanes with k == l, duplicate lanes, and repeated syncs
// after commitSwap must leave procT exactly mirroring the incumbent with
// each lane's swap applied — metamorphically checked against a freshly
// rebuilt view of the same incumbent.
func TestLaneViewsSyncDegenerateLanes(t *testing.T) {
	e, a := benchInstance(t, topology.Mesh(4, 4), 31)
	k := a.K()
	rng := rand.New(rand.NewSource(37))
	sess := e.NewSwapSession(a)
	var ks, ls [SwapLanes]int
	for round := 0; round < 50; round++ {
		switch round % 3 {
		case 0: // all-identity batch
			for l := 0; l < SwapLanes; l++ {
				ks[l], ls[l] = rng.Intn(k), 0
				ls[l] = ks[l]
			}
		case 1: // mixed identity / duplicate / real swaps
			for l := 0; l < SwapLanes; l++ {
				ks[l], ls[l] = RandSwapPair(rng, k)
			}
			ks[0] = ls[0]
			ks[3], ls[3] = ks[1], ls[1]
		default:
			for l := 0; l < SwapLanes; l++ {
				ks[l], ls[l] = RandSwapPair(rng, k)
			}
		}
		sess.lanes.sync(&ks, &ls)

		fresh := newLaneViews(sess.lanes.a)
		fresh.sync(&ks, &ls)
		for i, want := range fresh.procT {
			if sess.lanes.procT[i] != want {
				t.Fatalf("round %d: procT[%d] = %d after incremental sync, fresh rebuild says %d (lane %d, cluster %d)",
					round, i, sess.lanes.procT[i], want, i%SwapLanes, i/SwapLanes)
			}
		}
		// Sometimes commit (forcing the dirty full-refresh path next sync),
		// sometimes sync again immediately (exercising undo/redo).
		if round%2 == 0 {
			i, j := RandSwapPair(rng, k)
			if round%4 == 0 {
				j = i // degenerate commit: swap of a cluster with itself
			}
			sess.lanes.commitSwap(i, j)
		}
	}
}

// TestPricedPairMemoExactAcrossCommits pins the priced-pair table: a
// re-priced pair must return the stored exact total without re-evaluating,
// and any commit that changes the incumbent must invalidate the table so
// stale totals never leak across incumbents.
func TestPricedPairMemoExactAcrossCommits(t *testing.T) {
	e, a := benchInstance(t, topology.Mesh(4, 4), 41)
	k := a.K()
	sess := e.NewSwapSession(a)
	if sess.memoTotal == nil {
		t.Fatalf("memo disabled for K=%d, expected enabled below the bound", k)
	}
	oracle := a.Clone()
	price := func(i, j int) int {
		oracle.Swap(i, j)
		defer oracle.Swap(i, j)
		return e.TotalTime(oracle)
	}

	first := sess.TrySwap(1, 5)
	if want := price(1, 5); first != want {
		t.Fatalf("cold TrySwap(1,5) = %d, evaluator says %d", first, want)
	}
	// The memo hit must return the identical total, for both argument
	// orders (the table is keyed on the unordered pair).
	if again := sess.TrySwap(1, 5); again != first {
		t.Fatalf("memoised TrySwap(1,5) = %d, first priced %d", again, first)
	}
	if rev := sess.TrySwap(5, 1); rev != first {
		t.Fatalf("memoised TrySwap(5,1) = %d, first priced %d", rev, first)
	}

	// Committing an unrelated swap changes the schedule globally; the old
	// entry must not survive.
	accepted := sess.TrySwap(2, 9)
	sess.CommitSwap(2, 9, accepted)
	oracle.Swap(2, 9)
	if got, want := sess.TrySwap(1, 5), price(1, 5); got != want {
		t.Fatalf("post-commit TrySwap(1,5) = %d, evaluator says %d (stale memo?)", got, want)
	}

	// An identity commit leaves the incumbent untouched: memoised totals
	// stay valid (and correct).
	sess.CommitSwap(3, 3, sess.TotalTime())
	if got, want := sess.TrySwap(1, 5), price(1, 5); got != want {
		t.Fatalf("after identity commit TrySwap(1,5) = %d, evaluator says %d", got, want)
	}

	// A batch re-pricing only known pairs is served from the table and
	// must agree with the evaluator lane by lane.
	var ks, ls, totals [SwapLanes]int
	for lane := 0; lane < SwapLanes; lane++ {
		ks[lane], ls[lane] = 1, 5
	}
	ks[1], ls[1] = 5, 1
	sess.TrySwapBatch(&ks, &ls, &totals)
	for lane, got := range totals {
		if want := price(1, 5); got != want {
			t.Fatalf("memoised batch lane %d = %d, evaluator says %d", lane, got, want)
		}
	}
}

// policyRun drives one session through batches of random swaps, checking
// every total against a session forced onto the full kernel and
// committing a priced lane every few batches as a refiner would. After
// each batch it calls check with the session's kernel counters and the
// number of kernel-priced calls so far (batches served from the
// priced-pair table never reach a kernel).
func policyRun(t *testing.T, e *Evaluator, a *Assignment, batches int, seed int64, check func(st kernelStats, calls int)) kernelStats {
	t.Helper()
	k := a.K()
	sess := e.NewSwapSession(a)
	full := e.NewSwapSession(a)
	forceFullKernel(full)
	rng := rand.New(rand.NewSource(seed))
	var ks, ls, totals, want [SwapLanes]int
	for b := 0; b < batches; b++ {
		for l := 0; l < SwapLanes; l++ {
			ks[l], ls[l] = RandSwapPair(rng, k)
		}
		sess.TrySwapBatch(&ks, &ls, &totals)
		full.TrySwapBatch(&ks, &ls, &want)
		if totals != want {
			t.Fatalf("batch %d: totals %v, full kernel says %v", b, totals, want)
		}
		if b%4 == 0 {
			sess.CommitSwap(ks[0], ls[0], totals[0])
			full.CommitSwap(ks[0], ls[0], want[0])
		}
		st := sess.kernelStats
		check(st, st.deltaWalks-st.deltaBails+st.fullPasses)
	}
	return sess.kernelStats
}

// TestKernelPolicyBacksOffOnWideCones pins the back-off half of the kernel
// choice: on a random DAG under random clustering almost every eight-lane
// cone outgrows the budget, and the bails over N kernel calls must grow
// at most logarithmically in N instead of one per call.
func TestKernelPolicyBacksOffOnWideCones(t *testing.T) {
	rng := rand.New(rand.NewSource(1991))
	p, err := gen.Random(gen.RandomConfig{
		Tasks: 1000, EdgeProb: 3.0 / 1000, MinTaskSize: 1, MaxTaskSize: 20,
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
	e, err := NewEvaluator(p, c, paths.New(sys))
	if err != nil {
		t.Fatal(err)
	}
	a := FromPerm(rng.Perm(sys.NumNodes()))
	st := policyRun(t, e, a, 2000, 7, func(st kernelStats, calls int) {
		if limit := 2*bits.Len(uint(calls)) + 2; st.deltaBails > limit {
			t.Fatalf("%d bails over %d kernel calls, want at most %d (logarithmic)", st.deltaBails, calls, limit)
		}
	})
	t.Logf("wide cones: %+v", st)
	if st.deltaBails < 3 || 2*st.deltaBails < st.deltaWalks {
		t.Fatalf("counters %+v: the instance should have wide cones that mostly bail", st)
	}
}

// pipelines builds a narrow-cone instance: independent chains of `stages`
// tasks, every task dealt to a random one of k clusters. A swap's cone is
// the few chains through the two clusters, so walks complete.
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

// TestKernelPolicyKeepsNarrowConesOnDelta pins the other half: on an
// instance whose cones stay small, the back-off must not push batches off
// the delta path — most kernel calls are still priced by the cone walk.
func TestKernelPolicyKeepsNarrowConesOnDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(1991))
	sys := topology.Mesh(8, 16)
	p, c := pipelines(256, 4, sys.NumNodes(), rng)
	e, err := NewEvaluator(p, c, paths.New(sys))
	if err != nil {
		t.Fatal(err)
	}
	a := FromPerm(rng.Perm(sys.NumNodes()))
	st := policyRun(t, e, a, 1000, 7, func(kernelStats, int) {})
	t.Logf("narrow cones: %+v", st)
	if delta := st.deltaWalks - st.deltaBails; delta < 9*st.fullPasses || delta == 0 {
		t.Fatalf("counters %+v: want at least 90%% of kernel calls priced by the cone walk", st)
	}
}
