package schedule

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mimdmap/internal/graph"
	"mimdmap/internal/topology"
)

// sessionTestSystems are the machine shapes the session oracle runs on:
// regular, irregular, and tiny.
func sessionTestSystems(seed int64) []*graph.System {
	return []*graph.System{
		topology.Mesh(4, 4),
		topology.Hypercube(4),
		topology.Random(12, 0.3, rand.New(rand.NewSource(seed))),
		topology.Ring(5),
	}
}

// TestSwapSessionExactOverRandomSequences is the session's exactness
// oracle: over random sequences of TrySwap, TrySwapBatch (with duplicate
// and identity lanes), TryAssign, memo replays and every kind of commit,
// each total a session returns must equal Evaluator.TotalTime of the
// assignment it prices, and the committed incumbent and total must mirror
// an independently maintained copy. One session runs with the priced-pair
// memo and one without, so both the replay and the pricing passes are
// checked on every step.
func TestSwapSessionExactOverRandomSequences(t *testing.T) {
	for _, sys := range sessionTestSystems(17) {
		for _, seed := range []int64{3, 1991} {
			e, a := benchInstance(t, sys, seed)
			k := a.K()
			rng := rand.New(rand.NewSource(seed + 7))
			memo := e.NewSwapSession(a)
			bare := e.NewSwapSession(a)
			bare.memoTotal = nil
			oracle := a.Clone()
			price := func(i, j int) int {
				oracle.Swap(i, j)
				defer oracle.Swap(i, j)
				return e.TotalTime(oracle)
			}

			var ks, ls, totals [SwapLanes]int
			perm := make([]int, k)
			lastK, lastL := 0, 0 // the most recently priced pair
			for step := 0; step < 600; step++ {
				label := fmt.Sprintf("%s seed %d step %d", sys.Name, seed, step)
				for _, s := range []*SwapSession{memo, bare} {
					if !slices.Equal(s.ProcOf(), oracle.ProcOf) {
						t.Fatalf("%s: session incumbent %v, want %v", label, s.ProcOf(), oracle.ProcOf)
					}
					if want := e.TotalTime(oracle); s.TotalTime() != want {
						t.Fatalf("%s: committed total %d, evaluator says %d", label, s.TotalTime(), want)
					}
				}
				commit := rng.Intn(3) == 0
				switch op := rng.Intn(4); op {
				case 0: // a batch, then maybe commit one lane
					for l := range ks {
						ks[l], ls[l] = RandSwapPair(rng, k)
					}
					ks[2], ls[2] = ks[1], ls[1]       // duplicate lane
					ks[SwapLanes-1] = ls[SwapLanes-1] // identity lane
					lane := rng.Intn(SwapLanes)
					for _, s := range []*SwapSession{memo, bare} {
						s.TrySwapBatch(&ks, &ls, &totals)
						for l := range totals {
							if want := price(ks[l], ls[l]); totals[l] != want {
								t.Fatalf("%s: batch lane %d (%d,%d) total %d, evaluator says %d", label, l, ks[l], ls[l], totals[l], want)
							}
						}
						if commit {
							s.CommitSwap(ls[lane], ks[lane], totals[lane]) // either pair order
						}
					}
					lastK, lastL = ks[0], ls[0]
					if commit {
						oracle.Swap(ks[lane], ls[lane])
					}
				case 1: // a single trial (sometimes the identity), then maybe Commit
					lastK, lastL = RandSwapPair(rng, k)
					if step%5 == 0 {
						lastL = lastK
					}
					fallthrough
				case 2: // replay the last priced pair, then maybe Commit
					want := price(lastK, lastL)
					for _, s := range []*SwapSession{memo, bare} {
						if got := s.TrySwap(lastK, lastL); got != want {
							t.Fatalf("%s: TrySwap(%d,%d) = %d, evaluator says %d", label, lastK, lastL, got, want)
						}
						if commit {
							s.Commit()
						}
					}
					if commit {
						oracle.Swap(lastK, lastL)
					}
				case 3: // a whole-assignment trial, then maybe CommitAssign
					RandPermInto(rng, perm)
					want := e.TotalTime(FromPerm(perm))
					for _, s := range []*SwapSession{memo, bare} {
						if got := s.TryAssign(perm); got != want {
							t.Fatalf("%s: TryAssign = %d, evaluator says %d", label, got, want)
						}
						if commit {
							s.CommitAssign(perm, want)
						}
					}
					if commit {
						copy(oracle.ProcOf, perm)
					}
				}
			}
		}
	}
}

// TestIdentityBatchPricesIncumbent pins the degenerate batch: identity
// lanes (ks == ls) price the committed incumbent in every lane.
func TestIdentityBatchPricesIncumbent(t *testing.T) {
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
