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
// and identity lanes), TryAssign, repeated pairs and every kind of commit,
// each total a session returns must equal the total time of the paper's
// own procedure (referenceSchedule) on the assignment it prices, and the
// committed incumbent and total must mirror an independently maintained
// copy.
func TestSwapSessionExactOverRandomSequences(t *testing.T) {
	for _, sys := range sessionTestSystems(17) {
		for _, seed := range []int64{3, 1991} {
			e, a := benchInstance(t, sys, seed)
			k := a.K()
			rng := rand.New(rand.NewSource(seed + 7))
			s := e.NewSwapSession(a)
			oracle := a.Clone()
			reference := func(procOf []int) int {
				return referenceSchedule(e.Prob, e.Clus, e.Dist, procOf).TotalTime
			}
			price := func(i, j int) int {
				oracle.Swap(i, j)
				defer oracle.Swap(i, j)
				return reference(oracle.ProcOf)
			}

			var ks, ls, totals [SwapLanes]int
			perm := make([]int, k)
			lastK, lastL := 0, 0 // the most recently priced pair
			for step := 0; step < 600; step++ {
				label := fmt.Sprintf("%s seed %d step %d", sys.Name, seed, step)
				if !slices.Equal(s.ProcOf(), oracle.ProcOf) {
					t.Fatalf("%s: session incumbent %v, want %v", label, s.ProcOf(), oracle.ProcOf)
				}
				if want := reference(oracle.ProcOf); s.TotalTime() != want {
					t.Fatalf("%s: committed total %d, reference says %d", label, s.TotalTime(), want)
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
					s.TrySwapBatch(&ks, &ls, &totals)
					for l := range totals {
						if want := price(ks[l], ls[l]); totals[l] != want {
							t.Fatalf("%s: batch lane %d (%d,%d) total %d, reference says %d", label, l, ks[l], ls[l], totals[l], want)
						}
					}
					if commit {
						s.CommitSwap(ls[lane], ks[lane], totals[lane]) // either pair order
						oracle.Swap(ks[lane], ls[lane])
					}
					lastK, lastL = ks[0], ls[0]
				case 1: // a single trial (sometimes the identity), then maybe commit it
					lastK, lastL = RandSwapPair(rng, k)
					if step%5 == 0 {
						lastL = lastK
					}
					fallthrough
				case 2: // replay the last priced pair, then maybe commit it
					want := price(lastK, lastL)
					got := s.TrySwap(lastK, lastL)
					if got != want {
						t.Fatalf("%s: TrySwap(%d,%d) = %d, reference says %d", label, lastK, lastL, got, want)
					}
					if commit {
						s.CommitSwap(lastK, lastL, got)
						oracle.Swap(lastK, lastL)
					}
				case 3: // a whole-assignment trial, then maybe CommitAssign
					RandPermInto(rng, perm)
					want := reference(perm)
					if got := s.TryAssign(perm); got != want {
						t.Fatalf("%s: TryAssign = %d, reference says %d", label, got, want)
					}
					if commit {
						s.CommitAssign(perm, want)
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

// TestSwapSessionTryAssign pins the whole-assignment trial path: TryAssign
// prices any candidate exactly, leaves the incumbent untouched, and
// CommitAssign adopts it.
func TestSwapSessionTryAssign(t *testing.T) {
	e, a := benchInstance(t, topology.Mesh(4, 4), 13)
	k := a.K()
	sess := e.NewSwapSession(a)
	committed := sess.TotalTime()
	check := e.Fork()

	cand := FromPerm(rand.New(rand.NewSource(7)).Perm(k))
	if got, want := sess.TryAssign(cand.ProcOf), check.TotalTime(cand); got != want {
		t.Fatalf("TryAssign = %d, evaluator says %d", got, want)
	}
	if sess.TotalTime() != committed {
		t.Fatal("TryAssign changed the committed total")
	}
	total := sess.TryAssign(cand.ProcOf)
	sess.CommitAssign(cand.ProcOf, total)
	if sess.TotalTime() != total {
		t.Fatalf("committed total %d, want %d", sess.TotalTime(), total)
	}
	// Batch trials after CommitAssign must price swaps of the new incumbent.
	var ks, ls, totals [SwapLanes]int
	for l := 0; l < SwapLanes; l++ {
		ks[l], ls[l] = l%k, (l+3)%k
	}
	sess.TrySwapBatch(&ks, &ls, &totals)
	for l := 0; l < SwapLanes; l++ {
		cand.Swap(ks[l], ls[l])
		if want := check.TotalTime(cand); totals[l] != want {
			t.Fatalf("lane %d after CommitAssign: total %d, want %d", l, totals[l], want)
		}
		cand.Swap(ks[l], ls[l])
	}
}

// TestTryAssignZeroAllocs pins the whole-assignment trial contract.
func TestTryAssignZeroAllocs(t *testing.T) {
	e, a := benchInstance(t, topology.Mesh(4, 4), 7)
	sess := e.NewSwapSession(a)
	cand := a.Clone()
	if allocs := testing.AllocsPerRun(200, func() {
		refineBenchSink += sess.TryAssign(cand.ProcOf)
		sess.CommitAssign(cand.ProcOf, 0)
	}); allocs != 0 {
		t.Fatalf("TryAssign+CommitAssign allocates %v objects per call, want 0", allocs)
	}
}
