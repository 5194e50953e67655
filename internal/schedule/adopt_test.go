package schedule

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mimdmap/internal/topology"
)

// checkCommittedCache fails unless the session's committed total, end
// times and their prefix and suffix maxima equal a fresh full evaluation
// of the assignment procOf (the incumbent) followed by a rebuild.
func checkCommittedCache(t *testing.T, label string, s *SwapSession, procOf []int) {
	t.Helper()
	n := len(s.endC)
	ends := make([]int, n)
	total := s.e.fillEnds(procOf, ends)
	if total != s.TotalTime() {
		t.Fatalf("%s: committed total %d, evaluator says %d", label, s.TotalTime(), total)
	}
	if !slices.Equal(s.endC, ends) {
		t.Fatalf("%s: committed end times differ from a fresh evaluation", label)
	}
	pref, suff := make([]int, n), make([]int, n)
	for t := range ends {
		pref[t] = ends[t]
		if t > 0 {
			pref[t] = max(pref[t], pref[t-1])
		}
	}
	for t := n - 1; t >= 0; t-- {
		suff[t] = ends[t]
		if t+1 < n {
			suff[t] = max(suff[t], suff[t+1])
		}
	}
	if !slices.Equal(s.prefMax, pref) || !slices.Equal(s.suffMax, suff) {
		t.Fatalf("%s: prefix or suffix maxima differ from a rebuild", label)
	}
}

// TestCommitAdoptsPricedEnds drives random sequences of scalar trials,
// batches (some forced onto the full kernel), memo hits, whole-assignment
// trials and both commit kinds, and checks after every commit that the
// cached end times mirror the incumbent — whether the commit adopted the
// ends a pricing pass left behind or walked the swap's cone. Both kinds of
// adoption must occur, and so must walks.
func TestCommitAdoptsPricedEnds(t *testing.T) {
	var stats kernelStats
	for _, sys := range deltaTestSystems(23) {
		for _, seed := range []int64{5, 1991} {
			e, a := benchInstance(t, sys, seed)
			k := a.K()
			rng := rand.New(rand.NewSource(seed + 3))
			s := e.NewSwapSession(a)
			budget := s.coneBudget
			var ks, ls, totals [SwapLanes]int
			procOf := make([]int, k)
			lastK, lastL := 0, 0 // the most recently priced scalar pair
			for step := 0; step < 400; step++ {
				s.coneBudget = budget
				if rng.Intn(2) == 0 {
					forceFullKernel(s)
				}
				label := fmt.Sprintf("%s seed %d step %d", sys.Name, seed, step)
				switch op := rng.Intn(8); op {
				case 0: // scalar trial, then maybe promote it
					lastK, lastL = RandSwapPair(rng, k)
					s.TrySwap(lastK, lastL)
					if rng.Intn(2) == 0 {
						s.Commit()
						checkCommittedCache(t, label+" Commit", s, s.ProcOf())
					}
				case 1: // batch, then maybe commit one of its lanes
					for lane := range ks {
						ks[lane], ls[lane] = RandSwapPair(rng, k)
					}
					s.TrySwapBatch(&ks, &ls, &totals)
					if rng.Intn(2) == 0 {
						lane := rng.Intn(SwapLanes)
						s.CommitSwap(ls[lane], ks[lane], totals[lane]) // either pair order
						checkCommittedCache(t, label+" CommitSwap lane", s, s.ProcOf())
					}
				case 2: // memo hit of the last scalar pair, then commit it
					total := s.TrySwap(lastK, lastL)
					s.CommitSwap(lastK, lastL, total)
					checkCommittedCache(t, label+" memo CommitSwap", s, s.ProcOf())
				case 3: // a whole-assignment trial between pricing and commit
					i, j := RandSwapPair(rng, k)
					total := s.TrySwap(i, j)
					copy(procOf, s.ProcOf())
					rng.Shuffle(k, func(x, y int) { procOf[x], procOf[y] = procOf[y], procOf[x] })
					s.TryAssign(procOf)
					s.CommitSwap(i, j, total)
					checkCommittedCache(t, label+" CommitSwap after TryAssign", s, s.ProcOf())
				case 4: // undo the last commit blind: the pair was priced before it
					i, j := RandSwapPair(rng, k)
					total := s.TrySwap(i, j)
					s.CommitSwap(i, j, total)
					inc := s.lanes.a
					inc.Swap(i, j)
					back := e.TotalTime(inc)
					inc.Swap(i, j)
					s.CommitSwap(i, j, back)
					checkCommittedCache(t, label+" undo", s, s.ProcOf())
				case 5: // stale: price (i, j), price another pair, commit (i, j)
					i, j := RandSwapPair(rng, k)
					total := s.TrySwap(i, j)
					for lane := range ks {
						ks[lane], ls[lane] = RandSwapPair(rng, k)
					}
					s.TrySwapBatch(&ks, &ls, &totals)
					s.CommitSwap(i, j, total)
					checkCommittedCache(t, label+" stale CommitSwap", s, s.ProcOf())
				case 7: // stale lane: price a batch, then another pass, then commit a lane of the first
					var ks2, ls2, totals2 [SwapLanes]int
					for lane := range ks2 {
						ks2[lane], ls2[lane] = RandSwapPair(rng, k)
					}
					s.TrySwapBatch(&ks2, &ls2, &totals2)
					if rng.Intn(2) == 0 {
						// Make the next pass a cone walk, which overwrites
						// only part of endB.
						s.coneBudget, s.backoff = 1<<30, [SwapLanes + 1]backoff{}
					}
					if rng.Intn(2) == 0 {
						for lane := range ks {
							ks[lane], ls[lane] = RandSwapPair(rng, k)
						}
						s.TrySwapBatch(&ks, &ls, &totals)
					} else {
						i, j := RandSwapPair(rng, k)
						s.TrySwap(i, j)
					}
					lane := rng.Intn(2) * rng.Intn(SwapLanes) // lane 0 half the time: the scalar walk's lane
					s.CommitSwap(ks2[lane], ls2[lane], totals2[lane])
					checkCommittedCache(t, label+" stale lane CommitSwap", s, s.ProcOf())
				case 6: // wholesale replacement
					copy(procOf, s.ProcOf())
					rng.Shuffle(k, func(x, y int) { procOf[x], procOf[y] = procOf[y], procOf[x] })
					s.CommitAssign(procOf, s.TryAssign(procOf))
					checkCommittedCache(t, label+" CommitAssign", s, s.ProcOf())
				}
			}
			stats.coneCommits += s.coneCommits
			stats.scalarAdoptions += s.scalarAdoptions
			stats.batchAdoptions += s.batchAdoptions
		}
	}
	t.Logf("commits: %d cone walks, %d scalar adoptions, %d batch adoptions", stats.coneCommits, stats.scalarAdoptions, stats.batchAdoptions)
	if stats.scalarAdoptions == 0 || stats.batchAdoptions == 0 || stats.coneCommits == 0 {
		t.Fatal("the sequence did not exercise scalar adoption, batch adoption and cone-walk commits")
	}
}

// TestCommitWalksWhenPricedEndsAreStale pins the staleness rule: a pair
// priced by a full pass, followed by a full pass of another pair, must be
// committed by a cone walk, not from the ends the later pass left behind.
func TestCommitWalksWhenPricedEndsAreStale(t *testing.T) {
	e, a := benchInstance(t, topology.Mesh(4, 4), 9)
	s := e.NewSwapSession(a)
	forceFullKernel(s)
	total := s.TrySwap(1, 6)
	s.TrySwap(2, 11)
	walks := s.coneCommits
	s.CommitSwap(1, 6, total)
	if s.coneCommits != walks+1 || s.scalarAdoptions+s.batchAdoptions != 0 {
		t.Fatalf("stale commit adopted priced ends (walks %d → %d, adoptions %d)", walks, s.coneCommits, s.scalarAdoptions+s.batchAdoptions)
	}
	checkCommittedCache(t, "stale commit", s, s.ProcOf())

	total = s.TrySwap(3, 7)
	s.CommitSwap(7, 3, total)
	if s.scalarAdoptions != 1 {
		t.Fatalf("a commit of the pair the last scalar pass priced walked its cone instead of adopting")
	}
	checkCommittedCache(t, "adopted commit", s, s.ProcOf())
}
