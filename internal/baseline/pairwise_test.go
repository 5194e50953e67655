package baseline

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mimdmap/internal/schedule"
	"mimdmap/internal/search"
)

// Total-time pairwise exchange runs as search.Pairwise over a SwapSession;
// the scalar descend in baseline.go serves only the cardinality and phased
// comm-cost baselines. These
// tests keep the pinning and round-bound checks of that total-time
// exchange on the cardinality counterexample.

// pairwiseTotalTime runs search.Pairwise from start with the given movable
// clusters (nil = all) and sweep bound (0 = until a local optimum), and
// returns the final assignment and its total time.
func pairwiseTotalTime(t *testing.T, e *schedule.Evaluator, start *schedule.Assignment, free []int, rounds int) (*schedule.Assignment, int) {
	t.Helper()
	sess := e.NewSwapSession(start)
	tr := search.Pairwise{MaxRounds: rounds}.Refine(context.Background(), sess,
		search.Budget{Trials: math.MaxInt, Free: free, LowerBound: 1}, rand.New(rand.NewSource(1)))
	got := schedule.FromPerm(sess.ProcOf())
	if total := e.TotalTime(got); total != tr.Final {
		t.Fatalf("trace reports total %d but the final assignment evaluates to %d", tr.Final, total)
	}
	return got, tr.Final
}

func TestPairwiseExchangeRespectsMovable(t *testing.T) {
	e := cardInstance(t)
	start := schedule.FromPerm([]int{3, 1, 0, 2})
	// Unpinned, the descent moves cluster 0 or cluster 3 on its way to
	// the optimum, so pinning them is what keeps them in place.
	if free, _ := pairwiseTotalTime(t, e, start, nil, 0); free.ProcOf[0] == 3 && free.ProcOf[3] == 2 {
		t.Fatalf("unpinned descent leaves clusters 0 and 3 in place (%v); the pin check would be vacuous", free.ProcOf)
	}
	got, _ := pairwiseTotalTime(t, e, start, []int{1, 2}, 0) // pin clusters 0 and 3
	if got.ProcOf[0] != 3 || got.ProcOf[3] != 2 {
		t.Fatalf("pinned clusters moved: %v", got.ProcOf)
	}
	if !start.Equal(schedule.FromPerm([]int{3, 1, 0, 2})) {
		t.Fatal("pairwise exchange mutated its start")
	}
}

func TestPairwiseExchangeMaxRounds(t *testing.T) {
	e := cardInstance(t)
	start := schedule.FromPerm([]int{3, 1, 0, 2})
	oneA, oneRound := pairwiseTotalTime(t, e, start, nil, 1)
	_, unlimited := pairwiseTotalTime(t, e, start, nil, 0)
	if oneRound < unlimited {
		t.Fatal("bounded search beat unlimited search")
	}
	// One round applies at most one swap: at most two clusters move.
	moved := 0
	for k, p := range oneA.ProcOf {
		if start.ProcOf[k] != p {
			moved++
		}
	}
	if moved > 2 {
		t.Fatalf("one round moved %d clusters, want at most one swap", moved)
	}
}
