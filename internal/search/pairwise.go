package search

import (
	"context"
	"math/rand"

	"mimdmap/internal/schedule"
)

// Pairwise is steepest-descent pairwise exchange on total time — the
// refinement alternative the paper discusses in §4.3.3 and the engine of
// Bokhari-style procedures: sweep every pair of movable clusters, commit
// the best improving exchange, and repeat until a local optimum, the trial
// budget, or the lower bound is reached. Deterministic; rng is unused.
//
// Each sweep prices its pairs in sweep order, one TrySwap each. Because
// steepest descent commits only after a full sweep, every pair of a sweep
// is a perturbation of one incumbent. A pair whose re-priced critical chain
// already reaches the incumbent total (SwapSession.Certified) cannot
// improve, and counts as a trial without pricing, when no total is
// recorded and an equal total could not end the run at the lower bound.
type Pairwise struct {
	// MaxRounds bounds the number of full sweeps; 0 means sweep until a
	// local optimum (or the trial budget runs out).
	MaxRounds int
}

// Name implements Refiner.
func (Pairwise) Name() string { return "pairwise" }

// Refine implements Refiner.
//
//mapcheck:noalloc
func (p Pairwise) Refine(ctx context.Context, sess *schedule.SwapSession, b Budget, rng *rand.Rand) Trace {
	tr := Trace{Final: sess.TotalTime()}
	//mapcheck:allow per-run free-cluster list, amortized over the trial budget
	free := b.free(sess)
	if len(free) < 2 || b.Trials <= 0 {
		return tr
	}
	for round := 0; p.MaxRounds <= 0 || round < p.MaxRounds; round++ {
		if ctx.Err() != nil {
			break
		}
		certify := certifies(b, tr.Final)
		bestK, bestL, bestT := -1, -1, tr.Final
		exhausted := false
	sweep:
		for i := 0; i < len(free)-1; i++ {
			for j := i + 1; j < len(free); j++ {
				if tr.Trials >= b.Trials {
					exhausted = true
					break sweep
				}
				tr.Trials++
				k, l := free[i], free[j]
				if certify && sess.Certified(k, l) {
					continue // cannot improve: a trial that needs no pricing
				}
				total := sess.TrySwap(k, l)
				if tr.priced(&b, total) {
					sess.CommitSwap(k, l, total)
					return tr
				}
				if total < bestT {
					bestT, bestK, bestL = total, k, l
				}
			}
		}
		if bestK < 0 {
			break // local optimum
		}
		tr.Improved++
		tr.Final = bestT
		sess.CommitSwap(bestK, bestL, bestT)
		if exhausted {
			break
		}
	}
	return tr
}
