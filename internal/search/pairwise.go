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
// Each sweep prices its pair swaps schedule.SwapLanes at a time through the
// session's batch kernel. Because steepest descent commits only after a
// full sweep, every lane of a sweep is a perturbation of one incumbent and
// the batching is exact. A pair the session's critical-chain certificate
// proves cannot lower the total counts as a trial in sweep order but takes
// no lane, when no total is recorded and an equal total could not end the
// run at the lower bound.
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
	const lanes = schedule.SwapLanes
	var ks, ls, totals [lanes]int
	var skip [lanes]int // certified pairs swept just before each lane
	for round := 0; p.MaxRounds <= 0 || round < p.MaxRounds; round++ {
		if ctx.Err() != nil {
			break
		}
		certify := certifies(b, tr.Final)
		bestK, bestL, bestT := -1, -1, tr.Final
		exhausted := false
		n := 0    // filled lanes of the pending batch
		run := 0  // certified pairs swept since the last filled lane
		held := 0 // swept pairs not yet counted as trials
		// flush resolves the pending lanes, counting each lane's run of
		// certified pairs just before it and the trailing run after the
		// last, so trials count in sweep order; it reports true when a
		// trial reached the lower bound and the run is over.
		flush := func() bool {
			if n > 0 {
				for idx := n; idx < lanes; idx++ {
					ks[idx], ls[idx] = ks[0], ls[0] // padding lanes, never read
				}
				sess.TrySwapBatch(&ks, &ls, &totals)
			}
			for idx := 0; idx < n; idx++ {
				total := totals[idx]
				tr.Trials += skip[idx] + 1
				if tr.priced(&b, total) {
					sess.CommitSwap(ks[idx], ls[idx], total)
					return true
				}
				if total < bestT {
					bestT, bestK, bestL = total, ks[idx], ls[idx]
				}
			}
			tr.Trials += run
			n, run, held = 0, 0, 0
			return false
		}
		for i := 0; i < len(free)-1 && !exhausted; i++ {
			for j := i + 1; j < len(free); j++ {
				if tr.Trials+held >= b.Trials {
					exhausted = true
					break
				}
				held++
				if certify && sess.Certified(free[i], free[j]) {
					run++ // cannot improve: a trial that takes no lane
					continue
				}
				ks[n], ls[n], skip[n] = free[i], free[j], run
				n, run = n+1, 0
				if n == lanes && flush() {
					return tr
				}
			}
		}
		if flush() {
			return tr
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
