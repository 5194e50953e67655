package search

import (
	"context"
	"math/rand"

	"mimdmap/internal/schedule"
)

// Paper is the canonical §4.3.3 random-change refinement: per trial,
// exchange the processors of two random movable clusters, keep the change
// iff it does not worsen the total time (strictly improves — "keep if
// better"), and stop early when a trial reaches the lower bound.
//
// Pairs come from the shared draw buffer (pairDraws). A pair whose
// re-priced critical chain already reaches the incumbent total
// (SwapSession.Certified) cannot improve and is rejected without pricing;
// every other pair is priced alone through TrySwap. Certifying consumes no
// randomness, so results are bit-identical to pricing every trial,
// including the random stream. This is the exact loop core.Mapper ran
// before the strategy seam existed, pinned by the mapper's determinism
// tests.
type Paper struct{}

// Name implements Refiner.
func (Paper) Name() string { return "paper" }

// Refine implements Refiner.
//
//mapcheck:noalloc
func (Paper) Refine(ctx context.Context, sess *schedule.SwapSession, b Budget, rng *rand.Rand) Trace {
	tr := Trace{Final: sess.TotalTime()}
	//mapcheck:allow per-run free-cluster list, amortized over the trial budget
	free := b.free(sess)
	if len(free) < 2 || b.Trials <= 0 {
		return tr
	}
	draws := newPairDraws(free, rng, b.Trials, 0)
	certify := certifies(b, tr.Final)
	for tr.Trials < b.Trials {
		k, l, ok := draws.next(ctx)
		if !ok {
			break
		}
		tr.Trials++
		if certify && sess.Certified(k, l) {
			continue // cannot improve: rejected unpriced
		}
		total := sess.TrySwap(k, l)
		if tr.priced(&b, total) {
			sess.CommitSwap(k, l, total)
			return tr
		}
		if total < tr.Final {
			tr.Improved++
			tr.Final = total
			sess.CommitSwap(k, l, total)
			draws.commit()
			certify = certifies(b, tr.Final)
		}
	}
	return tr
}

// FullReshuffle is the literal reading of §4.3.3 step 4(a): every trial
// randomly re-permutes all movable clusters over the processors they may
// occupy. A permutation whose re-priced critical chain already reaches the
// incumbent total (SwapSession.CertifiedAssign) is rejected without
// pricing; the rest are priced with the session's whole-assignment pass
// (TryAssign). The permutation and trial buffers are allocated once per
// run, and schedule.RandPermInto draws from rng exactly as rand.Perm does.
type FullReshuffle struct{}

// Name implements Refiner.
func (FullReshuffle) Name() string { return "full-reshuffle" }

// Refine implements Refiner.
//
//mapcheck:noalloc
func (FullReshuffle) Refine(ctx context.Context, sess *schedule.SwapSession, b Budget, rng *rand.Rand) Trace {
	tr := Trace{Final: sess.TotalTime()}
	//mapcheck:allow per-run free-cluster list, amortized over the trial budget
	free := b.free(sess)
	if len(free) < 2 || b.Trials <= 0 {
		return tr
	}
	//mapcheck:allow per-run free-processor list, amortized over the trial budget
	procs := b.freeProcs(sess, free)
	//mapcheck:allow per-run trial-assignment scratch, amortized over the trial budget
	trial := make([]int, sess.K())
	copy(trial, sess.ProcOf())
	//mapcheck:allow per-run permutation scratch, amortized over the trial budget
	perm := make([]int, len(procs))
	certify := certifies(b, tr.Final)
	for t := 0; t < b.Trials; t++ {
		if ctx.Err() != nil {
			break
		}
		tr.Trials++
		schedule.RandPermInto(rng, perm)
		for i, k := range free {
			trial[k] = procs[perm[i]]
		}
		if certify && sess.CertifiedAssign(trial) {
			continue // cannot improve: rejected unpriced
		}
		total := sess.TryAssign(trial)
		if tr.priced(&b, total) {
			sess.CommitAssign(trial, total)
			return tr
		}
		if total < tr.Final {
			tr.Improved++
			tr.Final = total
			sess.CommitAssign(trial, total)
			certify = certifies(b, tr.Final)
		}
	}
	return tr
}
