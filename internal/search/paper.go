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
// Trials come from the shared draw-ahead queue (trialQueue) in certify
// mode: a candidate swap that the session's critical-chain certificate
// proves cannot lower the total is rejected without pricing, and the rest
// are priced lazily: in one interleaved batch while commits are rare, and
// alone while they come less than half a batch apart. Trials still
// resolve strictly in draw order against the incumbent they would have
// seen sequentially — after an accept, the unresolved candidates are
// certified or priced again against the new incumbent — so results are
// bit-identical to trial-at-a-time refinement, including the random stream
// (drawing consumes rng in draw order; certifying and pricing consume
// none). This is the exact loop core.Mapper ran before the strategy seam
// existed, pinned by the mapper's determinism tests.
type Paper struct{}

// Name implements Refiner.
func (Paper) Name() string { return "paper" }

// Refine implements Refiner.
//
//mapcheck:noalloc
func (p Paper) Refine(ctx context.Context, sess *schedule.SwapSession, b Budget, rng *rand.Rand) Trace {
	var q trialQueue
	return p.refine(ctx, sess, b, rng, &q)
}

// refine is Refine over a caller-owned queue, so tests can read its
// pricing counters.
//
//mapcheck:noalloc
func (Paper) refine(ctx context.Context, sess *schedule.SwapSession, b Budget, rng *rand.Rand, q *trialQueue) Trace {
	tr := Trace{Final: sess.TotalTime()}
	//mapcheck:allow per-run free-cluster list, amortized over the trial budget
	free := b.free(sess)
	if len(free) < 2 || b.Trials <= 0 {
		return tr
	}
	*q = newTrialQueue(sess, free, rng, b.Trials, 0, certifies(b, tr.Final))
	for tr.Trials < b.Trials {
		k, l, total, cert, ok := q.next(ctx)
		if !ok {
			break
		}
		tr.Trials++
		if cert {
			continue // cannot improve: rejected unpriced
		}
		if tr.priced(&b, total) {
			sess.CommitSwap(k, l, total)
			return tr
		}
		if total < tr.Final {
			tr.Improved++
			tr.Final = total
			q.commit(k, l, total)
			q.certify = certifies(b, tr.Final)
		}
	}
	return tr
}

// FullReshuffle is the literal reading of §4.3.3 step 4(a): every trial
// randomly re-permutes all movable clusters over the processors they may
// occupy. There is no incumbent locality for the batch kernel to exploit,
// so trials are priced with the session's whole-assignment pass
// (TryAssign); the permutation and trial buffers are allocated once per
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
	for t := 0; t < b.Trials; t++ {
		if ctx.Err() != nil {
			break
		}
		tr.Trials++
		schedule.RandPermInto(rng, perm)
		for i, k := range free {
			trial[k] = procs[perm[i]]
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
		} else {
			copy(trial, sess.ProcOf())
		}
	}
	return tr
}
