package search

import (
	"context"
	"math"
	"math/rand"

	"mimdmap/internal/schedule"
)

// Anneal is simulated annealing on total time over the swap neighbourhood
// (refs [3] and [14] of the paper): random exchanges of movable clusters,
// downhill moves always accepted, uphill moves accepted with probability
// exp(-delta/T) under a geometric cooling schedule. The best assignment
// ever seen is committed at return.
//
// Like the paper refiner, candidates come from the shared draw-ahead queue
// (trialQueue): pairs are drawn schedule.SwapLanes at a time and
// acceptance draws (rng.Float64) happen in resolution order, after the
// batch's pair draws. The run is deterministic given rng, but the stream
// differs from a scalar draw-evaluate-accept loop by construction —
// annealing has no pinned legacy stream to preserve. Annealing accepts most
// trials, and an accept discards the totals of every candidate behind it,
// so its commits come a few trials apart and the queue prices them alone
// rather than paying for a batch whose other lanes would be thrown away.
type Anneal struct {
	// InitialTemp is the starting temperature. 0 calibrates it from a short
	// probe walk so roughly 80% of uphill moves are initially accepted.
	InitialTemp float64
	// Cooling is the geometric cooling factor per trial, in (0,1).
	// 0 means 0.995.
	Cooling float64
	// MinTemp stops the schedule early once the temperature drops below it.
	// 0 means 1e-3.
	MinTemp float64
}

// Name implements Refiner.
func (*Anneal) Name() string { return "anneal" }

// Refine implements Refiner.
//
//mapcheck:noalloc
func (an *Anneal) Refine(ctx context.Context, sess *schedule.SwapSession, b Budget, rng *rand.Rand) Trace {
	var q trialQueue
	return an.refine(ctx, sess, b, rng, &q)
}

// refine is Refine over a caller-owned queue, so tests can read its
// pricing counters.
//
//mapcheck:noalloc
func (an *Anneal) refine(ctx context.Context, sess *schedule.SwapSession, b Budget, rng *rand.Rand, q *trialQueue) Trace {
	cooling := an.Cooling
	if cooling == 0 {
		cooling = 0.995
	}
	minTemp := an.MinTemp
	if minTemp == 0 {
		minTemp = 1e-3
	}
	tr := Trace{Final: sess.TotalTime()}
	//mapcheck:allow per-run free-cluster list, amortized over the trial budget
	free := b.free(sess)
	if len(free) < 2 || b.Trials <= 0 {
		return tr
	}
	if ctx.Err() != nil {
		return tr
	}
	cur := sess.TotalTime()
	bestTotal := cur
	//mapcheck:allow per-run best-assignment scratch, amortized over the trial budget
	bestProc := make([]int, sess.K())
	copy(bestProc, sess.ProcOf())

	temp := an.InitialTemp
	if temp == 0 {
		// Calibrate from probe swaps of the incumbent: estimate the typical
		// uphill cost delta and start where such a move is accepted with
		// probability ~0.8. Probes are full trial evaluations, so they are
		// charged against the budget like any other trial — the equal-budget
		// comparison contract counts evaluation work, not acceptance tests —
		// but they are capped at a quarter of the budget so small-budget
		// runs still spend most of their trials annealing, and the best
		// improving probe is committed rather than thrown away.
		probes := 32
		if quarter := b.Trials / 4; probes > quarter {
			probes = quarter
		}
		if probes < 1 {
			probes = 1
		}
		sum, count := 0.0, 0
		probeK, probeL, probeT := -1, -1, cur
		for t := 0; t < probes; t++ {
			i, j := schedule.RandSwapPair(rng, len(free))
			total := sess.TrySwap(free[i], free[j])
			tr.Trials++
			if tr.priced(&b, total) {
				sess.CommitSwap(free[i], free[j], total)
				return tr
			}
			if total < probeT {
				probeK, probeL, probeT = free[i], free[j], total
			}
			if d := total - cur; d > 0 {
				sum += float64(d)
				count++
			}
		}
		if probeK >= 0 {
			// A probe found a downhill move; take it, as the annealing loop
			// itself always would at any temperature.
			tr.Improved++
			cur = probeT
			sess.CommitSwap(probeK, probeL, probeT)
			bestTotal = cur
			copy(bestProc, sess.ProcOf())
		}
		if count == 0 {
			temp = 1.0
		} else {
			temp = -(sum / float64(count)) / math.Log(0.8)
		}
	}

	// The queue's draw count starts at the calibration probes already
	// charged, so drawing stops exactly at b.Trials even when the
	// remaining budget is not a whole batch.
	*q = newTrialQueue(sess, free, rng, b.Trials, tr.Trials, false)
	for tr.Trials < b.Trials && temp > minTemp {
		k, l, total, _, ok := q.next(ctx)
		if !ok {
			break
		}
		tr.Trials++
		if tr.priced(&b, total) {
			sess.CommitSwap(k, l, total)
			return tr
		}
		delta := total - cur
		take := delta <= 0 || rng.Float64() < math.Exp(-float64(delta)/temp)
		temp *= cooling
		if take {
			if delta < 0 {
				tr.Improved++ // the trial lowered the incumbent total
			}
			cur = total
			q.commit(k, l, total)
			if cur < bestTotal {
				bestTotal = cur
				copy(bestProc, sess.ProcOf())
			}
		}
	}
	if bestTotal < sess.TotalTime() {
		sess.CommitAssign(bestProc, bestTotal)
	}
	tr.Final = bestTotal
	return tr
}
