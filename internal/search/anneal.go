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
// Like the paper refiner, pairs come from the shared draw buffer
// (pairDraws), and acceptance draws (rng.Float64) happen in resolution
// order, after the buffer's pair draws. The run is deterministic given
// rng, but the stream differs from a scalar draw-evaluate-accept loop by
// construction — annealing has no pinned legacy stream to preserve.
//
// A trial is rejected without pricing when its bound already settles it:
// the session's re-priced critical chain b = SwapBound(k, l) is above the
// current total, and the acceptance draw u satisfies u ≥ exp(−(b−cur)/T).
// The exact total is at least b, so its delta > 0 would draw u anyway and
// reject it. A trial the bound leaves open is priced through TrySwap and
// reuses the u already drawn, so the stream does not change. The bound is
// used only when no total is recorded and a priced total could not end the
// run at the lower bound.
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

	// The buffer's draw count starts at the calibration probes already
	// charged, so drawing stops exactly at b.Trials even when the
	// remaining budget is not a whole buffer.
	draws := newPairDraws(free, rng, b.Trials, tr.Trials)
	for tr.Trials < b.Trials && temp > minTemp {
		k, l, ok := draws.next(ctx)
		if !ok {
			break
		}
		tr.Trials++
		u := -1.0 // the acceptance draw, once drawn
		if !b.RecordTrials {
			if bound := sess.SwapBound(k, l); bound > cur && (b.DisableTermination || bound > b.LowerBound) {
				u = rng.Float64()
				if u >= math.Exp(-float64(bound-cur)/temp) {
					temp *= cooling
					continue // rejected whatever its exact total
				}
			}
		}
		total := sess.TrySwap(k, l)
		if tr.priced(&b, total) {
			sess.CommitSwap(k, l, total)
			return tr
		}
		delta := total - cur
		take := delta <= 0
		if !take {
			if u < 0 {
				u = rng.Float64()
			}
			take = u < math.Exp(-float64(delta)/temp)
		}
		temp *= cooling
		if take {
			if delta < 0 {
				tr.Improved++ // the trial lowered the incumbent total
			}
			cur = total
			sess.CommitSwap(k, l, total)
			draws.commit()
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
