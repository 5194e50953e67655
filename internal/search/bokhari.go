package search

import (
	"context"
	"math/rand"

	"mimdmap/internal/schedule"
)

// Bokhari is Bokhari's 1981 search procedure (ref [1] of the paper)
// retargeted at the measure the paper argues for: pairwise-exchange descent
// to a local optimum, then a probabilistic jump (a burst of random swaps)
// to escape it, repeating for a fixed number of jumps and keeping the best
// assignment ever seen. Where the original climbs on cardinality — the
// indirect measure §2.2 refutes — this registry strategy descends on total
// time, so it competes with the other refiners under the paper's own
// objective at an equal trial budget. The faithful cardinality-maximising
// procedure lives in internal/baseline for the §2.2 comparisons.
//
// Descent sweeps run the Pairwise refiner, chain bound included; each jump
// is always committed, so it costs one whole-assignment evaluation. A run makes twice as
// many jumps as there are movable clusters, each a burst of a quarter of
// them (at least one) random swaps.
type Bokhari struct{}

// Name implements Refiner.
func (*Bokhari) Name() string { return "bokhari" }

// Refine implements Refiner.
//
//mapcheck:noalloc
func (*Bokhari) Refine(ctx context.Context, sess *schedule.SwapSession, b Budget, rng *rand.Rand) Trace {
	tr := Trace{Final: sess.TotalTime()}
	//mapcheck:allow per-run free-cluster list, amortized over the trial budget
	b.Free = b.free(sess)
	free := b.Free
	if len(free) < 2 || b.Trials <= 0 {
		return tr
	}
	jumps := 2 * len(free)
	jumpSwaps := max(len(free)/4, 1)
	bestTotal := sess.TotalTime()
	//mapcheck:allow per-run best-assignment scratch, amortized over the trial budget
	bestProc := make([]int, sess.K())
	copy(bestProc, sess.ProcOf())
	//mapcheck:allow per-run jump scratch, amortized over the trial budget
	scratch := make([]int, sess.K())

	for jump := 0; jump <= jumps; jump++ {
		sub := Pairwise{}.Refine(ctx, sess, b.slice(b.Trials-tr.Trials), rng)
		tr.Trials += sub.Trials
		tr.Improved += sub.Improved // the descent's incumbent-lowering trials
		if b.RecordTrials {
			tr.Totals = append(tr.Totals, sub.Totals...)
		}
		if sub.Final < bestTotal {
			bestTotal = sub.Final
			copy(bestProc, sess.ProcOf())
		}
		if sub.AtBound {
			tr.Final = bestTotal
			tr.AtBound = true
			return tr
		}
		if jump == jumps || tr.Trials >= b.Trials || ctx.Err() != nil {
			break
		}
		// Probabilistic jump: random swaps of movable clusters to escape the
		// local optimum, priced with one whole-assignment evaluation.
		copy(scratch, sess.ProcOf())
		for s := 0; s < jumpSwaps; s++ {
			i, j := schedule.RandSwapPair(rng, len(free))
			scratch[free[i]], scratch[free[j]] = scratch[free[j]], scratch[free[i]]
		}
		total := sess.TryAssign(scratch)
		tr.Trials++
		if tr.priced(&b, total) {
			sess.CommitAssign(scratch, total)
			return tr
		}
		if total < sess.TotalTime() {
			tr.Improved++ // a jump may lower the incumbent too
		}
		sess.CommitAssign(scratch, total)
	}
	if bestTotal < sess.TotalTime() {
		sess.CommitAssign(bestProc, bestTotal)
	}
	tr.Final = bestTotal
	return tr
}
