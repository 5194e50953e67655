package search

import (
	"context"
	"math/rand"

	"mimdmap/internal/schedule"
)

// pairDraws is the candidate-swap draw buffer the Paper and Anneal
// refiners share. Pairs are drawn schedule.SwapLanes at a time, and the
// buffer is topped up only when it runs empty or at the first draw after a
// commit, so every rng draw happens exactly where the loops that once
// priced each buffer as one 8-lane batch made it, and the random streams
// pinned then still hold. Drawing stops at the trial budget.
type pairDraws struct {
	free   []int
	rng    *rand.Rand
	limit  int // candidates that may be drawn: the trial budget
	drawn  int // candidates drawn so far, calibration probes included
	ks, ls [schedule.SwapLanes]int
	head   int // entries head..n-1 are drawn but not yet handed out
	n      int
	stale  bool // a commit since the last top-up
}

// newPairDraws returns an empty buffer over the movable clusters free,
// drawing from rng until drawn (the candidates already charged to the
// budget) reaches limit.
func newPairDraws(free []int, rng *rand.Rand, limit, drawn int) pairDraws {
	return pairDraws{free: free, rng: rng, limit: limit, drawn: drawn}
}

// next hands out the next candidate swap. Callers ask only while their
// trial budget has room, so a pair is always available. ok is false when
// the buffer was due to be topped up and ctx is done.
//
//mapcheck:noalloc
func (d *pairDraws) next(ctx context.Context) (k, l int, ok bool) {
	if d.stale || d.head == d.n {
		if ctx.Err() != nil {
			return 0, 0, false
		}
		copy(d.ks[:], d.ks[d.head:d.n])
		copy(d.ls[:], d.ls[d.head:d.n])
		d.head, d.n, d.stale = 0, d.n-d.head, false
		for d.n < schedule.SwapLanes && d.drawn < d.limit {
			i, j := schedule.RandSwapPair(d.rng, len(d.free))
			d.ks[d.n], d.ls[d.n] = d.free[i], d.free[j]
			d.n++
			d.drawn++
		}
	}
	k, l = d.ks[d.head], d.ls[d.head]
	d.head++
	return k, l, true
}

// commit records that the refiner accepted the pair just handed out: the
// next call tops the buffer up.
func (d *pairDraws) commit() { d.stale = true }

// certifies reports whether a refiner whose acceptance test is strict
// improvement may resolve a trial that the session's chain bound certifies
// without pricing it: no total is recorded, and a total equal to the
// incumbent's could not end the run at the lower bound.
func certifies(b Budget, final int) bool {
	return !b.RecordTrials && (b.DisableTermination || final > b.LowerBound)
}
