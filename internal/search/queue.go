package search

import (
	"context"
	"math/rand"

	"mimdmap/internal/schedule"
)

// trialQueue is the draw-ahead candidate queue the Paper and Anneal
// refiners share. Candidate swaps are drawn schedule.SwapLanes at a time
// and resolved strictly in draw order against the incumbent they would have
// seen sequentially; an accepted trial invalidates the totals of the
// candidates behind it, which stay queued and are re-priced against the new
// incumbent before the queue refills. Draws happen exactly where the
// trial-at-a-time loop would make them — the queue refills only when it
// runs empty or after a commit, and only when the refiner asks for its next
// trial — so the random stream is that of always-batched pricing.
//
// Pricing is lazy: an entry is priced only when the refiner reaches it,
// either alone through TrySwap or together with every other unresolved
// entry through TrySwapBatch. A batch prices eight lanes for much less
// than eight scalar passes, which pays when most of them are resolved — a
// refiner that rejects most trials — and is wasted when an accept discards
// the lanes behind it. The queue chooses from the refiner's own outcomes:
// the first trial after a commit is priced alone iff the previous
// first-after-commit trial was accepted, and every other unpriced entry
// prices the unresolved rest of the queue as one batch. Every kernel is
// exact and pricing consumes no randomness, so the choice changes only
// the cost, never a total or a draw.
type trialQueue struct {
	sess  *schedule.SwapSession
	free  []int
	rng   *rand.Rand
	limit int // candidates that may be drawn: the trial budget
	drawn int // candidates drawn so far, calibration probes included

	// Entries head..n-1 are drawn but unresolved; entries head..priced-1
	// carry totals priced against the committed incumbent, all by the
	// most recent pricing call.
	ks, ls, totals  [schedule.SwapLanes]int
	head, n, priced int

	handed int  // trials handed out since the last commit (or the start)
	solo   bool // price the first trial after a commit alone

	stats queueStats
}

// queueStats counts how a queue priced its trials: batch kernel calls,
// scalar calls, resolved trials, and resolved trials whose total came from
// a batch of SwapLanes drawn pairs (no padding lanes). lastLanes is the
// number of drawn pairs the most recent pricing call priced.
type queueStats struct {
	batches, solos, resolved, fromFull, lastLanes int
}

// newTrialQueue returns an empty queue over the movable clusters free,
// drawing from rng until drawn (the candidates already charged to the
// budget) reaches limit.
func newTrialQueue(sess *schedule.SwapSession, free []int, rng *rand.Rand, limit, drawn int) trialQueue {
	return trialQueue{sess: sess, free: free, rng: rng, limit: limit, drawn: drawn}
}

// next hands out the next candidate swap and its exact total against the
// committed incumbent. Callers ask only while their trial budget has room,
// so an entry is always available. ok is false when the queue was due to
// refill and ctx is done.
//
//mapcheck:noalloc
func (q *trialQueue) next(ctx context.Context) (k, l, total int, ok bool) {
	if q.head == q.priced && !q.refillAndPrice(ctx) {
		return 0, 0, 0, false
	}
	h := q.head
	q.head++
	q.handed++
	q.stats.resolved++
	if q.stats.lastLanes == schedule.SwapLanes {
		q.stats.fromFull++
	}
	return q.ks[h], q.ls[h], q.totals[h], true
}

// refillAndPrice prices the head entry, first topping the queue up when it
// ran empty or a commit (or the start) made every queued total stale. It
// reports false, drawing nothing, when a refill was due and ctx is done.
//
//mapcheck:noalloc
func (q *trialQueue) refillAndPrice(ctx context.Context) bool {
	if q.handed == 0 || q.head == q.n {
		if ctx.Err() != nil {
			return false
		}
		q.compact()
		for q.n < schedule.SwapLanes && q.drawn < q.limit {
			i, j := schedule.RandSwapPair(q.rng, len(q.free))
			q.ks[q.n], q.ls[q.n] = q.free[i], q.free[j]
			q.n++
			q.drawn++
		}
	}
	q.price()
	return true
}

// price prices the head entry: alone when it is the first trial after a
// commit that follows an accepted first trial, or when it is the last
// unresolved entry; otherwise together with the rest of the queue, the
// padding lanes duplicating the head pair.
//
//mapcheck:noalloc
func (q *trialQueue) price() {
	if (q.handed == 0 && q.solo) || q.n-q.head == 1 {
		q.totals[q.head] = q.sess.TrySwap(q.ks[q.head], q.ls[q.head])
		q.priced = q.head + 1
		q.stats.solos++
		q.stats.lastLanes = 1
		return
	}
	q.compact()
	for i := q.n; i < schedule.SwapLanes; i++ {
		q.ks[i], q.ls[i] = q.ks[0], q.ls[0]
	}
	q.sess.TrySwapBatch(&q.ks, &q.ls, &q.totals)
	q.priced = q.n
	q.stats.batches++
	q.stats.lastLanes = q.n
}

// compact moves the unresolved entries to the front of the queue. It runs
// only when none of them carries a total.
//
//mapcheck:noalloc
func (q *trialQueue) compact() {
	copy(q.ks[:], q.ks[q.head:q.n])
	copy(q.ls[:], q.ls[q.head:q.n])
	q.n -= q.head
	q.head, q.priced = 0, 0
}

// commit accepts the trial (k, l) just handed out, whose exact total the
// queue priced: the session commits it, the queued totals go stale, and the
// queue refills before the next trial. The first trial after this commit
// is priced alone iff the accepted trial was itself the first after the
// previous commit.
//
//mapcheck:noalloc
func (q *trialQueue) commit(k, l, total int) {
	q.sess.CommitSwap(k, l, total)
	q.solo = q.handed == 1
	q.handed = 0
	q.priced = q.head
}
