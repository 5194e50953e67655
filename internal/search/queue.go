package search

import (
	"context"
	"math/rand"

	"mimdmap/internal/schedule"
)

// queueCap bounds how far a certifying queue draws ahead: enough drawn
// candidates to find SwapLanes uncertified ones when most are certified.
const queueCap = 64

// trialQueue is the draw-ahead candidate queue the Paper and Anneal
// refiners share. Candidate swaps are drawn ahead and resolved strictly in
// draw order against the incumbent they would have seen sequentially; an
// accepted trial invalidates the state of the candidates behind it, which
// stay queued and are resolved again against the new incumbent. In plain
// mode draws happen exactly where the trial-at-a-time loop would make them
// — the queue refills only when it runs empty or after a commit, and only
// when the refiner asks for its next trial — so the random stream is that
// of always-batched pricing.
//
// Pricing is lazy: an entry is priced only when the refiner reaches it,
// either alone through TrySwap or together with up to SwapLanes-1 other
// unresolved entries through TrySwapBatch. A batch prices eight lanes for
// much less than eight scalar passes, which pays when most of them are
// resolved — a refiner that rejects most trials — and is wasted when an
// accept discards the lanes behind it. The queue chooses from the
// refiner's own outcomes: the first trial after a commit is priced alone
// iff the previous first-after-commit trial was accepted, and every other
// unpriced entry is priced in one batch with the unpriced entries behind
// it. Every kernel is exact and pricing consumes no randomness, so the
// choice changes only the cost, never a total or a draw.
//
// In certify mode (Paper, whose test is strict improvement) the queue
// also asks the session's critical-chain certificate about every entry,
// and resolves a certified one without pricing it: it cannot improve, so
// the refiner rejects it. Only uncertified entries take batch lanes, and
// the queue draws up to queueCap entries ahead to fill SwapLanes of them.
// Drawing further ahead leaves the stream unchanged for a refiner that
// draws nothing but pairs: draws stay in order, never pass the budget, and
// at budget exhaustion every drawn entry has been resolved. The other
// exits, a trial at the lower bound and a cancelled ctx, end the run.
// Anneal draws acceptance floats between trials, so it keeps the plain
// mode, which never holds more than SwapLanes entries.
type trialQueue struct {
	sess    *schedule.SwapSession
	free    []int
	rng     *rand.Rand
	limit   int  // candidates that may be drawn: the trial budget
	drawn   int  // candidates drawn so far, calibration probes included
	certify bool // resolve certified entries without pricing them

	// Entries head..n-1 are drawn but unresolved, in draw order. Their
	// states and totals hold against the committed incumbent unless stale.
	ks, ls, totals [queueCap]int
	state          [queueCap]entryState
	head, n        int
	stale          bool // a commit (or the start) outdated every queued state

	handed int  // trials handed out since the last commit (or the start)
	solo   bool // price the first trial after a commit alone

	stats queueStats
}

// entryState is how far a queued candidate has been resolved against the
// committed incumbent.
type entryState uint8

const (
	unpriced  entryState = iota // needs an exact total
	priced                      // totals[i] is exact
	certified                   // cannot improve; needs no total
)

// queueStats counts how a queue resolved its trials: batch kernel calls,
// scalar calls, resolved trials, trials resolved by the certificate without
// pricing, and priced trials whose total came from a batch of SwapLanes
// drawn pairs (no padding lanes). lanes counts the drawn pairs all pricing
// calls priced, and discarded the priced totals a commit made stale.
// lastLanes is the number of drawn pairs the most recent pricing call
// priced.
type queueStats struct {
	batches, solos, resolved, certified, fromFull int
	lanes, discarded, lastLanes                   int
}

// newTrialQueue returns an empty queue over the movable clusters free,
// drawing from rng until drawn (the candidates already charged to the
// budget) reaches limit, in certify mode if certify is set.
func newTrialQueue(sess *schedule.SwapSession, free []int, rng *rand.Rand, limit, drawn int, certify bool) trialQueue {
	return trialQueue{sess: sess, free: free, rng: rng, limit: limit, drawn: drawn, certify: certify, stale: true}
}

// certifies reports whether a refiner whose acceptance test is strict
// improvement may resolve certified trials without pricing them: no total
// is recorded, and a total equal to the incumbent's could not end the run
// at the lower bound.
func certifies(b Budget, final int) bool {
	return !b.RecordTrials && (b.DisableTermination || final > b.LowerBound)
}

// next hands out the next candidate swap and, unless the certificate
// resolved it (cert), its exact total against the committed incumbent.
// Callers ask only while their trial budget has room, so an entry is always
// available. ok is false when the queue was due to refill and ctx is done.
//
//mapcheck:noalloc
func (q *trialQueue) next(ctx context.Context) (k, l, total int, cert, ok bool) {
	if q.stale || q.head == q.n {
		if ctx.Err() != nil {
			return 0, 0, 0, false, false
		}
		q.refill()
	} else if q.certify && q.state[q.head] == unpriced {
		q.refill() // fill the coming batch's lanes
	}
	h := q.head
	if q.state[h] == unpriced {
		q.price()
	}
	q.head++
	q.handed++
	q.stats.resolved++
	if q.state[h] == certified {
		q.stats.certified++
		return q.ks[h], q.ls[h], 0, true, true
	}
	if q.stats.lastLanes == schedule.SwapLanes {
		q.stats.fromFull++
	}
	return q.ks[h], q.ls[h], q.totals[h], false, true
}

// refill moves the unresolved entries to the front, re-resolves them
// against the incumbent when a commit made them stale, and tops the queue
// up: in plain mode to SwapLanes entries, in certify mode until SwapLanes
// of the entries are unpriced or queueCap are drawn.
//
//mapcheck:noalloc
func (q *trialQueue) refill() {
	n := q.n - q.head
	copy(q.ks[:], q.ks[q.head:q.n])
	copy(q.ls[:], q.ls[q.head:q.n])
	copy(q.totals[:], q.totals[q.head:q.n])
	copy(q.state[:], q.state[q.head:q.n])
	q.head, q.n = 0, n
	open := 0
	for i := 0; i < q.n; i++ {
		if q.stale {
			q.state[i] = q.classify(q.ks[i], q.ls[i])
		}
		if q.state[i] == unpriced {
			open++
		}
	}
	q.stale = false
	room := schedule.SwapLanes
	if q.certify {
		room = queueCap
	}
	for q.n < room && q.drawn < q.limit && (!q.certify || open < schedule.SwapLanes) {
		i, j := schedule.RandSwapPair(q.rng, len(q.free))
		k, l := q.free[i], q.free[j]
		q.ks[q.n], q.ls[q.n], q.state[q.n] = k, l, q.classify(k, l)
		if q.state[q.n] == unpriced {
			open++
		}
		q.n++
		q.drawn++
	}
}

// classify is the state of a freshly drawn or stale entry: certified when
// the queue certifies and the session's certificate covers the swap.
//
//mapcheck:noalloc
func (q *trialQueue) classify(k, l int) entryState {
	if q.certify && q.sess.Certified(k, l) {
		return certified
	}
	return unpriced
}

// price prices the head entry: alone when it is the first trial after a
// commit that follows an accepted first trial, or when it is the last
// unpriced entry; otherwise together with up to SwapLanes-1 unpriced
// entries behind it, the padding lanes duplicating the head pair.
//
//mapcheck:noalloc
func (q *trialQueue) price() {
	var lane [schedule.SwapLanes]int // queue index of each batch lane
	var ks, ls, totals [schedule.SwapLanes]int
	lanes := 0
	for i := q.head; i < q.n && lanes < schedule.SwapLanes; i++ {
		if q.state[i] == unpriced {
			lane[lanes], ks[lanes], ls[lanes] = i, q.ks[i], q.ls[i]
			lanes++
		}
	}
	h := q.head
	if (q.handed == 0 && q.solo) || lanes == 1 {
		q.totals[h] = q.sess.TrySwap(q.ks[h], q.ls[h])
		q.state[h] = priced
		q.stats.solos++
		q.stats.lanes++
		q.stats.lastLanes = 1
		return
	}
	for i := lanes; i < schedule.SwapLanes; i++ {
		ks[i], ls[i] = ks[0], ls[0]
	}
	q.sess.TrySwapBatch(&ks, &ls, &totals)
	for i := 0; i < lanes; i++ {
		q.totals[lane[i]], q.state[lane[i]] = totals[i], priced
	}
	q.stats.batches++
	q.stats.lanes += lanes
	q.stats.lastLanes = lanes
}

// commit accepts the trial (k, l) just handed out, whose exact total the
// queue priced: the session commits it, the queued states go stale, and
// the queue resolves them again before the next trial. The first trial
// after this commit is priced alone iff the accepted trial was itself the
// first after the previous commit.
//
//mapcheck:noalloc
func (q *trialQueue) commit(k, l, total int) {
	q.sess.CommitSwap(k, l, total)
	for i := q.head; i < q.n; i++ {
		if q.state[i] == priced {
			q.stats.discarded++
		}
	}
	q.solo = q.handed == 1
	q.handed = 0
	q.stale = true
}
