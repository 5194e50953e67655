package baseline

import (
	"math/rand"

	"mimdmap/internal/schedule"
)

// Bokhari's mapping algorithm (ref [1] of the paper, IEEE ToC 1981),
// faithful to its published structure: hill-climb on *cardinality* by
// pairwise exchanges, and when no exchange improves, apply a probabilistic
// jump (a random perturbation of the current assignment) and continue, for
// a fixed number of jumps, keeping the best assignment ever seen. The
// paper's §2.2 argues the measure itself is flawed; this implementation
// lets the experiments make that argument quantitatively against the real
// procedure rather than a strawman. The ascent prices its pair swaps
// through the batched CardSession kernel, SwapLanes at a time, with the
// same sweep order and tie-breaking as the scalar objective loop; the
// total-time retarget of the same procedure is the registered "bokhari"
// search strategy (internal/search).

// BokhariOptions configures the search.
type BokhariOptions struct {
	// Jumps is the number of probabilistic jumps after local optima.
	// 0 means 2·K.
	Jumps int
	// JumpSwaps is how many random swaps one jump applies. 0 means K/4,
	// minimum 1.
	JumpSwaps int
}

// cardAscend runs steepest-ascent pairwise exchange on cardinality over the
// session's committed incumbent — sweep every pair through the batch
// kernel, commit the best strictly-improving exchange, repeat until a local
// optimum — and returns the local optimum's cardinality. The sweep order
// and first-strict-winner tie-breaking match the scalar pairwiseDescent
// loop, so results are unchanged; only the pricing is batched.
func cardAscend(sess *schedule.CardSession, k int) int {
	const lanes = schedule.SwapLanes
	var ks, ls, cards [lanes]int
	cur := sess.Cardinality()
	for {
		bestI, bestJ, bestCard := -1, -1, cur
		n := 0
		flush := func() {
			if n == 0 {
				return
			}
			for idx := n; idx < lanes; idx++ {
				ks[idx], ls[idx] = ks[0], ls[0] // padding lanes, never read
			}
			sess.TryCardBatch(&ks, &ls, &cards)
			for idx := 0; idx < n; idx++ {
				if cards[idx] > bestCard {
					bestCard, bestI, bestJ = cards[idx], ks[idx], ls[idx]
				}
			}
			n = 0
		}
		for i := 0; i < k-1; i++ {
			for j := i + 1; j < k; j++ {
				ks[n], ls[n] = i, j
				n++
				if n == lanes {
					flush()
				}
			}
		}
		flush()
		if bestI < 0 {
			return cur // local optimum
		}
		cur = bestCard
		sess.CommitSwap(bestI, bestJ)
	}
}

// Bokhari runs the cardinality-maximising search and returns the best
// assignment seen with its cardinality. Deterministic given rng.
func Bokhari(e *schedule.Evaluator, opts BokhariOptions, rng *rand.Rand) (*schedule.Assignment, int) {
	k := e.Clus.K
	if opts.Jumps == 0 {
		opts.Jumps = 2 * k
	}
	if opts.JumpSwaps == 0 {
		opts.JumpSwaps = k / 4
	}
	if opts.JumpSwaps < 1 {
		opts.JumpSwaps = 1
	}

	start := RandomAssignment(k, rng)
	sess := e.NewCardSession(start)
	best := start // NewCardSession copied it; reuse as the best buffer
	bestCard := sess.Cardinality()
	for jump := 0; jump <= opts.Jumps; jump++ {
		// Pairwise-exchange ascent on cardinality.
		if card := cardAscend(sess, k); card > bestCard {
			bestCard = card
			copy(best.ProcOf, sess.ProcOf())
		}
		if jump == opts.Jumps {
			break
		}
		// Probabilistic jump: random swaps to escape the local optimum.
		if k >= 2 {
			for s := 0; s < opts.JumpSwaps; s++ {
				i := rng.Intn(k)
				j := rng.Intn(k - 1)
				if j >= i {
					j++
				}
				sess.CommitSwap(i, j)
			}
		}
	}
	return best, bestCard
}
