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
// procedure rather than a strawman. The ascent is descend on negated
// cardinality; the total-time retarget of the same procedure is the
// registered "bokhari" search strategy (internal/search).

// BokhariOptions configures the search.
type BokhariOptions struct {
	// Jumps is the number of probabilistic jumps after local optima.
	// 0 means 2·K.
	Jumps int
	// JumpSwaps is how many random swaps one jump applies. 0 means K/4,
	// minimum 1.
	JumpSwaps int
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

	best := RandomAssignment(k, rng)
	cur := best.Clone()
	negCard := negCardinality(e)
	bestCard := e.Cardinality(cur)
	for jump := 0; jump <= opts.Jumps; jump++ {
		// Pairwise-exchange ascent on cardinality.
		if card := -descend(cur, negCard); card > bestCard {
			bestCard = card
			copy(best.ProcOf, cur.ProcOf)
		}
		if jump == opts.Jumps {
			break
		}
		// Probabilistic jump: random swaps to escape the local optimum.
		if k >= 2 {
			for s := 0; s < opts.JumpSwaps; s++ {
				cur.Swap(schedule.RandSwapPair(rng, k))
			}
		}
	}
	return best, bestCard
}
