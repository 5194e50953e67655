package baseline

import (
	"math"
	"math/rand"

	"mimdmap/internal/schedule"
)

// RandomAssignment returns a uniformly random bijection of k clusters onto k
// processors.
func RandomAssignment(k int, rng *rand.Rand) *schedule.Assignment {
	return schedule.FromPerm(rng.Perm(k))
}

// RandomMapping evaluates trials random assignments and returns the mean
// total time along with the best assignment seen and its total time. The
// paper's tables average "several" random mappings of each instance; the
// harness uses the mean, as §5 describes. The trial loop reuses one trial
// buffer and one best buffer allocated up front — a new best copies into
// the latter instead of cloning — so its steady-state cost is exactly the
// evaluator's allocation-free TotalTime (pinned by the AllocsPerRun
// regression test); the random stream matches the rand.Perm-per-trial
// formulation exactly.
func RandomMapping(e *schedule.Evaluator, trials int, rng *rand.Rand) (mean float64, best *schedule.Assignment, bestTime int) {
	if trials <= 0 {
		panic("baseline: random mapping needs at least one trial")
	}
	sum := 0
	a := schedule.NewAssignment(e.Clus.K)
	best = schedule.NewAssignment(e.Clus.K)
	bestTime = math.MaxInt
	for t := 0; t < trials; t++ {
		schedule.RandPermInto(rng, a.ProcOf)
		total := e.TotalTime(a)
		sum += total
		if total < bestTime {
			copy(best.ProcOf, a.ProcOf)
			bestTime = total
		}
	}
	return float64(sum) / float64(trials), best, bestTime
}

// MaxCardinality searches for an assignment maximising Bokhari's cardinality
// measure: the number of clustered problem edges mapped onto single system
// edges. It runs restarts random restarts of pairwise-exchange ascent over
// the batched CardSession kernel and returns the best assignment with its
// cardinality. Note §2.2 of the paper: the cardinality-optimal assignment
// need not minimise total time.
func MaxCardinality(e *schedule.Evaluator, restarts int, rng *rand.Rand) (*schedule.Assignment, int) {
	if restarts <= 0 {
		restarts = 1
	}
	k := e.Clus.K
	start := schedule.NewAssignment(k)
	sess := e.NewCardSession(start) // one session; restarts re-seed it via CommitAssign
	var best *schedule.Assignment
	bestCard := -1
	for r := 0; r < restarts; r++ {
		schedule.RandPermInto(rng, start.ProcOf)
		sess.CommitAssign(start.ProcOf)
		card := cardAscend(sess, k)
		if card > bestCard {
			if best == nil {
				best = schedule.FromPerm(sess.ProcOf())
			} else {
				copy(best.ProcOf, sess.ProcOf())
			}
			bestCard = card
		}
	}
	return best, bestCard
}
