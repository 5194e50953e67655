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
// edges. It runs restarts random restarts of pairwise-exchange ascent and
// returns the best assignment with its cardinality. Note §2.2 of the paper:
// the cardinality-optimal assignment need not minimise total time.
func MaxCardinality(e *schedule.Evaluator, restarts int, rng *rand.Rand) (*schedule.Assignment, int) {
	best, negCard := bestOfDescents(e.Clus.K, restarts, rng, negCardinality(e))
	return best, -negCard
}

// negCardinality is cardinality as an objective to minimise, so the
// cardinality searchers share descend with the comm-cost minimiser.
func negCardinality(e *schedule.Evaluator) func(*schedule.Assignment) int {
	return func(a *schedule.Assignment) int { return -e.Cardinality(a) }
}

// bestOfDescents runs restarts (at least one) steepest descents on obj, each
// from a fresh random assignment, and returns the first best local optimum
// with its objective value.
func bestOfDescents(k, restarts int, rng *rand.Rand, obj func(*schedule.Assignment) int) (*schedule.Assignment, int) {
	cur := schedule.NewAssignment(k)
	best := schedule.NewAssignment(k)
	bestVal := math.MaxInt
	for r := 0; r < max(restarts, 1); r++ {
		schedule.RandPermInto(rng, cur.ProcOf)
		if v := descend(cur, obj); v < bestVal {
			copy(best.ProcOf, cur.ProcOf)
			bestVal = v
		}
	}
	return best, bestVal
}

// descend is steepest-descent pairwise exchange on an arbitrary objective,
// in place: it prices every pair swap of a (pairs i < j, ascending), applies
// the first strictly best one, and repeats until no swap improves. It leaves
// the local optimum in a and returns its objective value. The baselines'
// objectives (negated cardinality, the phased comm cost) have no swap
// session, so this scalar loop is their one engine; total-time descent runs
// search.Pairwise over a SwapSession instead.
//
//mapcheck:noalloc
func descend(a *schedule.Assignment, obj func(*schedule.Assignment) int) int {
	cur := obj(a)
	k := a.K()
	for {
		bestI, bestJ, best := -1, -1, cur
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				a.Swap(i, j)
				if v := obj(a); v < best {
					bestI, bestJ, best = i, j, v
				}
				a.Swap(i, j)
			}
		}
		if bestI < 0 {
			return cur // local optimum
		}
		a.Swap(bestI, bestJ)
		cur = best
	}
}
