package baseline

import (
	"context"
	"math/rand"

	"mimdmap/internal/schedule"
	"mimdmap/internal/search"
)

// AnnealOptions configures simulated annealing (refs [3] and [14] of the
// paper). The zero value selects sensible defaults.
type AnnealOptions struct {
	// InitialTemp is the starting temperature. 0 derives it from the cost
	// spread of a short random walk so roughly 80% of uphill moves are
	// initially accepted.
	InitialTemp float64
	// Cooling is the geometric cooling factor per step, in (0,1).
	// 0 means 0.995.
	Cooling float64
	// Steps is the number of proposed swaps. 0 means 200×K.
	Steps int
	// MinTemp stops the schedule early once the temperature drops below
	// it. 0 means 1e-3.
	MinTemp float64
}

func (o *AnnealOptions) defaults(k int) {
	if o.Cooling == 0 {
		o.Cooling = 0.995
	}
	if o.Steps == 0 {
		o.Steps = 200 * k
	}
	if o.MinTemp == 0 {
		o.MinTemp = 1e-3
	}
}

// AnnealTotalTime is simulated annealing on the total execution time
// starting from a random assignment. It runs the registered "anneal" search
// strategy over a SwapSession, so its trials price through the same
// zero-allocation kernel as the refinement loop; opts.Steps is the trial
// budget. Deterministic given rng.
func AnnealTotalTime(e *schedule.Evaluator, opts AnnealOptions, rng *rand.Rand) (*schedule.Assignment, int) {
	k := e.Clus.K
	opts.defaults(k)
	start := RandomAssignment(k, rng)
	sess := e.NewSwapSession(start)
	sa := &search.Anneal{InitialTemp: opts.InitialTemp, Cooling: opts.Cooling, MinTemp: opts.MinTemp}
	tr := sa.Refine(context.Background(), sess, search.Budget{
		Trials:             opts.Steps,
		DisableTermination: true, // no known bound
	}, rng)
	return schedule.FromPerm(sess.ProcOf()), tr.Final
}
