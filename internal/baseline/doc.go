// Package baseline implements the comparison mapping strategies the paper
// positions itself against:
//
//   - Random mapping (§5): the experimental baseline of Tables 1–3.
//   - Bokhari's algorithm (ref [1], §2.2): cardinality ascent by pairwise
//     exchanges with probabilistic jumps.
//   - A Lee-style phased communication-cost minimiser (ref [2], §2.2):
//     pairwise exchanges minimising the sum over phases of the maximum
//     weighted distance in each phase.
//   - Simulated annealing on total time (refs [3], [14]): a strong generic
//     optimiser included as an extension baseline.
//
// No total-time search engine lives here: annealing, pairwise exchange and
// the paper's random-change refinement are registered strategies of
// internal/search over a schedule.SwapSession, and
// AnnealTotalTime only draws a random start and runs the "anneal" strategy
// from it. What remains in this package are the objectives that kernel
// does not price: cardinality (Bokhari, MaxCardinality) and the Lee comm
// cost (MinCommCost). All three run one scalar steepest-descent loop,
// descend, which minimises negated cardinality or the comm cost in place.
//
// All searchers are deterministic given their *rand.Rand. Searchers that
// need fresh random permutations reuse one assignment buffer via
// schedule.RandPermInto, which consumes their generator exactly as
// rand.Perm would; the AllocsPerRun regression tests pin that the trial
// loops stay allocation-free in steady state.
//
//mapcheck:deterministic
package baseline
