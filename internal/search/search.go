// Package search defines the pluggable local-search seam of the mapping
// strategy: every refinement and comparison algorithm — the paper's §4.3.3
// random-change refinement, pairwise exchange (§2.2/ref [1]), simulated
// annealing (refs [3], [14]) — is a Refiner improving a committed
// schedule.SwapSession under a trial Budget. All strategies price trials
// through the session — one full evaluation pass per unpriced trial or
// batch of schedule.SwapLanes trials, with already-priced pairs replayed
// from the session's pair table, transparently to refiners — so they
// share one zero-allocation hot path and compete at an equal trial budget.
// Budget accounting stays trial-based: a memoised trial counts exactly
// like a freshly priced one, so budgets and results are independent of
// how a trial happened to be priced. The named registry
// (RefinerByName) is the single source of truth for which strategies
// exist, mirroring the clusterer registry.
//
//mapcheck:deterministic
package search

import (
	"context"
	"math/rand"

	"mimdmap/internal/schedule"
)

// Budget bounds and parameterises one refinement run over a session.
type Budget struct {
	// Trials is the maximum number of candidate assignments the refiner may
	// price ("a total of ns changes are allowed", §4.3.3). Refiners count a
	// candidate when its trial is resolved against the incumbent it would
	// have seen sequentially, so the count is batch-size independent.
	Trials int
	// Free lists the movable clusters — everything not pinned by a critical
	// abstract node (definition 5 of §2.1). nil means every cluster moves.
	// Refiners must not mutate it; it may be shared across chains.
	Free []int
	// FreeProcs lists the processors the free clusters may occupy, aligned
	// with Free. Only permutation-style moves (full-reshuffle) need it;
	// nil derives it from the session's incumbent at Refine time.
	FreeProcs []int
	// LowerBound is the ideal-graph lower bound: a trial reaching it proves
	// optimality (Theorem 3) and terminates the run early.
	LowerBound int
	// DisableTermination turns the lower-bound early exit off, forcing the
	// full trial budget (the termination-condition ablation). Standalone
	// searches with no known bound should set it.
	DisableTermination bool
	// RecordTrials makes the refiner record every trial's total time in
	// Trace.Totals, for convergence analysis.
	RecordTrials bool
	// Rounds is the number of budget slices an adaptive portfolio run
	// schedules (0 = the portfolio's default). Plain refiners ignore it.
	Rounds int
	// Arms names the strategies an adaptive portfolio run races (nil = the
	// portfolio's default arm set). Plain refiners ignore it. Callers must
	// not mutate it after handing it to a refiner.
	Arms []string
}

// free resolves the movable-cluster list: Budget.Free, or all clusters.
func (b *Budget) free(sess *schedule.SwapSession) []int {
	if b.Free != nil {
		return b.Free
	}
	all := make([]int, sess.K())
	for i := range all {
		all[i] = i
	}
	return all
}

// freeProcs resolves the processor pool of permutation moves: the
// processors the free clusters occupy in the session's incumbent.
func (b *Budget) freeProcs(sess *schedule.SwapSession, free []int) []int {
	if b.FreeProcs != nil {
		return b.FreeProcs
	}
	procs := make([]int, len(free))
	for i, k := range free {
		procs[i] = sess.ProcOf()[k]
	}
	return procs
}

// Trace reports what one refinement run did. The refined assignment itself
// lives in the session: after Refine returns, the session's committed
// incumbent is the best assignment the strategy chose to keep, and its
// TotalTime equals Final.
type Trace struct {
	// Trials is the number of candidate assignments actually priced and
	// resolved.
	Trials int
	// Improved is the number of trials that lowered the incumbent total.
	Improved int
	// Final is the committed incumbent's total time at return.
	Final int
	// AtBound reports that Final reached the lower bound, proving the
	// assignment optimal (always false when the bound is unknown or
	// termination is disabled and the budget simply ran out at the bound —
	// callers comparing against LowerBound should test Final themselves).
	AtBound bool
	// Totals records every trial's total time in resolution order, when
	// Budget.RecordTrials is set (nil otherwise).
	Totals []int
	// Arms reports the portfolio's per-arm budget split when the run was an
	// adaptive portfolio (nil for plain refiners), in arm order.
	Arms []ArmStats
	// WinningArm names the portfolio arm whose round produced Final ("" for
	// plain refiners, or when no round improved the starting incumbent).
	WinningArm string
}

// Refiner is one local-search strategy over cluster→processor assignments.
// Refine improves the session's committed incumbent in place, drawing all
// randomness from rng (deterministic given the generator's state) and
// pricing at most b.Trials candidates; it must stop early when ctx is
// cancelled, leaving the best incumbent found committed. Implementations
// must be stateless or read-only after construction so one instance can
// serve concurrent chains, each with its own session and generator.
type Refiner interface {
	// Name returns the strategy's registry name.
	Name() string
	// Refine runs the search and returns its trace.
	Refine(ctx context.Context, sess *schedule.SwapSession, b Budget, rng *rand.Rand) Trace
}
