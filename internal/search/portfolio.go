package search

import (
	"context"
	"math"
	"math/rand"

	"mimdmap/internal/schedule"
)

// The adaptive portfolio refiner ("portfolio" in the registry). Instead of
// spending the whole trial budget on one fixed strategy, it slices the
// budget into rounds and schedules the fixed strategies as bandit arms:
// each round runs one arm on the shared session, the arm's observed
// improvement-per-trial becomes its reward, and a discounted UCB1 rule
// reallocates later rounds toward whichever arm is currently improving.
// This operationalises the CompareRefiners observation (and Baranov et
// al.'s resource-manager comparison) that the best strategy is
// workload-dependent: the portfolio discovers it online, per run.
//
// Determinism contract: arm selection is a pure function of the chain's own
// reward history — it consumes no rng draws, and ties break toward the
// lowest arm index — so a portfolio run is bit-reproducible given rng and
// leaves each arm's random stream exactly as if that arm had been run alone
// with the same slices. Under the multi-start driver (see
// internal/core/parallel.go) chains run rounds in lockstep and exchange
// elite incumbents only at round barriers, which keeps results independent
// of Options.Workers.

// DefaultPortfolioArms is the arm set a portfolio races when Budget.Arms
// names none. The order is the deterministic first-exploration order;
// "paper" leads so that degenerate single-round budgets reduce to the
// mapper's canonical refinement.
var DefaultPortfolioArms = []string{"paper", "pairwise", "bokhari", "anneal", "full-reshuffle"}

const (
	// defaultPortfolioRounds is the budget-slice count when Budget.Rounds
	// is zero.
	defaultPortfolioRounds = 16
	// minRoundTrials caps the round count on small budgets: a round shorter
	// than this prices too few candidates to produce a usable reward signal
	// (and a budget below it degenerates to a single round of arm 0).
	minRoundTrials = 32
	// portfolioExplore is the UCB1 exploration coefficient over normalised
	// rewards; portfolioDiscount geometrically ages rewards and play counts
	// each round so the bandit tracks the non-stationary improvement rate
	// (early rounds improve easily, late rounds rarely).
	portfolioExplore  = 0.25
	portfolioDiscount = 0.85
)

// ArmStats reports one portfolio arm's share of a run: how many rounds it
// was scheduled, the trials it priced, and how many of those improved the
// incumbent. Multi-start runs merge the split across chains.
type ArmStats struct {
	Name     string `json:"name"`
	Rounds   int    `json:"rounds"`
	Trials   int    `json:"trials"`
	Improved int    `json:"improved"`
}

// Elite is a published best-so-far snapshot: the assignment, its exact
// total time, and the arm that produced it. The multi-start driver merges
// per-chain snapshots between rounds and offers the winner back to lagging
// chains, which restart from it through the session's CommitAssign seam.
type Elite struct {
	ProcOf []int
	Total  int
	Arm    string
}

// RoundRefiner is implemented by refiners that can run round-by-round under
// an external driver, exchanging elite incumbents at round boundaries. The
// multi-start path in internal/core type-asserts for it and, when present,
// drives all chains in lockstep instead of running each chain's Refine to
// completion independently.
type RoundRefiner interface {
	Refiner
	// NewChainState prepares one chain's search over sess. The returned
	// state owns no part of sess but keeps a reference to it; b and rng
	// follow the same contract as Refine.
	NewChainState(sess *schedule.SwapSession, b Budget, rng *rand.Rand) ChainState
}

// ChainState is one chain's resumable portfolio search.
type ChainState interface {
	// RunRound runs one budget slice and returns true when the chain is
	// finished (budget spent, bound reached, context cancelled, or every
	// arm stalled). elite, when non-nil, is the best snapshot merged
	// across all chains after the previous round; a chain lagging strictly
	// behind it restarts from the elite before picking its next arm. The
	// driver must never mutate elite mid-round.
	RunRound(ctx context.Context, elite *Elite) bool
	// Best returns the chain's best snapshot so far. The ProcOf slice
	// aliases chain-owned memory that is only valid until the next
	// RunRound call — drivers copy it into their own buffers.
	Best() Elite
	// Finish commits the chain's best incumbent into its session and
	// returns the completed trace. Idempotent; safe after any round.
	Finish() Trace
}

// Portfolio is the adaptive portfolio refiner. It races the strategies
// Budget.Arms names (nil = DefaultPortfolioArms; entries naming the
// portfolio itself or unregistered strategies are skipped, callers validate
// upstream, see core.Options.PortfolioArms) over Budget.Rounds budget
// slices (0 = defaultPortfolioRounds). Small budgets use fewer rounds so
// each slice prices at least minRoundTrials candidates.
type Portfolio struct{}

// Name implements Refiner.
func (*Portfolio) Name() string { return "portfolio" }

// Refine implements Refiner: the single-chain path (Map, RunContext,
// CompareRefiners, BenchmarkRefiners) runs the rounds back to back with no
// elite exchange.
//
//mapcheck:noalloc
func (p *Portfolio) Refine(ctx context.Context, sess *schedule.SwapSession, b Budget, rng *rand.Rand) Trace {
	//mapcheck:allow per-run chain state, amortized over the trial budget
	c := p.NewChainState(sess, b, rng)
	for !c.RunRound(ctx, nil) {
	}
	return c.Finish()
}

// NewChainState implements RoundRefiner.
func (*Portfolio) NewChainState(sess *schedule.SwapSession, b Budget, rng *rand.Rand) ChainState {
	names := b.Arms
	if len(names) == 0 {
		names = DefaultPortfolioArms
	}
	arms := portfolioArmsFor(names)
	if len(arms) == 0 {
		// Every requested arm was unknown or the portfolio itself; fall
		// back to the defaults rather than searching with no arms.
		arms = portfolioArmsFor(DefaultPortfolioArms)
	}
	rounds := b.Rounds
	if rounds <= 0 {
		rounds = defaultPortfolioRounds
	}
	if cap := b.Trials / minRoundTrials; rounds > cap {
		rounds = cap
	}
	if rounds < 1 {
		rounds = 1
	}
	b.Free = b.free(sess)
	b.FreeProcs = b.freeProcs(sess, b.Free)
	c := &portfolioChain{
		sess:      sess,
		budget:    b,
		rng:       rng,
		arms:      arms,
		rounds:    rounds,
		initial:   sess.TotalTime(),
		bestTotal: sess.TotalTime(),
		bestProc:  make([]int, sess.K()),
	}
	copy(c.bestProc, sess.ProcOf())
	if b.Trials <= 0 || len(b.Free) < 2 {
		c.done = true
	}
	return c
}

// portfolioArmsFor instantiates the named arms, skipping self-references
// and unknown names.
func portfolioArmsFor(names []string) []portfolioArm {
	arms := make([]portfolioArm, 0, len(names))
	for _, name := range names {
		if name == "portfolio" {
			continue
		}
		ref, err := RefinerByName(name)
		if err != nil {
			continue
		}
		arms = append(arms, portfolioArm{name: name, ref: ref})
	}
	return arms
}

// portfolioArm is one strategy's bandit bookkeeping within a chain. plays,
// trials and improved are lifetime counters (they become ArmStats); discR
// and discN are the geometrically discounted reward sum and play count the
// UCB1 rule actually ranks.
type portfolioArm struct {
	name     string
	ref      Refiner
	plays    int
	trials   int
	improved int
	discR    float64
	discN    float64
}

// portfolioChain implements ChainState. Its budget holds the resolved free
// lists every round's slice shares.
type portfolioChain struct {
	sess   *schedule.SwapSession
	budget Budget
	rng    *rand.Rand
	arms   []portfolioArm
	rounds int

	initial   int
	bestTotal int
	bestProc  []int
	bestArm   string

	round    int
	spent    int
	stalls   int
	atBound  bool
	done     bool
	finished bool
	tr       Trace
}

// RunRound implements ChainState. This is the portfolio hot loop: all
// per-chain buffers are allocated once in NewChainState, so a round adds no
// allocations of its own beyond the waived trace append.
//
//mapcheck:noalloc
func (c *portfolioChain) RunRound(ctx context.Context, elite *Elite) bool {
	if c.done {
		return true
	}
	if ctx.Err() != nil || c.spent >= c.budget.Trials {
		c.done = true
		return true
	}
	// Lagging-chain restart: adopt a strictly better merged elite before
	// picking the next arm. The elite's total is already exact, so adoption
	// is bookkeeping (one committed-state rebuild), not a priced trial.
	if elite != nil && elite.Total < c.bestTotal {
		c.sess.CommitAssign(elite.ProcOf, elite.Total)
		c.bestTotal = elite.Total
		copy(c.bestProc, elite.ProcOf)
		c.bestArm = elite.Arm
	}
	// Age every arm's reward before selecting, so the bandit tracks the
	// non-stationary improvement rate instead of early-round glory.
	for i := range c.arms {
		c.arms[i].discR *= portfolioDiscount
		c.arms[i].discN *= portfolioDiscount
	}
	arm := c.pickArm()
	remaining := c.budget.Trials - c.spent
	roundsLeft := c.rounds - c.round
	if roundsLeft < 1 {
		roundsLeft = 1
	}
	slice := (remaining + roundsLeft - 1) / roundsLeft
	before := c.sess.TotalTime()
	sub := arm.ref.Refine(ctx, c.sess, c.budget.slice(slice), c.rng)
	c.round++
	c.spent += sub.Trials
	c.tr.Improved += sub.Improved
	if len(sub.Totals) > 0 {
		//mapcheck:allow convergence-trace append, only when Budget.RecordTrials is set
		c.tr.Totals = append(c.tr.Totals, sub.Totals...)
	}
	arm.plays++
	arm.trials += sub.Trials
	arm.improved += sub.Improved
	if sub.Trials > 0 && sub.Final < before && c.initial > 0 {
		arm.discR += float64(before-sub.Final) / (float64(c.initial) * float64(sub.Trials))
	}
	arm.discN++
	if sub.Final < c.bestTotal {
		c.bestTotal = sub.Final
		copy(c.bestProc, c.sess.ProcOf())
		c.bestArm = arm.name
	}
	if sub.Trials == 0 {
		c.stalls++
	} else {
		c.stalls = 0
	}
	if sub.AtBound {
		c.atBound = true
		c.done = true
	}
	if c.spent >= c.budget.Trials || c.round >= c.rounds || c.stalls > len(c.arms) || ctx.Err() != nil {
		c.done = true
	}
	return c.done
}

// pickArm applies discounted UCB1 over normalised mean rewards: unplayed
// (or fully aged-out) arms first in declaration order, then the highest
// index wins with ties broken toward the lowest arm — no rng is consumed,
// keeping runs bit-reproducible and the arms' random streams clean.
//
//mapcheck:noalloc
func (c *portfolioChain) pickArm() *portfolioArm {
	for i := range c.arms {
		if c.arms[i].plays == 0 || c.arms[i].discN < 1e-6 {
			return &c.arms[i]
		}
	}
	totalN, maxMean := 0.0, 0.0
	for i := range c.arms {
		totalN += c.arms[i].discN
		if m := c.arms[i].discR / c.arms[i].discN; m > maxMean {
			maxMean = m
		}
	}
	lnN := math.Log(1 + totalN)
	best, bestIdx := 0, math.Inf(-1)
	for i := range c.arms {
		a := &c.arms[i]
		norm := 0.0
		if maxMean > 0 {
			norm = a.discR / a.discN / maxMean
		}
		if idx := norm + portfolioExplore*math.Sqrt(lnN/a.discN); idx > bestIdx {
			best, bestIdx = i, idx
		}
	}
	return &c.arms[best]
}

// Best implements ChainState.
func (c *portfolioChain) Best() Elite {
	return Elite{ProcOf: c.bestProc, Total: c.bestTotal, Arm: c.bestArm}
}

// Finish implements ChainState.
func (c *portfolioChain) Finish() Trace {
	if c.finished {
		return c.tr
	}
	c.finished = true
	c.done = true
	if c.bestTotal < c.sess.TotalTime() {
		c.sess.CommitAssign(c.bestProc, c.bestTotal)
	}
	c.tr.Trials = c.spent
	c.tr.Final = c.bestTotal
	c.tr.AtBound = c.atBound
	c.tr.WinningArm = c.bestArm
	c.tr.Arms = make([]ArmStats, len(c.arms))
	for i := range c.arms {
		a := &c.arms[i]
		c.tr.Arms[i] = ArmStats{Name: a.name, Rounds: a.plays, Trials: a.trials, Improved: a.improved}
	}
	return c.tr
}
