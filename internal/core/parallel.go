package core

import (
	"context"
	"sync"

	"mimdmap/internal/graph"
	"mimdmap/internal/parallel"
	"mimdmap/internal/search"
)

// RunParallel executes the strategy with Options.Starts independent
// refinement chains. The analysis phase (ideal graph, critical edges,
// initial assignment) runs once; every chain then refines its own copy of
// the initial assignment with its own generator — chain 0 consumes
// Options.Rand exactly as the sequential path would, chains i > 0 use
// generators seeded with parallel.DeriveSeed(Options.Seed, i). At most
// Options.Workers chains run at once. The best result wins; on equal total
// times the lowest chain index is preferred.
//
// The moment a chain reaches the ideal-graph lower bound, Theorem 3
// proves its assignment optimal, so every chain with a higher index is
// cancelled or never started (unless Options.DisableTermination is set).
// Chains with a lower index run on: the lowest-index optimal chain wins,
// as it would when the chains run one after another.
//
// Determinism: the whole Result is reproducible for fixed options at any
// worker count. Cancellation only ever removes chains that could not win:
// a cancelled chain has a higher index than an optimal one, whose total
// it cannot beat. With Starts <= 1 the run is bit-identical to Run.
// Cancelling ctx stops refinement early and returns the best assignment
// found so far, never an error.
func (m *Mapper) RunParallel(ctx context.Context) (*Result, error) {
	starts := m.opts.Starts
	if starts <= 1 {
		return m.RunContext(ctx)
	}
	base, err := m.analyse()
	if err != nil || base.OptimalProven {
		return base, err
	}
	if rr, ok := m.refiner().(search.RoundRefiner); ok {
		return m.runRounds(ctx, rr, base)
	}
	results := make([]*Result, starts)
	var (
		mu      sync.Mutex
		optimal = starts                             // lowest chain index that proved optimality
		cancels = make([]context.CancelFunc, starts) // of the chains running now
	)
	// Chains never return an error, so ForEach can only report the
	// caller's cancellation, which leaves the best-so-far selection below
	// valid.
	_ = parallel.ForEach(ctx, starts, m.opts.Workers, func(chainCtx context.Context, i int) error {
		mu.Lock()
		if i > optimal {
			mu.Unlock()
			return nil
		}
		chainCtx, cancel := context.WithCancel(chainCtx)
		defer cancel()
		cancels[i] = cancel
		mu.Unlock()
		res := base.forChain(i)
		m.refine(chainCtx, i, res)
		results[i] = res
		mu.Lock()
		defer mu.Unlock()
		cancels[i] = nil
		if res.OptimalProven && !m.opts.DisableTermination && i < optimal {
			optimal = i
			for _, c := range cancels[i+1:] {
				if c != nil {
					c()
				}
			}
		}
		return nil
	})
	var best *Result
	for _, r := range results {
		if r == nil {
			continue
		}
		if best == nil || r.TotalTime < best.TotalTime {
			best = r
		}
	}
	if best == nil {
		// ctx was cancelled before any chain ran: the initial assignment
		// is still a complete, valid mapping.
		best = base
	}
	return best, nil
}

// runRounds is the multi-start path for round-capable refiners (the
// adaptive portfolio): instead of running every chain's Refine to
// completion independently, it drives all chains in lockstep, one
// parallel.ForEach per round. The ForEach return is the round barrier —
// chains publish their best snapshot into a per-chain exchange slot during
// the round, the driver merges the slots sequentially between rounds, and
// the merged elite is offered to every chain at the start of the next
// round. Because the merge is sequential and deterministic (lowest total,
// then lowest chain index) and chains never observe each other mid-round,
// the entire Result — assignment bytes included — is bit-reproducible at a
// fixed seed and independent of Options.Workers. For the same reason there
// is no mid-round lower-bound cancellation: a chain that proves optimality
// finishes its round, and the driver stops everything at the next barrier.
func (m *Mapper) runRounds(ctx context.Context, rr search.RoundRefiner, base *Result) (*Result, error) {
	starts := m.opts.Starts
	b, ok := m.budget(base.LowerBound)
	if !ok {
		return base, nil
	}
	type chainRun struct {
		res   *Result
		state search.ChainState
		done  bool
	}
	chains := make([]chainRun, starts)
	for i := range chains {
		rng, ev := m.chain(i)
		chains[i].res = base.forChain(i)
		chains[i].state = rr.NewChainState(ev.NewSwapSession(chains[i].res.Assignment), b, rng)
	}
	ex := newEliteExchange(starts, m.clus.K)
	for ctx.Err() == nil {
		elite := ex.elite()
		_ = parallel.ForEach(ctx, starts, m.opts.Workers, func(cctx context.Context, i int) error {
			if !chains[i].done {
				chains[i].done = chains[i].state.RunRound(cctx, elite)
				ex.publish(i, chains[i].state.Best())
			}
			return nil
		})
		ex.merge()
		allDone := true
		for i := range chains {
			if !chains[i].done {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		if e := ex.elite(); e != nil && !m.opts.DisableTermination && e.Total == base.LowerBound {
			break
		}
	}
	var best *Result
	for i := range chains {
		res := chains[i].res
		res.fold(chains[i].state.Best().ProcOf, chains[i].state.Finish())
		res.OptimalProven = res.TotalTime == res.LowerBound
		if best == nil || res.TotalTime < best.TotalTime {
			best = res
		}
	}
	best.Arms = mergeArmStats(chains[0].state.Finish().Arms, func(i int) []search.ArmStats {
		return chains[i].state.Finish().Arms
	}, starts)
	return best, nil
}

// forChain returns chain i's own copy of the analysed starting state.
func (r *Result) forChain(i int) *Result {
	return &Result{
		Assignment:       r.Assignment.Clone(),
		TotalTime:        r.TotalTime,
		LowerBound:       r.LowerBound,
		InitialTotalTime: r.InitialTotalTime,
		FrozenClusters:   r.FrozenClusters,
		Ideal:            r.Ideal,
		Critical:         r.Critical,
		Chain:            i,
	}
}

// mergeArmStats sums the per-arm budget split across all chains, keeping
// chain 0's arm order.
func mergeArmStats(first []search.ArmStats, armsOf func(int) []search.ArmStats, starts int) []search.ArmStats {
	merged := make([]search.ArmStats, len(first))
	copy(merged, first)
	for i := 1; i < starts; i++ {
		for _, a := range armsOf(i) {
			for j := range merged {
				if merged[j].Name == a.Name {
					merged[j].Rounds += a.Rounds
					merged[j].Trials += a.Trials
					merged[j].Improved += a.Improved
					break
				}
			}
		}
	}
	return merged
}

// eliteExchange is the concurrency-safe elite-incumbent pool of the
// lockstep portfolio path. Each chain owns one snapshot slot it overwrites
// during a round (publish copies into exchange-owned buffers, so no chain
// memory is aliased); merge runs between rounds, on the driver goroutine,
// and folds the slots into one elite with a deterministic rule — lowest
// total, ties to the lowest chain index. elite exposes the merged snapshot;
// its buffer is only rewritten inside merge, never mid-round, so chains may
// read it without copying for the duration of a round.
type eliteExchange struct {
	mu    sync.Mutex
	snaps []search.Elite
	has   []bool
	best  search.Elite
	ok    bool
}

func newEliteExchange(starts, k int) *eliteExchange {
	x := &eliteExchange{snaps: make([]search.Elite, starts), has: make([]bool, starts)}
	for i := range x.snaps {
		x.snaps[i].ProcOf = make([]int, k)
	}
	x.best.ProcOf = make([]int, k)
	return x
}

// publish records chain i's best snapshot. Chains only write their own
// slot, but the mutex keeps the exchange safe under any driver.
func (x *eliteExchange) publish(i int, e search.Elite) {
	x.mu.Lock()
	defer x.mu.Unlock()
	copy(x.snaps[i].ProcOf, e.ProcOf)
	x.snaps[i].Total = e.Total
	x.snaps[i].Arm = e.Arm
	x.has[i] = true
}

// merge folds the published slots into the shared elite. Driver-only,
// between rounds.
func (x *eliteExchange) merge() {
	x.mu.Lock()
	defer x.mu.Unlock()
	best := -1
	for i := range x.snaps {
		if x.has[i] && (best < 0 || x.snaps[i].Total < x.snaps[best].Total) {
			best = i
		}
	}
	if best < 0 {
		return
	}
	copy(x.best.ProcOf, x.snaps[best].ProcOf)
	x.best.Total = x.snaps[best].Total
	x.best.Arm = x.snaps[best].Arm
	x.ok = true
}

// elite returns the merged snapshot, nil before the first merge.
func (x *eliteExchange) elite() *search.Elite {
	if !x.ok {
		return nil
	}
	return &x.best
}

// MapParallel is the multi-start entry point: it validates the inputs and
// runs opts.Starts concurrent refinement chains (see Mapper.RunParallel).
// With opts.Starts <= 1 it is equivalent to building a Mapper and calling
// Run, so callers can thread a Starts option through unconditionally.
func MapParallel(ctx context.Context, p *graph.Problem, c *graph.Clustering, s *graph.System, opts Options) (*Result, error) {
	m, err := New(p, c, s, opts)
	if err != nil {
		return nil, err
	}
	return m.RunParallel(ctx)
}
