package core

import (
	"context"
	"fmt"
	"math/rand"

	"mimdmap/internal/critical"
	"mimdmap/internal/graph"
	"mimdmap/internal/ideal"
	"mimdmap/internal/parallel"
	"mimdmap/internal/paths"
	"mimdmap/internal/schedule"
	"mimdmap/internal/search"
)

// Options configures the mapper. The zero value reproduces the paper's
// algorithm (Paper propagation, ns refinement trials, random-change
// refinement with the termination condition on).
type Options struct {
	// Propagation selects the critical-edge propagation mode (§4.2);
	// the default critical.Paper follows the paper's algorithm literally.
	Propagation critical.Propagation
	// MaxRefinements bounds the refinement loop. 0 means the paper's
	// default of ns trials ("a total of ns changes are allowed", §4.3.3);
	// negative disables refinement entirely (initial assignment only).
	MaxRefinements int
	// Refiner selects the local-search strategy that improves the initial
	// assignment, plugged in over the swap session. nil means the
	// paper's §4.3.3 random-change refinement (search.Paper);
	// search.FullReshuffle is the literal reading of its step 4(a).
	// Instances must be safe for concurrent chains (see search.Refiner);
	// use search.RefinerByName to resolve registered strategy names.
	Refiner search.Refiner
	// Rand drives the random-change refinement. nil seeds a deterministic
	// generator (seed 1) so results are reproducible by default.
	Rand *rand.Rand
	// DisableTermination turns off the lower-bound early exit, forcing the
	// full refinement budget to run. Only the termination-condition
	// ablation uses this; the paper's algorithm keeps it on.
	DisableTermination bool
	// RecordTrials makes Run record every refinement trial's total time in
	// Result.Trials, for convergence analysis.
	RecordTrials bool
	// Delays optionally assigns heterogeneous per-link delay factors
	// (≥ 1); communication then costs weight × weighted shortest distance.
	// nil means the paper's unit-delay machine. All delays ≥ 1 keep the
	// ideal graph a valid lower bound, so the termination condition stays
	// sound.
	Delays *paths.LinkDelays
	// Dist optionally supplies a precomputed shortest-path table for the
	// system graph, letting callers that map many problems onto one machine
	// (the service-layer solver) amortise paths.New. It must have been
	// computed from the same system graph; New rejects a size mismatch.
	// Ignored when Delays is set, because weighted tables are delay-specific.
	Dist *paths.Table
	// Starts is the number of independent refinement chains RunParallel
	// runs from the (deterministic) initial assignment. 0 or 1 reproduce
	// the paper's single sequential chain; chain 0 always consumes Rand,
	// so Starts == 1 is bit-identical to Run. Ignored by Run itself.
	Starts int
	// Workers caps how many chains RunParallel executes concurrently;
	// 0 means one per available CPU (runtime.GOMAXPROCS(0)).
	Workers int
	// Seed is the root from which chains beyond the first derive their
	// generators (parallel.DeriveSeed(Seed, chain)). 0 means 1. Chain 0
	// uses Rand, keeping single-start runs identical to the sequential
	// path regardless of Seed.
	Seed int64
	// Incumbent warm-starts refinement from a known-good assignment — the
	// online-remapping path, where a previous solution projected across a
	// structural delta replaces the paper's §4.3.2 initial assignment. It
	// must be a bijection of [0, K); New rejects anything else. With an
	// incumbent no cluster is frozen (the incumbent's seats may contradict
	// the critical-adjacency heuristic, so pinning would freeze wrong
	// placements), and the run is guaranteed never to return a result worse
	// than the incumbent itself: if the configured refiner ends worse
	// (annealing can), the incumbent is restored. nil reproduces the
	// paper's cold path exactly.
	Incumbent *schedule.Assignment
	// PortfolioRounds sets how many budget slices the adaptive portfolio
	// refiner schedules per chain (0 = the portfolio's default). Ignored
	// unless the run's refiner is the portfolio.
	PortfolioRounds int
	// PortfolioArms names the strategies the adaptive portfolio races
	// (nil = the portfolio's default arm set). Every name must resolve in
	// the refiner registry and may not be "portfolio" itself; New rejects
	// anything else. Ignored unless the run's refiner is the portfolio.
	PortfolioArms []string
}

// Result is the outcome of a mapping run.
type Result struct {
	// Assignment maps each cluster to its processor.
	Assignment *schedule.Assignment
	// TotalTime is the complete execution time under Assignment.
	TotalTime int
	// LowerBound is the ideal-graph lower bound (§4.1 Algorithm II).
	LowerBound int
	// OptimalProven reports that TotalTime == LowerBound, in which case
	// Theorem 3 guarantees the assignment is optimal and refinement was
	// cut short by the termination condition.
	OptimalProven bool
	// InitialTotalTime is the total time of the initial assignment, before
	// any refinement.
	InitialTotalTime int
	// Refinements is the number of refinement trials actually performed.
	Refinements int
	// Improved is the number of refinement trials that lowered the total
	// time.
	Improved int
	// FrozenClusters marks the critical abstract nodes pinned during
	// refinement (definition 5 of §2.1).
	FrozenClusters []bool
	// Trials records the total time observed at every refinement trial,
	// in order, when Options.RecordTrials is set (nil otherwise). Useful
	// for studying the refinement's convergence.
	Trials []int
	// Ideal is the derived ideal graph (start/end times, ideal edges).
	Ideal *ideal.Graph
	// Critical is the critical-edge analysis that guided the placement.
	Critical *critical.Analysis
	// Chain is the index of the refinement chain that produced this result
	// (always 0 for sequential runs; see RunParallel). Refinements,
	// Improved and Trials describe that winning chain only.
	Chain int
	// Arms reports the adaptive portfolio's per-arm budget split when the
	// run's refiner was the portfolio (nil otherwise). Multi-start runs
	// merge the split across every chain, unlike the per-chain counters
	// above.
	Arms []search.ArmStats
	// WinningArm names the portfolio arm that produced TotalTime ("" for
	// plain refiners, or when no arm improved the initial assignment).
	WinningArm string
}

// Mapper maps one clustered problem graph onto one system graph. Build it
// with New, then call Run. A Mapper is not safe for concurrent use because
// refinement consumes its random generator; create one per goroutine.
type Mapper struct {
	opts Options
	prob *graph.Problem
	clus *graph.Clustering
	sys  *graph.System
	dist *paths.Table
	eval *schedule.Evaluator

	// freeClusters/freeProcs are the movable clusters and the processors
	// they may occupy, computed once per analyse and shared read-only by
	// every refinement chain.
	freeClusters, freeProcs []int
}

// New validates the inputs and builds a Mapper. The clustering must have
// exactly as many clusters as the system has processors (na == ns), every
// cluster non-empty, and the problem graph must be a DAG.
func New(p *graph.Problem, c *graph.Clustering, s *graph.System, opts Options) (*Mapper, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if c.NumTasks() != p.NumTasks() {
		return nil, fmt.Errorf("core: clustering covers %d tasks, problem has %d", c.NumTasks(), p.NumTasks())
	}
	if c.K != s.NumNodes() {
		return nil, fmt.Errorf("core: %d clusters must equal %d system nodes", c.K, s.NumNodes())
	}
	if opts.Rand == nil {
		opts.Rand = rand.New(rand.NewSource(1))
	}
	if inc := opts.Incumbent; inc != nil {
		if inc.K() != c.K {
			return nil, fmt.Errorf("core: incumbent covers %d clusters, instance has %d", inc.K(), c.K)
		}
		if err := inc.Validate(); err != nil {
			return nil, fmt.Errorf("core: invalid incumbent: %w", err)
		}
	}
	for _, arm := range opts.PortfolioArms {
		if arm == "portfolio" {
			return nil, fmt.Errorf("core: portfolio arm %q would nest the portfolio in itself", arm)
		}
		if _, aerr := search.RefinerByName(arm); aerr != nil {
			return nil, fmt.Errorf("core: invalid portfolio arm: %w", aerr)
		}
	}
	var dist *paths.Table
	switch {
	case opts.Delays != nil:
		var derr error
		dist, derr = paths.NewWeighted(s, opts.Delays)
		if derr != nil {
			return nil, derr
		}
	case opts.Dist != nil:
		if opts.Dist.NumNodes() != s.NumNodes() {
			return nil, fmt.Errorf("core: distance table covers %d nodes, system has %d", opts.Dist.NumNodes(), s.NumNodes())
		}
		dist = opts.Dist
	default:
		dist = paths.New(s)
	}
	eval, err := schedule.NewEvaluator(p, c, dist)
	if err != nil {
		return nil, err
	}
	return &Mapper{
		opts: opts,
		prob: p,
		clus: c,
		sys:  s,
		dist: dist,
		eval: eval,
	}, nil
}

// Evaluator exposes the mapper's assignment evaluator, so callers can
// re-evaluate or inspect schedules without rebuilding state.
func (m *Mapper) Evaluator() *schedule.Evaluator { return m.eval }

// Dist exposes the system's shortest-path table.
func (m *Mapper) Dist() *paths.Table { return m.dist }

// Run executes the full strategy: derive the ideal graph and lower bound,
// analyse critical edges, build the initial assignment, then refine.
func (m *Mapper) Run() (*Result, error) {
	return m.RunContext(context.Background())
}

// RunContext is Run with cancellation: if ctx is cancelled mid-refinement
// the best assignment found so far is returned (the initial-assignment and
// analysis phases always run to completion). ctx does not influence the
// refinement's random stream, so an uncancelled RunContext equals Run.
func (m *Mapper) RunContext(ctx context.Context) (*Result, error) {
	res, err := m.analyse()
	if err != nil || res.OptimalProven {
		return res, err
	}
	m.refine(ctx, 0, res)
	return res, nil
}

// analyse runs everything before refinement: ideal graph, critical edges,
// initial assignment, and the pre-refinement termination check. The result
// is the common starting state of every refinement chain.
func (m *Mapper) analyse() (*Result, error) {
	ig, err := ideal.Derive(m.prob, m.clus)
	if err != nil {
		return nil, err
	}
	crit := critical.Analyze(m.prob, m.clus, ig, m.opts.Propagation)

	var assign *schedule.Assignment
	var frozen []bool
	if inc := m.opts.Incumbent; inc != nil {
		// Warm start: the projected previous solution replaces the §4.3.2
		// initial assignment, and every cluster stays movable — the
		// incumbent's seats need not respect the critical-adjacency
		// heuristic, so freezing would pin arbitrary placements.
		assign = schedule.FromPerm(inc.ProcOf)
		frozen = make([]bool, m.clus.K)
	} else {
		// Only the §4.3.2 placement reads the abstract graph, so warm
		// starts never build it.
		assign, frozen = m.initialAssignment(crit, graph.BuildAbstract(m.prob, m.clus))
	}
	res := &Result{
		Assignment:     assign,
		LowerBound:     ig.LowerBound,
		FrozenClusters: frozen,
		Ideal:          ig,
		Critical:       crit,
	}
	// Collect the movable clusters and the processors they may occupy:
	// everything not pinned by a critical abstract node. Every refinement
	// chain shares these read-only.
	m.freeClusters = m.freeClusters[:0]
	m.freeProcs = m.freeProcs[:0]
	for k, isFrozen := range frozen {
		if !isFrozen {
			m.freeClusters = append(m.freeClusters, k)
			m.freeProcs = append(m.freeProcs, assign.ProcOf[k])
		}
	}
	res.TotalTime = m.eval.TotalTime(assign)
	res.InitialTotalTime = res.TotalTime
	if !m.opts.DisableTermination && res.TotalTime == res.LowerBound {
		res.OptimalProven = true
	}
	return res, nil
}

// refiner resolves the strategy one refinement chain runs: Options.Refiner
// when set, otherwise the paper's random-change refinement.
func (m *Mapper) refiner() search.Refiner {
	if m.opts.Refiner != nil {
		return m.opts.Refiner
	}
	return search.Paper{}
}

// budget is the trial budget of one refinement chain over the mapper's
// movable clusters; ok is false when refinement is off or nothing can move.
func (m *Mapper) budget(bound int) (b search.Budget, ok bool) {
	trials := m.opts.MaxRefinements
	if trials == 0 {
		trials = m.sys.NumNodes()
	}
	if trials < 0 || len(m.freeClusters) < 2 {
		return b, false
	}
	return search.Budget{
		Trials:             trials,
		Free:               m.freeClusters,
		FreeProcs:          m.freeProcs,
		LowerBound:         bound,
		DisableTermination: m.opts.DisableTermination,
		RecordTrials:       m.opts.RecordTrials,
		Rounds:             m.opts.PortfolioRounds,
		Arms:               m.opts.PortfolioArms,
	}, true
}

// chain returns the generator and evaluation handle of refinement chain i.
// Chain 0 consumes Options.Rand on the mapper's own evaluator, so a single
// chain is the sequential path. Chain i > 0 draws from a generator seeded
// with parallel.DeriveSeed(Options.Seed, i) (seed 0 means 1) and evaluates
// on a fork sharing the read-only precomputation: chains run concurrently
// and evaluation scratch is per evaluator.
func (m *Mapper) chain(i int) (*rand.Rand, *schedule.Evaluator) {
	if i == 0 {
		return m.opts.Rand, m.eval
	}
	seed := m.opts.Seed
	if seed == 0 {
		seed = 1
	}
	return rand.New(rand.NewSource(parallel.DeriveSeed(seed, i))), m.eval.Fork()
}

// fold writes a finished refinement chain into r: procOf is the chain's
// final assignment and tr its trace.
func (r *Result) fold(procOf []int, tr search.Trace) {
	copy(r.Assignment.ProcOf, procOf)
	r.TotalTime = tr.Final
	r.Refinements += tr.Trials
	r.Improved += tr.Improved
	r.Trials = append(r.Trials, tr.Totals...)
	r.Arms = tr.Arms
	r.WinningArm = tr.WinningArm
}

// refine runs the configured search strategy in place on res as chain i
// (see chain), stopping early when ctx is cancelled. The strategy prices
// its trials through a SwapSession committed to the chain's
// assignment (the construction of the session is the chain's only
// refinement allocation); the paper refiner's accept/reject decisions and
// random stream are bit-identical to the historical trial-at-a-time loop.
func (m *Mapper) refine(ctx context.Context, i int, res *Result) {
	b, ok := m.budget(res.LowerBound)
	if !ok {
		return
	}
	// Warm starts guarantee never-worse: snapshot the incumbent-derived
	// state so a refiner that may end above its starting point (annealing)
	// can be rolled back. Cold runs skip this entirely, keeping the paper
	// path bit-identical to before the seam existed.
	var snapshot []int
	preTotal := res.TotalTime
	if m.opts.Incumbent != nil {
		snapshot = append([]int(nil), res.Assignment.ProcOf...)
	}
	rng, ev := m.chain(i)
	sess := ev.NewSwapSession(res.Assignment)
	res.fold(sess.ProcOf(), m.refiner().Refine(ctx, sess, b, rng))
	if snapshot != nil && res.TotalTime > preTotal {
		copy(res.Assignment.ProcOf, snapshot)
		res.TotalTime = preTotal
	}
	res.OptimalProven = res.TotalTime == res.LowerBound
}
