package mimdmap

import (
	"context"

	"mimdmap/internal/search"
	"mimdmap/internal/service"
)

// The context-first solver API. A Request names a complete mapping run —
// problem, machine (direct or by topology spec), clustering (direct or by
// registered clusterer name), seed, options — and a Solver turns it into a
// Response: result, evaluated schedule, diagnostics, and timing. This is
// the primary entry point; Map and MapParallel are thin wrappers over it.
type (
	// Request describes one mapping problem to solve.
	Request = service.Request
	// Response is the outcome of solving one Request.
	Response = service.Response
	// Solver solves Requests, one at a time or in batches, through the
	// staged pipeline (validate → canonicalize → cache-lookup → plan →
	// execute → publish). It is safe for concurrent use; a long-lived
	// Solver replays repeated requests from a fingerprint-keyed response
	// cache, coalesces concurrent identical requests onto one execution,
	// and shares distance tables between machines with identical content.
	// Request.NoCache opts a request out of the replay layers.
	Solver = service.Solver
	// SolverStats is a snapshot of a Solver's cache and coalescing
	// counters (see Solver.Stats), JSON-ready for serving layers.
	SolverStats = service.Stats
	// Diagnostics reports how the solver resolved a request, including
	// whether the response came from the cache (CacheHit).
	Diagnostics = service.Diagnostics
	// ValidationError reports a malformed Request; servers map it to a
	// 400-class status with errors.As.
	ValidationError = service.ValidationError
	// ClustererFactory builds clusterer instances for RegisterClusterer.
	ClustererFactory = service.ClustererFactory
)

// MaxStarts is the most refinement chains (Options.Starts) a Solver races
// for one request; it rejects a larger value with a ValidationError.
const MaxStarts = service.MaxStarts

// NewSolver returns a Solver whose SolveBatch fans out over at most the
// given number of workers (0 = one per CPU).
func NewSolver(workers int) *Solver { return service.NewSolver(workers) }

// Solve solves one request with a throwaway Solver — the one-shot
// convenience path. Callers with many requests against the same machines
// should hold a Solver so its distance-table cache pays off.
func Solve(ctx context.Context, req *Request) (*Response, error) {
	return new(Solver).Solve(ctx, req)
}

// The named-clusterer registry, mirroring TopologyByName for machines: one
// source of truth for every CLI flag, the server, and Request.Clusterer.
var (
	// ClustererByName instantiates a registered clustering strategy; rng
	// seeds random strategies and is ignored by deterministic ones.
	ClustererByName = service.ClustererByName
	// RegisterClusterer adds a named strategy to the registry.
	RegisterClusterer = service.RegisterClusterer
	// ClustererNames returns the registered names, sorted.
	ClustererNames = service.ClustererNames
	// ClustererUsage renders the registered names as a comma-separated
	// list for flag help text.
	ClustererUsage = service.ClustererUsage
	// ClustererDoc returns the one-line description of a registered
	// strategy, or "" when it carries none.
	ClustererDoc = service.ClustererDoc
)

// The pluggable search engine. Every refinement and comparison strategy —
// the paper's §4.3.3 random-change refinement, pairwise exchange, simulated
// annealing, Bokhari's procedure — is a Refiner improving a committed
// swap session under an equal trial budget, and the named registry
// is the single source of truth for which strategies exist: CLI -refiner
// flags, Request.Refiner, the server's GET /strategies, and the
// CompareRefiners experiment all resolve through it.
type (
	// Refiner is one local-search strategy over cluster→processor
	// assignments; see Options.Refiner and Request.Refiner.
	Refiner = search.Refiner
	// RefinerFactory builds refiner instances for RegisterRefiner.
	RefinerFactory = search.RefinerFactory
	// SearchBudget bounds and parameterises one refinement run.
	SearchBudget = search.Budget
	// SearchTrace reports what one refinement run did.
	SearchTrace = search.Trace
	// Portfolio is the adaptive portfolio refiner ("portfolio" in the
	// registry): it slices the trial budget into rounds and schedules the
	// fixed strategies as bandit arms, racing them toward whichever is
	// improving, with elite incumbents shared across multi-start chains.
	// See Options.PortfolioRounds/PortfolioArms and
	// Diagnostics.PortfolioArms/WinningArm.
	Portfolio = search.Portfolio
	// ArmStats reports one portfolio arm's share of a run (rounds, trials,
	// improving trials); see Diagnostics.PortfolioArms.
	ArmStats = search.ArmStats
)

// DefaultPortfolioArms is the strategy set a portfolio races when no arms
// are configured, in deterministic first-exploration order.
var DefaultPortfolioArms = search.DefaultPortfolioArms

// The named-refiner registry, the clusterer registry's twin for search
// strategies.
var (
	// RefinerByName instantiates a registered search strategy.
	RefinerByName = service.RefinerByName
	// RegisterRefiner adds a named search strategy to the registry.
	RegisterRefiner = service.RegisterRefiner
	// RefinerNames returns the registered names, sorted.
	RefinerNames = service.RefinerNames
	// RefinerUsage renders the registered names as a comma-separated list
	// for flag help text.
	RefinerUsage = service.RefinerUsage
	// RefinerDoc returns the one-line description of a registered search
	// strategy, or "" when it carries none.
	RefinerDoc = service.RefinerDoc
)
