package mimdmap

import (
	"math/rand"

	"mimdmap/internal/baseline"
	"mimdmap/internal/critical"
	"mimdmap/internal/exact"
	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/paths"
	"mimdmap/internal/schedule"
	"mimdmap/internal/textplot"
)

// Structured workload generators — regular parallel programs of the kind
// the paper's introduction motivates. All return validated task DAGs.
var (
	// Pipeline returns a linear chain of stages.
	Pipeline = gen.Pipeline
	// ForkJoin returns repeated fork-join stages of the given width.
	ForkJoin = gen.ForkJoin
	// Butterfly returns the FFT butterfly DAG on 2^logN points.
	Butterfly = gen.Butterfly
	// GaussianElimination returns the pivot/update DAG of column-oriented
	// Gaussian elimination on an n×n matrix.
	GaussianElimination = gen.GaussianElimination
	// Wavefront returns the 2-D wavefront sweep DAG over a grid.
	Wavefront = gen.Wavefront
	// DivideConquer returns a divide-and-combine DAG of the given depth.
	DivideConquer = gen.DivideConquer
	// LU returns the task DAG of right-looking tiled LU factorisation.
	LU = gen.LU
	// Cholesky returns the task DAG of right-looking tiled Cholesky
	// factorisation.
	Cholesky = gen.Cholesky
)

// LayeredProblemConfig configures LayeredProblem.
type LayeredProblemConfig = gen.LayeredConfig

// LayeredProblem generates a random DAG with an explicit depth/width
// profile.
func LayeredProblem(cfg LayeredProblemConfig, rng *rand.Rand) (*Problem, error) {
	return gen.Layered(cfg, rng)
}

// Baseline mappers — the strategies the paper compares against (§1, §2.2).

// MaxCardinality searches for an assignment maximising Bokhari's
// cardinality measure (ref [1] of the paper) by restarted pairwise
// exchange, returning the assignment and its cardinality.
func MaxCardinality(e *Evaluator, restarts int, rng *rand.Rand) (*Assignment, int) {
	return baseline.MaxCardinality(e, restarts, rng)
}

// MinCommCost searches for an assignment minimising the Lee-style phased
// communication cost (ref [2] of the paper), returning the assignment and
// its cost.
func MinCommCost(e *Evaluator, restarts int, rng *rand.Rand) (*Assignment, int) {
	return baseline.MinCommCost(e, restarts, rng)
}

// CommPhases groups the clustered problem edges by source topological
// level — the phase structure of the Lee-style cost measure. Each phase
// lists edge IDs; e.View().Arcs() gives their endpoints.
func CommPhases(e *Evaluator) [][]int { return baseline.Phases(e) }

// CommCost returns the phased communication cost of an assignment.
func CommCost(e *Evaluator, phases [][]int, a *Assignment) int {
	return baseline.CommCost(e, phases, a)
}

// AnnealOptions configures simulated annealing.
type AnnealOptions = baseline.AnnealOptions

// Anneal minimises the total time by simulated annealing (refs [3] and [14]
// of the paper) from a random assignment, running the registered "anneal"
// search strategy; opts.Steps is its trial budget. It returns the best
// assignment seen and its total time. Deterministic given rng.
func Anneal(e *Evaluator, opts AnnealOptions, rng *rand.Rand) (*Assignment, int) {
	return baseline.AnnealTotalTime(e, opts, rng)
}

// RandomAssignment returns a uniformly random cluster→processor bijection.
func RandomAssignment(k int, rng *rand.Rand) *Assignment {
	return baseline.RandomAssignment(k, rng)
}

// BokhariOptions configures Bokhari's 1981 mapping algorithm.
type BokhariOptions = baseline.BokhariOptions

// Bokhari runs the full Bokhari mapping procedure (ref [1] of the paper):
// pairwise-exchange ascent on cardinality with probabilistic jumps.
func Bokhari(e *Evaluator, opts BokhariOptions, rng *rand.Rand) (*Assignment, int) {
	return baseline.Bokhari(e, opts, rng)
}

// Message is one inter-processor transfer of an evaluated schedule.
type Message = schedule.Message

// TraceStats summarises a message trace.
type TraceStats = schedule.TraceStats

// TraceMessageStats computes summary statistics of a message trace.
func TraceMessageStats(msgs []Message) TraceStats { return schedule.Stats(msgs) }

// LongestCriticalChain extracts one maximal tight path of the ideal graph
// (source → latest task); its task sizes plus clustered communication
// weights sum exactly to the lower bound.
func LongestCriticalChain(p *Problem, g *IdealGraph) []int {
	return critical.LongestCriticalChain(p, g)
}

// Graphviz DOT export.
var (
	// WriteProblemDOT writes a problem graph (optionally grouped by
	// clusters) as a DOT digraph.
	WriteProblemDOT = graph.WriteProblemDOT
	// WriteSystemDOT writes a machine as an undirected DOT graph.
	WriteSystemDOT = graph.WriteSystemDOT
)

// RenderGantt draws a processors×time execution chart of an evaluated
// schedule, in the style of the paper's Figs. 6, 10, 12 and 24.
func RenderGantt(res *Schedule, c *Clustering, a *Assignment, numProcs int) string {
	return textplot.Gantt(res, c.Of, a.ProcOf, numProcs)
}

// FromPerm builds an assignment from a cluster→processor permutation;
// the slice is copied.
func FromPerm(perm []int) *Assignment { return schedule.FromPerm(perm) }

// LinkDelays assigns heterogeneous per-link delay factors to a machine
// (Options.Delays). Start from UnitLinkDelays, write a link's delay with
// Set(a, b, delay) (it applies to both directions) and read one with
// At(a, b). All delays on links must be ≥ 1.
type LinkDelays = paths.LinkDelays

// UnitLinkDelays returns delay 1 on every link of an n-node machine.
func UnitLinkDelays(n int) *LinkDelays { return paths.NewLinkDelays(n) }

// WeightedDistances computes the all-pairs weighted shortest-path table of
// a machine under heterogeneous link delays (Dijkstra).
func WeightedDistances(sys *System, delays *LinkDelays) (*DistanceTable, error) {
	return paths.NewWeighted(sys, delays)
}

// NewEvaluatorWithDistances builds an evaluator over a custom distance
// table (e.g. from WeightedDistances).
func NewEvaluatorWithDistances(p *Problem, c *Clustering, dist *DistanceTable) (*Evaluator, error) {
	return schedule.NewEvaluator(p, c, dist)
}

// RouteTable holds the canonical shortest-path routes of a machine, used by
// the link-contention evaluator. It exports no fields: Path(a, b) returns a
// route's processors and Links(a, b) its canonical link IDs.
type RouteTable = paths.Routes

// NewRouteTable derives canonical (lowest-neighbour) shortest-path routes
// for a machine. Pass the result to Evaluator.EvaluateLinkContended.
func NewRouteTable(sys *System) *RouteTable {
	return paths.NewRoutes(sys, paths.New(sys))
}

// ExactOptions bounds the exact branch-and-bound search.
type ExactOptions = exact.Options

// ExactResult is the outcome of an exact search.
type ExactResult = exact.Result

// SolveExact finds a provably optimal assignment by branch and bound — an
// extension beyond the paper, tractable for small machines (ns ≲ 10).
// idealBound is the ideal-graph lower bound (0 if unknown); reaching it
// stops the search early by Theorem 3.
func SolveExact(e *Evaluator, idealBound int, opts ExactOptions) *ExactResult {
	return exact.Solve(e, idealBound, opts)
}
