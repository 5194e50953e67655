package service

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mimdmap/internal/core"
	"mimdmap/internal/fleet"
	"mimdmap/internal/graph"
	"mimdmap/internal/parallel"
	"mimdmap/internal/paths"
	"mimdmap/internal/schedule"
	"mimdmap/internal/search"
)

// Seed streams: every random consumer of a request derives its generator
// from the request seed on its own stream, so clustering, topology
// construction, and refinement chains (streams 1..Starts-1 in core) never
// share state. The streams sit far above any plausible chain index.
const (
	clustererSeedStream = 1 << 30
	topologySeedStream  = 1<<30 + 1
)

// Request describes one mapping problem to solve. Exactly one of System or
// Topology must name the machine, and exactly one of Clustering or
// Clusterer must name the clustering step.
//
// Graphs handed to a caching Solver (Problem, System, Clustering) are
// retained by reference inside cached Responses, so they must not be
// mutated after the solve — a later cache hit would otherwise hand another
// caller a Response whose graphs disagree with its result. (The distance
// cache itself is mutation-proof — it keys by content — but the retained
// Response pointers are not.)
type Request struct {
	// Problem is the task DAG to map. Required.
	Problem *graph.Problem

	// System is the machine graph, given directly.
	System *graph.System
	// Topology alternatively names the machine as a spec string like
	// "mesh-4x4" or "hypercube-6" (see topology.ByName).
	Topology string

	// Clustering is the task→cluster partition, given directly.
	Clustering *graph.Clustering
	// Clusterer alternatively names a registered clustering strategy
	// (see ClustererByName) applied on the fly; the cluster count is the
	// machine size, as the paper requires.
	Clusterer string

	// Refiner names a registered search strategy (see RefinerByName) that
	// improves the initial assignment — "paper", "pairwise", "anneal", ….
	// Empty means the mapper's default, the paper's §4.3.3 random-change
	// refinement (or whatever Options.Refiner selects).
	// Mutually exclusive with Options.Refiner.
	Refiner string

	// Seed drives every random stream of the request: the clusterer, random
	// topology construction, and — unless Options.Rand is set — the
	// refinement chains. 0 means Options.Seed, or 1 if that is unset too.
	Seed int64

	// NoCache forces a full execution: the request skips the response
	// cache (lookup and store) and the in-flight coalescing. The distance
	// and topology caches still apply — NoCache bypasses the layers that
	// replay prior work, not the ones that share read-only tables.
	NoCache bool

	// LocalOnly answers the request on this solver even when a fleet
	// Forward hook is installed. The serving layer sets it on requests that
	// already crossed the forwarding hop, so ownership disagreements (a
	// mid-rollout peer-list skew) degrade to an extra local solve instead
	// of a forwarding loop. Excluded from the fingerprint: the response is
	// byte-identical either way.
	LocalOnly bool

	// NoShed makes admission control wait for a solve slot instead of
	// shedding under overload. Background work that was already admitted
	// once — an async job holding a store slot — sets it; interactive
	// traffic leaves it false and may be refused with fleet.ErrSaturated.
	// Excluded from the fingerprint.
	NoShed bool

	// Options tunes the mapper exactly as in the classic API. A nil-Rand
	// options struct has its Rand and Seed derived from the request Seed,
	// so one knob reproduces the whole run.
	Options core.Options

	// OmitSchedule skips evaluating the winning assignment's schedule,
	// leaving Response.Schedule nil — for callers that only need the
	// mapping (the classic Map/MapParallel wrappers set it).
	OmitSchedule bool
}

// Diagnostics reports how the solver resolved a request.
type Diagnostics struct {
	// Machine is the resolved system's name (topology label or "").
	Machine string
	// Nodes is the machine size ns.
	Nodes int
	// Clusterer is the name of the strategy that produced the clustering,
	// or "" when the request carried an explicit Clustering.
	Clusterer string
	// Refiner is the name of the search strategy that refined the mapping,
	// or "" when the request ran the mapper's default (or carried an
	// Options.Refiner instance directly).
	Refiner string
	// DistanceCached reports that the machine's shortest-path table came
	// from the solver's cache rather than a fresh paths.New.
	DistanceCached bool
	// CacheHit reports that the response was replayed from the solver's
	// response cache instead of being solved afresh. Everything
	// deterministic in a hit is byte-identical to the cold solve that
	// populated the entry.
	CacheHit bool
	// Coalesced reports that the request joined another caller's in-flight
	// execution of the same fingerprint and shares its result: the work
	// was not replayed from the cache (CacheHit is false) and not solved
	// by this request either. At most one of CacheHit and Coalesced is set.
	Coalesced bool
	// WarmStart reports that refinement started from a projected previous
	// assignment (Options.Incumbent) instead of the paper's initial
	// assignment — the Remap reuse path. It is a property of the execution
	// the response describes, so cache hits and coalesced rides replaying a
	// warm execution keep it set.
	WarmStart bool
	// Similarity is the structural similarity score (graph.Delta) between
	// the previous and the new instance that drove a Remap decision, in
	// [0,1]. It is annotated on the caller's response copy only; plain
	// Solve calls and zero-delta Remaps (which degenerate to plain solves,
	// preserving byte-identity with a cache hit) leave it zero.
	Similarity float64
	// PortfolioArms reports the adaptive portfolio's per-arm budget split —
	// which arms ran, how many rounds and trials each got, and how many
	// trials improved — merged across all refinement chains. nil unless the
	// run's refiner was the portfolio.
	PortfolioArms []search.ArmStats
	// WinningArm names the portfolio arm that produced the returned total
	// time ("" for plain refiners, or when no arm improved the initial
	// assignment).
	WinningArm string
	// Forwarded reports that the response was filled by the fleet peer
	// owning the request's fingerprint (the Forward hook) rather than
	// solved or cached here. Replaying a forwarded fill from the local
	// cache later sets CacheHit alongside it; the deterministic payload is
	// byte-identical wherever it was produced.
	Forwarded bool
	// Owner is the peer that owned (and answered) a forwarded request.
	Owner string
}

// Response is the outcome of solving one Request. Responses handed out by
// a caching Solver are shared between callers — treat every reachable
// field as read-only.
type Response struct {
	// Result is the full mapping result (assignment, total time, lower
	// bound, refinement statistics, ideal graph, critical analysis).
	Result *core.Result
	// Problem is the task DAG the response solved (identical to
	// Request.Problem). Retained so a Response is self-contained as the
	// "previous solution" a later Remap diffs against.
	Problem *graph.Problem
	// Schedule is the evaluated schedule of the winning assignment:
	// per-task start/end times, total time, latest tasks.
	Schedule *schedule.Result
	// System is the resolved machine graph (identical to Request.System
	// when that was given).
	System *graph.System
	// Clustering is the resolved clustering (identical to
	// Request.Clustering when that was given).
	Clustering *graph.Clustering
	// Diagnostics reports resolution details.
	Diagnostics Diagnostics
	// Elapsed is the wall-clock time the solve took — for a cache hit,
	// the lookup rather than the original execution.
	Elapsed time.Duration
	// Err is set instead of the other fields when this response's request
	// failed inside SolveBatch; Solve reports errors through its own return
	// value and always leaves Err nil.
	Err error
}

// ValidationError reports a malformed Request: a missing or contradictory
// field, an unknown strategy name, or inputs the mapper rejects. Servers
// can map it to a 400-class status with errors.As.
type ValidationError struct {
	// Field is the Request field at fault.
	Field string
	// Msg describes the problem.
	Msg string
	// Err is the underlying cause, if any.
	Err error
}

// Error implements error.
func (e *ValidationError) Error() string {
	var b strings.Builder
	b.WriteString("service: invalid request")
	if e.Field != "" {
		b.WriteString(": " + e.Field)
	}
	if e.Msg != "" {
		b.WriteString(": " + e.Msg)
	}
	if e.Err != nil {
		b.WriteString(": " + e.Err.Error())
	}
	return b.String()
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ValidationError) Unwrap() error { return e.Err }

// Solver solves mapping Requests through the staged pipeline (see
// pipeline.go). The zero value is ready to use; a Solver is safe for
// concurrent use and is meant to be long-lived so its layers pay off:
//
//   - a bounded LRU response cache keyed by the canonical request
//     fingerprint, replaying full Responses for repeated requests;
//   - in-flight deduplication, coalescing concurrent identical requests
//     onto one execution;
//   - a bounded LRU distance-table cache keyed by machine content, so a
//     fleet of requests against one machine computes paths.New once;
//   - a bounded LRU cache of machines built from topology specs.
//
// All caches key by content fingerprint, never pointer identity, so equal
// graphs from different callers share entries. Responses from a caching
// Solver are shared between callers: treat them as read-only. Stats
// snapshots the cache and coalescing counters. The bound fields must be
// set before the first Solve; they are fixed once the caches exist.
type Solver struct {
	// Workers bounds the SolveBatch fan-out (0 = one worker per CPU). It is
	// independent of Options.Workers, which bounds the refinement chains
	// within a single request.
	Workers int
	// MaxCachedMachines bounds the distance-table and topology caches
	// (0 = 64), each evicting least recently used first.
	MaxCachedMachines int
	// MaxCachedResults bounds the response cache (0 = 256), evicting
	// least recently used first.
	MaxCachedResults int
	// Clock supplies wall-clock readings for Response.Elapsed (nil =
	// time.Now). Injecting a fake clock makes the one nondeterministic
	// response field testable; nothing on the solve path itself reads it,
	// so the mapping stays byte-identical whatever the clock returns.
	Clock func() time.Time
	// MinWarmSimilarity is the structural-similarity threshold below which
	// Remap refuses to warm-start and solves cold instead (0 = 0.5). The
	// score is graph.Delta.Similarity: 1 means structurally identical.
	// Negative disables the floor entirely (always warm-start).
	MinWarmSimilarity float64
	// Admission, when set, gates the execute stage: a request that misses
	// every replay layer (cache, coalescing, forwarding) must take an
	// admission slot before planning, and may be shed with
	// fleet.ErrSaturated under overload (unless it sets Request.NoShed).
	// Replayed responses never consume slots — admission bounds the
	// expensive work, not the cheap one.
	Admission *fleet.Admission
	// Forward, when set, is consulted for every cacheable request that
	// misses the local cache: fleet mode forwards the fill to the peer
	// owning the fingerprint so each fingerprint is solved at most once
	// fleet-wide. See ForwardFunc for the contract. Must be set before the
	// first Solve.
	Forward ForwardFunc

	initOnce sync.Once
	results  *lruCache[*Response]
	dists    *lruCache[*paths.Table]
	systems  *lruCache[*graph.System]
	flight   flightGroup

	solves        atomic.Uint64
	coalesced     atomic.Uint64
	uncacheable   atomic.Uint64
	remaps        atomic.Uint64
	warmStarts    atomic.Uint64
	executions    atomic.Uint64
	forwarded     atomic.Uint64
	forwardErrors atomic.Uint64
}

// ForwardFunc lets a serving layer route a cache fill to the fleet peer
// owning the request's fingerprint. It is called by the forward stage for
// every cacheable request that missed the local cache (after this solver
// became the singleflight leader, so one replica makes at most one hop per
// fingerprint at a time) and returns:
//
//   - (resp, owner, nil): the owning peer produced resp. The pipeline
//     replicates it into the local response cache and answers with
//     Diagnostics.Forwarded set.
//   - (nil, "", nil): declined — this solver owns the key, or the request
//     cannot travel the wire. The pipeline solves locally.
//   - (nil, "", err): the hop failed (peer down, peer shedding). The
//     pipeline counts a forward error and falls back to solving locally,
//     so a mid-restart fleet degrades to independent replicas instead of
//     failing requests.
//
// The hook must not mutate req; a copy with LocalOnly set is what travels.
type ForwardFunc func(ctx context.Context, key string, req *Request) (*Response, string, error)

// NewSolver returns a Solver with the given batch fan-out bound
// (0 = one worker per CPU).
func NewSolver(workers int) *Solver { return &Solver{Workers: workers} }

// now reads the injected clock, defaulting to the system clock. It is the
// only wall-clock read on the solve path; Response.Elapsed is diagnostic
// and excluded from the determinism contract.
func (s *Solver) now() time.Time {
	if s.Clock != nil {
		return s.Clock()
	}
	//mapcheck:allow the clock-injection fallback is the one sanctioned wall-clock read
	return time.Now()
}

// init builds the caches on first use, fixing the configured bounds.
func (s *Solver) init() {
	s.initOnce.Do(func() {
		machines := s.MaxCachedMachines
		if machines <= 0 {
			machines = 64
		}
		results := s.MaxCachedResults
		if results <= 0 {
			results = 256
		}
		s.results = newLRU[*Response](results)
		s.dists = newLRU[*paths.Table](machines)
		s.systems = newLRU[*graph.System](machines)
	})
}

// Stats is a point-in-time snapshot of a Solver's cache and coalescing
// counters, JSON-ready for serving layers (mapserve's GET /stats).
type Stats struct {
	// Solves counts every Solve call, including batch members and hits.
	Solves uint64 `json:"solves"`

	// Response-cache counters: lookups that replayed a stored Response,
	// lookups that missed, entries evicted by the LRU bound, and the
	// current entry count.
	ResultHits      uint64 `json:"result_hits"`
	ResultMisses    uint64 `json:"result_misses"`
	ResultEvictions uint64 `json:"result_evictions"`
	CachedResults   int    `json:"cached_results"`

	// Distance-table cache counters.
	DistHits      uint64 `json:"dist_hits"`
	DistMisses    uint64 `json:"dist_misses"`
	DistEvictions uint64 `json:"dist_evictions"`
	CachedDists   int    `json:"cached_dists"`

	// CachedSystems is the number of memoised topology-spec machines.
	CachedSystems int `json:"cached_systems"`

	// Coalesced counts requests served by another request's in-flight
	// execution instead of executing themselves.
	Coalesced uint64 `json:"coalesced"`
	// Uncacheable counts requests that bypassed the response cache:
	// NoCache set, or options carrying a live generator or refiner
	// instance the fingerprint cannot capture.
	Uncacheable uint64 `json:"uncacheable"`

	// Remaps counts Remap calls; WarmStarts the subset that actually
	// warm-started refinement from a projected previous assignment (the
	// rest fell back to a cold solve: zero delta replayed from cache, or
	// similarity below the threshold).
	Remaps     uint64 `json:"remaps"`
	WarmStarts uint64 `json:"warm_starts"`

	// Executions counts requests that ran the full plan/execute pipeline
	// locally — the "local" of fleet mode's local/forwarded/shed split.
	// Forwarded counts cache fills answered by the owning peer, and
	// ForwardErrors the hops that failed and fell back to local execution.
	Executions    uint64 `json:"executions"`
	Forwarded     uint64 `json:"forwarded"`
	ForwardErrors uint64 `json:"forward_errors"`
}

// Stats snapshots the solver's counters. Per-cache sections are
// internally consistent — counters and entry count are read under one
// lock acquisition via Snapshot, so invariants like CachedResults ≤
// ResultMisses hold in every snapshot even under concurrent solves.
func (s *Solver) Stats() Stats {
	s.init()
	var st Stats
	st.Solves = s.solves.Load()
	st.Coalesced = s.coalesced.Load()
	st.Uncacheable = s.uncacheable.Load()
	st.Remaps = s.remaps.Load()
	st.WarmStarts = s.warmStarts.Load()
	st.Executions = s.executions.Load()
	st.Forwarded = s.forwarded.Load()
	st.ForwardErrors = s.forwardErrors.Load()
	st.ResultHits, st.ResultMisses, st.ResultEvictions, st.CachedResults = s.results.Snapshot()
	st.DistHits, st.DistMisses, st.DistEvictions, st.CachedDists = s.dists.Snapshot()
	st.CachedSystems = s.systems.Len()
	return st
}

// Solve resolves and solves one request through the staged pipeline.
// Validation failures come back as *ValidationError; cancelling ctx
// mid-refinement returns the best mapping found so far, like the classic
// MapParallel (a request cancelled while waiting on a coalesced execution
// returns the context error instead — it holds no partial result).
func (s *Solver) Solve(ctx context.Context, req *Request) (*Response, error) {
	s.init()
	s.solves.Add(1)
	st := &solveState{solver: s, req: req, began: s.now()}
	return st.run(ctx)
}

// Fingerprint returns the canonical fingerprint Solve would key the
// response cache with for req — the ownership key of fleet mode — or ""
// when the request is uncacheable (NoCache, or options carrying a live
// generator or refiner instance). It validates the request's declarative
// shape exactly like Solve, so serving layers can route before solving.
func (s *Solver) Fingerprint(req *Request) (string, error) {
	if verr := validate(req); verr != nil {
		return "", verr
	}
	if req.NoCache || req.Options.Rand != nil || req.Options.Refiner != nil {
		return "", nil
	}
	return canonicalKey(req, effectiveSeed(req)), nil
}

// SolveBatch solves every request, fanning out over at most Workers
// goroutines, and returns the responses in request order — output is
// independent of the worker count because each request derives its random
// streams from its own seed, and identical requests coalesce onto one
// deterministic execution. A request that fails yields a Response with
// only Err set, so one bad request never poisons the batch; the returned
// error is non-nil only when ctx is cancelled before all requests finish.
func (s *Solver) SolveBatch(ctx context.Context, reqs []*Request) ([]*Response, error) {
	out := make([]*Response, len(reqs))
	err := parallel.ForEach(ctx, len(reqs), s.Workers, func(ctx context.Context, i int) error {
		resp, err := s.Solve(ctx, reqs[i])
		if err != nil {
			resp = &Response{Err: err}
		}
		out[i] = resp
		return nil
	})
	if err != nil {
		return out, err
	}
	return out, nil
}
