package service

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mimdmap/internal/core"
	"mimdmap/internal/graph"
	"mimdmap/internal/parallel"
	"mimdmap/internal/paths"
	"mimdmap/internal/schedule"
	"mimdmap/internal/search"
	"mimdmap/internal/topology"
)

// The staged solve pipeline. The paper's strategy is a fixed staged
// computation — cluster, distances, place, refine — and the service layer
// mirrors that shape explicitly: Solve threads a solveState through named
// stages, each separately testable, instead of one monolithic body. The
// wire layer (cmd/mapserve) contributes the stage before these: decode,
// turning the JSON wire form into a Request.
//
//	validate      request shape, fail-fast refiner resolution, seed
//	canonicalize  content-addressed fingerprint of the request (or mark
//	              it uncacheable)
//	cache-lookup  response-cache probe + in-flight coalescing; a hit or a
//	              coalesced result finishes the pipeline here
//	forward       fleet mode: route the cache fill to the peer owning the
//	              fingerprint (Solver.Forward); a forwarded fill finishes
//	              the pipeline here and replicates into the local cache
//	admit         admission control (Solver.Admission): take a solve slot
//	              or shed with fleet.ErrSaturated under overload
//	plan          resolve machine, clustering and distance table; build
//	              the core mapper
//	execute       run the refinement chains, evaluate the winner
//	publish       assemble the Response, feed the response cache
//
// Stages past cache-lookup run at most once per canonical fingerprint at a
// time: the first request in becomes the singleflight leader, concurrent
// identical requests park and share its outcome. The forward stage runs
// under that leadership, so one replica makes at most one peer hop per
// in-flight fingerprint, and the owner's own singleflight dedups across
// replicas — a fingerprint is solved at most once fleet-wide. Admission
// sits after every replay layer on purpose: hits, coalesced rides and
// forwarded fills never consume solve slots, so a saturated replica keeps
// serving its cache while shedding fresh work.

// stage is one named step of the solve pipeline.
type stage struct {
	name string
	run  func(*solveState, context.Context) error
}

// solveStages are the stages of Solver.Solve in execution order. A
// package-level value — never mutated — so the warm path allocates nothing
// for its control flow.
var solveStages = []stage{
	{"validate", (*solveState).validate},
	{"canonicalize", (*solveState).canonicalize},
	{"cache-lookup", (*solveState).cacheLookup},
	{"forward", (*solveState).forward},
	{"admit", (*solveState).admit},
	{"plan", (*solveState).plan},
	{"execute", (*solveState).execute},
	{"publish", (*solveState).publish},
}

// solveState threads one request through the pipeline. Stages fill it in
// strictly left to right; nothing outside the pipeline touches one.
type solveState struct {
	solver *Solver
	req    *Request
	began  time.Time

	// validate
	seed    int64
	refiner search.Refiner

	// canonicalize
	key string // canonical request fingerprint; "" = uncacheable

	// cache-lookup: the in-flight call this state leads (nil for
	// followers, cache hits and uncacheable requests). A leader must
	// complete its call on every exit path; solveState.run guarantees it.
	call *flightCall

	// admit: whether this state holds an admission slot it must release.
	admitted bool

	// plan
	sys        *graph.System
	clus       *graph.Clustering
	clusName   string
	distCached bool
	mapper     *core.Mapper

	// execute
	result *core.Result
	sched  *schedule.Result

	// publish (or short-circuited by cache-lookup)
	resp *Response
	done bool // the final response exists; skip the remaining stages
}

// run executes the pipeline. A leader completes its in-flight call on every
// exit path — success, error, cancellation, even a panic — so waiters never
// hang and never share a half-built response (a panicking leader publishes
// an error to its followers, then re-panics).
func (st *solveState) run(ctx context.Context) (resp *Response, err error) {
	defer func() {
		if st.admitted {
			st.solver.Admission.Release()
		}
		if st.call == nil {
			return
		}
		if p := recover(); p != nil {
			st.solver.flight.complete(st.key, st.call, nil, fmt.Errorf("service: solve panicked: %v", p), false)
			panic(p)
		}
		st.solver.flight.complete(st.key, st.call, resp, err, ctx.Err() != nil)
	}()
	for _, sg := range solveStages {
		if err = sg.run(st, ctx); err != nil {
			return nil, err
		}
		if st.done {
			break
		}
	}
	return st.resp, nil
}

// validate checks the request's declarative shape, resolves the named
// search strategy (fail fast: a typo'd refiner must not pay for topology
// construction or a clustering pass), and fixes the root seed.
func (st *solveState) validate(context.Context) error {
	if verr := validate(st.req); verr != nil {
		return verr
	}
	if st.req.Refiner != "" {
		r, err := RefinerByName(st.req.Refiner)
		if err != nil {
			return err
		}
		st.refiner = r
	}
	st.seed = effectiveSeed(st.req)
	return nil
}

// canonicalize computes the content-addressed fingerprint that keys the
// response cache and the in-flight dedup. Requests carrying state the
// fingerprint cannot capture — a live generator or a refiner instance —
// and requests that opt out with NoCache stay uncacheable (key "").
func (st *solveState) canonicalize(context.Context) error {
	req := st.req
	if req.NoCache || req.Options.Rand != nil || req.Options.Refiner != nil {
		st.solver.uncacheable.Add(1)
		return nil
	}
	st.key = canonicalKey(req, st.seed)
	return nil
}

// canonicalKey folds every solve-relevant request field into one stable
// fingerprint: the graphs by content, named strategies by name, the seed,
// and the options that steer the mapper. Options.Workers is deliberately
// absent — SolveBatch and multi-start output are worker-count independent,
// so concurrency knobs must not split cache entries.
func canonicalKey(req *Request, seed int64) string {
	// v3: the fingerprint gained the Options.PortfolioRounds and
	// PortfolioArms folds below (v2 added Options.Incumbent) — the domain
	// tag is bumped per the stability contract in graph/fingerprint.go.
	h := graph.NewHasher("mimdmap/request/v3")
	h.Fold(req.Problem.Fingerprint())
	if req.System != nil {
		h.Bool(true)
		h.Fold(req.System.Fingerprint())
	} else {
		h.Bool(false)
		h.Str(req.Topology)
	}
	if req.Clustering != nil {
		h.Bool(true)
		h.Fold(req.Clustering.Fingerprint())
	} else {
		h.Bool(false)
		h.Str(req.Clusterer)
	}
	h.Str(req.Refiner)
	h.Int64(seed)
	o := &req.Options
	h.Int(int(o.Propagation))
	h.Int(o.MaxRefinements)
	// A literal 0 fills the slot where a since-removed refinement-move
	// option was hashed. It keeps every request digest unchanged, including
	// the pinned goldens, so replicas running older and newer versions
	// still agree on who owns each fingerprint; the domain tag stays as is.
	h.Int(0)
	h.Bool(o.DisableTermination)
	h.Bool(o.RecordTrials)
	h.Int(o.Starts)
	h.Int64(o.Seed)
	if o.Delays != nil {
		h.Bool(true)
		hashPairs(h, o.Delays.NumNodes(), o.Delays.At)
	} else {
		h.Bool(false)
	}
	if o.Dist != nil {
		h.Bool(true)
		hashPairs(h, o.Dist.NumNodes(), o.Dist.At)
	} else {
		h.Bool(false)
	}
	if o.Incumbent != nil {
		h.Bool(true)
		h.Ints(o.Incumbent.ProcOf)
	} else {
		h.Bool(false)
	}
	h.Int(o.PortfolioRounds)
	h.Int(len(o.PortfolioArms))
	for _, arm := range o.PortfolioArms {
		h.Str(arm)
	}
	h.Bool(req.OmitSchedule)
	return h.Sum().String()
}

// hashPairs folds an n×n pairwise machine table (distances or link delays)
// into h as n rows of n cells, row a holding at(a, 0) … at(a, n-1), each
// row length-prefixed. This is the encoding the request digest has always
// used, whatever layout the table keeps in memory.
func hashPairs(h *graph.Hasher, n int, at func(a, b int) int) {
	h.Int(n)
	for a := 0; a < n; a++ {
		h.Int(n)
		for b := 0; b < n; b++ {
			h.Int(at(a, b))
		}
	}
}

// cacheLookup probes the response cache and joins the in-flight dedup. On
// a hit (cached or coalesced) it finishes the pipeline with a per-caller
// copy of the shared response; on a miss it leaves this state the leader
// and lets the pipeline proceed to plan/execute/publish.
func (st *solveState) cacheLookup(ctx context.Context) error {
	if st.key == "" {
		return nil // uncacheable: always execute
	}
	s := st.solver
	for {
		if resp, ok := s.results.Get(st.key); ok {
			st.resp = resp.cachedCopy(s.now().Sub(st.began))
			st.done = true
			return nil
		}
		call, leader := s.flight.join(st.key)
		if leader {
			return st.lead(call)
		}
		select {
		case <-call.done:
		case <-ctx.Done():
			return ctx.Err()
		}
		if call.err != nil {
			return call.err
		}
		if !call.interrupted {
			s.coalesced.Add(1)
			st.resp = call.resp.coalescedCopy(s.now().Sub(st.began))
			st.done = true
			return nil
		}
		// The leader was cancelled mid-solve; its best-so-far mapping is
		// not shareable. Loop: re-probe the cache, then rejoin the flight
		// (most likely becoming the next leader).
	}
}

// lead installs this request as the flight leader — unless the previous
// leader published to the cache and retired its call inside the window
// between this request's cache probe and its winning join. In that window
// a leader that marched on would re-execute a fingerprint the cache
// already holds, breaking the exactly-once contract the fleet tests
// assert; instead the raced fill is served as a plain hit and
// the just-created call is completed immediately, so any followers that
// joined it share the cached response rather than waiting on a
// re-execution. The re-probe is a Peek: cacheLookup's Get already counted
// this request's lookup, and counting it again made every miss count twice.
func (st *solveState) lead(call *flightCall) error {
	s := st.solver
	if resp, ok := s.results.Peek(st.key); ok {
		s.flight.complete(st.key, call, resp, nil, false)
		st.resp = resp.cachedCopy(s.now().Sub(st.began))
		st.done = true
		return nil
	}
	st.call = call
	return nil
}

// forward routes the cache fill to the fleet peer owning the fingerprint.
// It runs only for cacheable local misses on a solver with a Forward hook,
// and only for requests that have not already crossed the hop (LocalOnly).
// A successful hop finishes the pipeline: the peer's response replicates
// into the local cache (so repeats of a hot fingerprint are local hits on
// every replica, not repeated hops) and the caller's copy reports
// Forwarded. A failed hop degrades to local execution — availability over
// strict ownership — with the failure counted.
func (st *solveState) forward(ctx context.Context) error {
	s := st.solver
	if s.Forward == nil || st.key == "" || st.req.LocalOnly {
		return nil
	}
	resp, owner, err := s.Forward(ctx, st.key, st.req)
	if err != nil {
		s.forwardErrors.Add(1)
		return nil
	}
	if resp == nil {
		return nil // declined: solve locally
	}
	s.forwarded.Add(1)
	shared := *resp
	shared.Diagnostics.CacheHit = false
	shared.Diagnostics.Coalesced = false
	shared.Diagnostics.Forwarded = true
	shared.Diagnostics.Owner = owner
	s.results.Put(st.key, &shared)
	out := shared
	out.Elapsed = s.now().Sub(st.began)
	st.resp = &out
	st.done = true
	return nil
}

// admit takes an admission slot before the expensive stages. Interactive
// requests may be shed with fleet.ErrSaturated; NoShed requests (async
// jobs) wait as long as their context allows. The slot is released by run
// on every exit path. A shed singleflight leader propagates the error to
// its followers — they arrived while the replica was saturated too.
func (st *solveState) admit(ctx context.Context) error {
	a := st.solver.Admission
	if a == nil {
		return nil
	}
	var err error
	if st.req.NoShed {
		err = a.Join(ctx)
	} else {
		err = a.Acquire(ctx)
	}
	if err != nil {
		return err
	}
	st.admitted = true
	return nil
}

// plan resolves the request's machine, clustering and distance table, and
// builds the core mapper. Resolution happens after cache-lookup on
// purpose: a warm request never pays for topology construction or a
// clustering pass.
func (st *solveState) plan(context.Context) error {
	req := st.req
	sys, err := st.solver.resolveSystem(req, st.seed)
	if err != nil {
		return err
	}
	st.sys = sys
	clus, clusName, err := resolveClustering(req, sys, st.seed)
	if err != nil {
		return err
	}
	st.clus, st.clusName = clus, clusName

	opts := req.Options
	if opts.Rand == nil {
		opts.Rand = rand.New(rand.NewSource(st.seed))
	}
	if opts.Seed == 0 {
		opts.Seed = st.seed
	}
	if st.refiner != nil {
		opts.Refiner = st.refiner
	}
	if opts.Delays == nil && opts.Dist == nil {
		opts.Dist, st.distCached = st.solver.distances(sys)
	}
	m, err := core.New(req.Problem, clus, sys, opts)
	if err != nil {
		return &ValidationError{Msg: "mapper rejected inputs", Err: err}
	}
	st.mapper = m
	return nil
}

// execute runs the refinement chains and, unless the request opted out,
// evaluates the winning assignment's schedule. Cancelling ctx mid-
// refinement yields the best mapping found so far, per the Solve contract.
func (st *solveState) execute(ctx context.Context) error {
	st.solver.executions.Add(1)
	res, err := st.mapper.RunParallel(ctx)
	if err != nil {
		return err
	}
	st.result = res
	if !st.req.OmitSchedule {
		st.sched = st.mapper.Evaluator().Evaluate(res.Assignment)
	}
	return nil
}

// publish assembles the Response and feeds the response cache. Interrupted
// executions (ctx cancelled mid-refinement) still answer their caller but
// never populate the cache: a best-so-far mapping is not the deterministic
// response a future identical request is promised.
func (st *solveState) publish(ctx context.Context) error {
	resp := &Response{
		Result:     st.result,
		Problem:    st.req.Problem,
		Schedule:   st.sched,
		System:     st.sys,
		Clustering: st.clus,
		Diagnostics: Diagnostics{
			Machine:        st.sys.Name,
			Nodes:          st.sys.NumNodes(),
			Clusterer:      st.clusName,
			Refiner:        st.req.Refiner,
			DistanceCached: st.distCached,
			WarmStart:      st.req.Options.Incumbent != nil,
			PortfolioArms:  st.result.Arms,
			WinningArm:     st.result.WinningArm,
		},
		Elapsed: st.solver.now().Sub(st.began),
	}
	if st.key != "" && ctx.Err() == nil {
		st.solver.results.Put(st.key, resp)
	}
	st.resp = resp
	return nil
}

// cachedCopy returns a per-caller view of a cache-replayed response: the
// deep state (result, schedule, graphs) is shared read-only, the
// wall-clock timing is the caller's own (measured on the solver's
// injectable clock), and the cache-hit diagnostic is set. Everything
// deterministic is byte-identical to the cold response.
func (r *Response) cachedCopy(elapsed time.Duration) *Response {
	out := *r
	out.Diagnostics.CacheHit = true
	out.Diagnostics.Coalesced = false
	out.Elapsed = elapsed
	return &out
}

// coalescedCopy is cachedCopy's sibling for singleflight followers: the
// shared result did not come from the response cache (the follower joined
// before the leader published), so CacheHit stays false and Coalesced
// reports the ride-along truthfully.
func (r *Response) coalescedCopy(elapsed time.Duration) *Response {
	out := *r
	out.Diagnostics.CacheHit = false
	out.Diagnostics.Coalesced = true
	out.Elapsed = elapsed
	return &out
}

// effectiveSeed resolves the request's root seed: Request.Seed, then
// Options.Seed, then 1 — mirroring the defaults of the classic API so a
// zero-valued request reproduces Map's behaviour.
func effectiveSeed(req *Request) int64 {
	if req.Seed != 0 {
		return req.Seed
	}
	if req.Options.Seed != 0 {
		return req.Options.Seed
	}
	return 1
}

// MaxStarts is the most refinement chains one request may race
// (Options.Starts). A solve sizes its per-chain state from Starts before
// any chain runs, so a larger value is refused before any work starts.
const MaxStarts = 64

// validate checks the request's declarative shape. Deeper input validation
// (DAG-ness, cluster counts, connectivity) happens in core.New and is
// wrapped by the plan stage.
func validate(req *Request) *ValidationError {
	if req == nil {
		return &ValidationError{Msg: "nil request"}
	}
	if req.Problem == nil {
		return &ValidationError{Field: "Problem", Msg: "a problem graph is required"}
	}
	switch {
	case req.System == nil && req.Topology == "":
		return &ValidationError{Field: "System", Msg: "one of System or Topology is required"}
	case req.System != nil && req.Topology != "":
		return &ValidationError{Field: "Topology", Msg: "System and Topology are mutually exclusive"}
	}
	switch {
	case req.Clustering == nil && req.Clusterer == "":
		return &ValidationError{Field: "Clustering", Msg: "one of Clustering or Clusterer is required"}
	case req.Clustering != nil && req.Clusterer != "":
		return &ValidationError{Field: "Clusterer", Msg: "Clustering and Clusterer are mutually exclusive"}
	}
	if req.Refiner != "" && req.Options.Refiner != nil {
		return &ValidationError{Field: "Refiner", Msg: "Refiner and Options.Refiner are mutually exclusive"}
	}
	if req.Options.Starts > MaxStarts {
		return &ValidationError{Field: "Options.Starts", Msg: fmt.Sprintf("at most %d refinement chains", MaxStarts)}
	}
	if req.Options.PortfolioRounds < 0 {
		return &ValidationError{Field: "Options.PortfolioRounds", Msg: "must be non-negative"}
	}
	for _, arm := range req.Options.PortfolioArms {
		if arm == "portfolio" {
			return &ValidationError{Field: "Options.PortfolioArms", Msg: "the portfolio cannot be its own arm"}
		}
		if _, err := search.RefinerByName(arm); err != nil {
			return &ValidationError{Field: "Options.PortfolioArms", Msg: err.Error()}
		}
	}
	return nil
}

// resolveSystem returns the request's machine, building (and memoising)
// topology specs. Random topologies are keyed by spec and derived seed,
// since their shape depends on the generator. Concurrent misses of one spec
// may build it twice; content equality makes either copy valid, and the
// fingerprint-keyed distance cache is identity-blind.
func (s *Solver) resolveSystem(req *Request, seed int64) (*graph.System, error) {
	if req.System != nil {
		return req.System, nil
	}
	spec := req.Topology
	key := spec
	topoSeed := parallel.DeriveSeed(seed, topologySeedStream)
	if strings.HasPrefix(spec, "random-") {
		key = fmt.Sprintf("%s@%d", spec, topoSeed)
	}
	if sys, ok := s.systems.Get(key); ok {
		return sys, nil
	}
	sys, err := topology.ByName(spec, rand.New(rand.NewSource(topoSeed)))
	if err != nil {
		return nil, &ValidationError{Field: "Topology", Err: err}
	}
	s.systems.Put(key, sys)
	return sys, nil
}

// resolveClustering returns the request's clustering and, when a named
// strategy produced it, that strategy's name.
func resolveClustering(req *Request, sys *graph.System, seed int64) (*graph.Clustering, string, error) {
	if req.Clustering != nil {
		return req.Clustering, "", nil
	}
	rng := rand.New(rand.NewSource(parallel.DeriveSeed(seed, clustererSeedStream)))
	cl, err := ClustererByName(req.Clusterer, rng)
	if err != nil {
		return nil, "", err
	}
	clus, err := cl.Cluster(req.Problem, sys.NumNodes())
	if err != nil {
		return nil, "", &ValidationError{Field: "Clusterer", Msg: fmt.Sprintf("%s failed", cl.Name()), Err: err}
	}
	return clus, cl.Name(), nil
}

// distances returns the machine's shortest-path table, keyed by the
// machine's content fingerprint: any machine with identical structure —
// same pointer or not — shares one table, and this layer never serves a
// stale table for a mutated machine (the cached *Responses* still alias
// request graphs, though — see the Request doc's no-mutation contract).
// Concurrent misses of one machine may compute the table twice; both are
// identical and either lands in the cache.
func (s *Solver) distances(sys *graph.System) (t *paths.Table, cached bool) {
	key := sys.Fingerprint().String()
	if t, ok := s.dists.Get(key); ok {
		return t, true
	}
	t = paths.New(sys)
	s.dists.Put(key, t)
	return t, false
}
