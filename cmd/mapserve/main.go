// Command mapserve serves the mapping strategy over HTTP — the serving
// scenario of the context-first Solver API. A long-running process fields
// mapping requests (problem + machine + clustering strategy as JSON),
// solves them with one shared mimdmap.Solver, and answers with the mapping,
// its schedule, and the optimality verdict. The solver's staged pipeline
// does the heavy lifting for a service fronting a fleet of similar
// machines and workloads: repeated requests replay from the
// fingerprint-keyed response cache, concurrent identical requests coalesce
// onto one execution, and distance tables are shared per machine content.
//
// Usage:
//
//	mapserve                          # listen on :8080
//	mapserve -addr :9090 -max-concurrent 16
//	mapserve -jobs 512 -job-ttl 30m   # async job store bounds
//	mapserve -addr :8081 -self http://host:8081 \
//	  -peers http://host:8081,http://host:8082  # fleet mode (see below)
//
// Endpoints:
//
//	POST /solve        solve one mapping request (JSON in, JSON out)
//	POST /remap        re-solve a changed instance, warm-started from a
//	                   previous solution (prev_* fields; see below)
//	POST /jobs         submit an async job — one request, or a batch as
//	                   {"requests": [...]} — and get a job id back (202)
//	GET  /jobs/{id}    job state and, once finished, its result(s)
//	POST /fleet/solve  fleet-internal: a peer forwarding a cache fill to
//	                   the replica owning its fingerprint
//	GET  /stats        cache/coalescing, job-store, admission, fleet and
//	                   per-endpoint latency counters, JSON
//	GET  /healthz      liveness probe
//	GET  /strategies   registered clusterers and refiners, as JSON
//
// A request names the machine either by topology spec or by a system graph
// in the text format of the cmd tools, and the clustering either by
// registered clusterer name or as a clustering file body:
//
//	{"problem": "...", "topology": "mesh-4x4", "clusterer": "random",
//	 "seed": 7, "starts": 4}
//
// A /remap request is a /solve request for the evolved instance plus the
// previous solution: "prev_problem" (text format), the previous machine as
// "prev_system" or "prev_topology" (exactly one), and "prev_assignment"
// (the assignment array of the earlier response). The server diffs the two
// instances and, when similar enough, warm-starts refinement from the
// previous assignment projected across the delta; "warm_start" in the
// response reports whether that happened and "similarity" scores the
// delta. A seed-dependent "prev_topology" spec (random-N) is resolved with
// this request's seed — a machine solved under a different seed must
// travel as "prev_system" text instead.
//
// Responses carry only deterministic fields — wall-clock timing travels in
// the X-Solve-Duration header, and how the response was produced in the
// X-Cache header ("hit", "coalesced", "forwarded", "warm" or "miss"), so
// neither perturbs the payload. "no_cache": true forces a full execution.
// Totals, bound, and the optimality verdict are reproducible for a fixed
// request body; the full body is byte-identical across clients except in
// one corner: a multi-start request ("starts" > 1) where several chains
// prove optimality may return any of the proven-optimal assignments, since
// the first chain to reach the lower bound cancels the rest.
//
// Fleet mode: with -peers (a static comma-separated replica list) and
// -self (this replica's own entry), N replicas share one logical response
// cache. Request fingerprints shard over the peer list by rendezvous
// hashing; a replica that misses locally on a fingerprint another peer
// owns forwards the fill to the owner's POST /fleet/solve, whose
// singleflight guarantees each fingerprint is solved at most once
// fleet-wide, and replicates the response into its own cache. Responses
// are byte-identical whichever replica a client hits; a failed hop falls
// back to a local solve, so a mid-restart fleet degrades to independent
// replicas instead of failing requests.
//
// Malformed requests (bad JSON, unknown names, invalid graphs) get 400. At
// most -max-concurrent solves run at once — shared between /solve,
// forwarded fills and background jobs — with a bounded admission queue in
// front (-queue seats, -queue-wait patience): cache hits and coalesced
// requests are always served, but a request needing a fresh execution past
// the queue's capacity or patience is shed with 503 + Retry-After.
// SIGINT/SIGTERM drain in-flight requests and accepted background jobs
// (within -drain) before exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mimdmap"
	"mimdmap/internal/fleet"
)

// errUsage signals that the flag package already printed the parse error
// and usage; main must not report it a second time.
var errUsage = errors.New("invalid arguments")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintln(os.Stderr, "mapserve:", err)
		}
		os.Exit(1)
	}
}

// run parses args and serves until ctx is cancelled (the signal handler) or
// the listener fails. On cancellation it drains: stop accepting, finish
// in-flight requests, finish queued background jobs, then exit — a rolling
// restart loses no accepted work within the -drain budget.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mapserve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		limit     = fs.Int("max-concurrent", 8, "max mapping requests solved at once")
		queue     = fs.Int("queue", 64, "max requests waiting for a solve slot before shedding (503)")
		queueWait = fs.Duration("queue-wait", time.Second, "max time a request waits for a solve slot before being shed")
		drain     = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		workers   = fs.Int("workers", 0, "max refinement chains per request (0 = all CPUs)")
		jobCap    = fs.Int("jobs", 256, "max async jobs retained (finished jobs are evicted first when full)")
		jobTTL    = fs.Duration("job-ttl", 10*time.Minute, "how long finished async jobs stay retrievable")
		self      = fs.String("self", "", "this replica's own base URL in the -peers list (fleet mode)")
		peers     = fs.String("peers", "", "comma-separated base URLs of every fleet replica, including self")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if *limit <= 0 {
		return fmt.Errorf("-max-concurrent must be positive, got %d", *limit)
	}
	peerList := parsePeers(*peers)
	if len(peerList) > 0 && *self == "" {
		return errors.New("-peers requires -self (this replica's own entry in the list)")
	}

	// Background jobs get their own context, cancelled only after the HTTP
	// drain: a SIGTERM must let accepted jobs finish (within -drain), not
	// kill them mid-solve.
	jobCtx, stopJobs := context.WithCancel(context.Background())
	defer stopJobs()

	// The shared solver's batch fan-out is pinned to 1: a batch job holds
	// exactly one of the -max-concurrent solve slots, so its members must
	// run sequentially inside it or a single big batch would multiply the
	// concurrency bound by the CPU count. Batch throughput comes from
	// submitting several jobs, each competing for its own slot.
	srv, err := newServer(jobCtx, mimdmap.NewSolver(1), serverConfig{
		limit:     *limit,
		workers:   *workers,
		jobCap:    *jobCap,
		jobTTL:    *jobTTL,
		queue:     *queue,
		queueWait: *queueWait,
		self:      strings.TrimRight(strings.TrimSpace(*self), "/"),
		peers:     peerList,
	})
	if err != nil {
		return err
	}
	server := &http.Server{
		Handler: srv.handler,
		// A long-running public-facing process needs bounded reads: drop
		// slowloris clients instead of accumulating their connections.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	// An explicit listener so the real bound address (":0" in tests) is
	// known before serving starts.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- server.Serve(ln) }()
	if srv.ring != nil {
		fmt.Fprintf(stdout, "mapserve: listening on %s (max %d concurrent solves, fleet of %d as %s)\n",
			ln.Addr(), *limit, srv.ring.Size(), srv.ring.Self())
	} else {
		fmt.Fprintf(stdout, "mapserve: listening on %s (max %d concurrent solves)\n", ln.Addr(), *limit)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintln(stdout, "mapserve: draining...")
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Order matters: stop accepting and finish in-flight requests
		// first, then wait out queued background jobs, and only then cancel
		// their context — jobs still running when the budget expires are
		// cut off by stopJobs.
		if err := server.Shutdown(drainCtx); err != nil {
			return err
		}
		if err := srv.jobs.drain(drainCtx); err != nil {
			fmt.Fprintln(stdout, "mapserve: drain budget expired with jobs still running")
		}
		stopJobs()
		fmt.Fprintln(stdout, "mapserve: bye")
		return nil
	}
}

// solveRequest is the wire form of one mapping request. Graphs travel in
// the line-oriented text format shared with the cmd tools. The decode step
// (JSON → solveRequest → mimdmap.Request via toRequest) is the wire-layer
// stage in front of the solver's validate → … → publish pipeline.
type solveRequest struct {
	// Problem is the task DAG, in text format. Required.
	Problem string `json:"problem"`
	// System (text format) or Topology (spec like "mesh-4x4") names the
	// machine; exactly one must be set.
	System   string `json:"system,omitempty"`
	Topology string `json:"topology,omitempty"`
	// Clustering (text format) or Clusterer (registered name) names the
	// clustering step; exactly one must be set.
	Clustering string `json:"clustering,omitempty"`
	Clusterer  string `json:"clusterer,omitempty"`
	// Refiner names the registered search strategy refining the mapping
	// (GET /strategies lists them; empty = the paper's refinement).
	Refiner string `json:"refiner,omitempty"`
	// Seed drives every random stream of the request (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// Starts races this many refinement chains (0 or 1 = single chain).
	Starts int `json:"starts,omitempty"`
	// Refinements bounds the refinement loop (0 = paper default of ns).
	Refinements int `json:"refinements,omitempty"`
	// FullPropagation selects the full critical-edge propagation mode.
	FullPropagation bool `json:"full_propagation,omitempty"`
	// PortfolioRounds and PortfolioArms tune the adaptive portfolio when
	// the refiner is "portfolio": the number of budget slices per chain
	// (0 = default) and a comma-separated arm list like
	// "paper,pairwise,anneal" (empty = the default arm set). The string
	// form keeps solveRequest comparable for the job store.
	PortfolioRounds int    `json:"portfolio_rounds,omitempty"`
	PortfolioArms   string `json:"portfolio_arms,omitempty"`
	// NoCache forces a full execution, bypassing the solver's response
	// cache and in-flight coalescing.
	NoCache bool `json:"no_cache,omitempty"`
}

// jobRequest is the wire form of POST /jobs: either one inline
// solveRequest, or a batch under "requests" (never both).
type jobRequest struct {
	solveRequest
	Requests []solveRequest `json:"requests,omitempty"`
}

// remapRequest is the wire form of POST /remap: a solveRequest describing
// the evolved instance plus the previous solution to warm-start from.
type remapRequest struct {
	solveRequest
	// PrevProblem is the previously solved task DAG, text format. Required.
	PrevProblem string `json:"prev_problem"`
	// PrevSystem (text format) or PrevTopology (spec) names the machine the
	// previous solution ran on; exactly one must be set.
	PrevSystem   string `json:"prev_system,omitempty"`
	PrevTopology string `json:"prev_topology,omitempty"`
	// PrevAssignment is the assignment array of the previous response.
	PrevAssignment []int `json:"prev_assignment"`
}

// solveResponse is the wire form of a solved mapping. It carries only
// deterministic fields, so identical requests yield byte-identical bodies.
type solveResponse struct {
	Assignment       []int  `json:"assignment"`
	TotalTime        int    `json:"total_time"`
	LowerBound       int    `json:"lower_bound"`
	InitialTotalTime int    `json:"initial_total_time"`
	Refinements      int    `json:"refinements"`
	Improved         int    `json:"improved"`
	OptimalProven    bool   `json:"optimal_proven"`
	Chain            int    `json:"chain"`
	Machine          string `json:"machine,omitempty"`
	Nodes            int    `json:"nodes"`
	Clusterer        string `json:"clusterer,omitempty"`
	Refiner          string `json:"refiner,omitempty"`
	// WarmStart reports that refinement started from a projected previous
	// assignment (POST /remap), and Similarity the structural similarity
	// between the previous and the requested instance (0 when identical or
	// when the request was a plain solve).
	WarmStart  bool    `json:"warm_start,omitempty"`
	Similarity float64 `json:"similarity,omitempty"`
	// WinningArm and PortfolioArms report the adaptive portfolio's outcome
	// (see Diagnostics); both are empty for plain refiners.
	WinningArm    string             `json:"winning_arm,omitempty"`
	PortfolioArms []mimdmap.ArmStats `json:"portfolio_arms,omitempty"`
	Start         []int              `json:"start"`
	End           []int              `json:"end"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxBody bounds request bodies; the text graph formats are compact, so
// 32 MiB covers problems far beyond what the mapper can chew anyway.
const maxBody = 32 << 20

// strategiesResponse is the wire form of GET /strategies: every registered
// strategy name, straight from the shared registries, so clients discover
// exactly the names /solve accepts. The docs maps carry the registries'
// one-line descriptions (encoding/json sorts map keys, so the body stays
// byte-identical across calls).
type strategiesResponse struct {
	Clusterers    []string          `json:"clusterers"`
	Refiners      []string          `json:"refiners"`
	ClustererDocs map[string]string `json:"clusterer_docs"`
	RefinerDocs   map[string]string `json:"refiner_docs"`
}

// strategyDocs collects the registry's description for each name.
func strategyDocs(names []string, doc func(string) string) map[string]string {
	docs := make(map[string]string, len(names))
	for _, name := range names {
		docs[name] = doc(name)
	}
	return docs
}

// statsResponse is the wire form of GET /stats: the solver's cache and
// coalescing counters, the job store's, admission control, per-endpoint
// latency histograms, and — in fleet mode — the fleet section.
type statsResponse struct {
	Cache     mimdmap.SolverStats                `json:"cache"`
	Jobs      jobCounters                        `json:"jobs"`
	Admission fleet.AdmissionStats               `json:"admission"`
	Latency   map[string]fleet.HistogramSnapshot `json:"latency"`
	Fleet     *fleetStats                        `json:"fleet,omitempty"`
}

// serverConfig carries the handler's bounds; zero job fields get the
// defaults of newJobStore, a zero queueWait the default below.
type serverConfig struct {
	limit   int
	workers int
	jobCap  int
	jobTTL  time.Duration

	// queue and queueWait shape admission control: how many requests may
	// wait for a solve slot beyond the -max-concurrent in flight (taken as
	// given; the -queue flag defaults to 64), and how long one may wait
	// before being shed (0 = 1s).
	queue     int
	queueWait time.Duration

	// self and peers switch on fleet mode when peers has ≥ 2 entries:
	// fingerprint ownership shards over the peer list and misses forward
	// to the owner. self must be a member of peers.
	self  string
	peers []string
	// client performs peer hops (nil = a default client with a bounded
	// per-hop timeout).
	client *http.Client

	// clock drives the latency histograms and the admission deadline
	// logic (nil = time.Now); injectable for tests.
	clock func() time.Time
}

// server is one mapserve instance: the routing plus the handles run needs
// for graceful shutdown (the job store) and that tests need for
// assertions.
type server struct {
	solver    *mimdmap.Solver
	jobs      *jobStore
	admission *fleet.Admission
	ring      *fleet.Ring // nil in single-process mode
	metrics   *endpointMetrics
	handler   http.Handler
}

// newServer builds the server: admission control in front of the solver's
// execute stage (replacing the old unbounded semaphore queue), the fleet
// forward hook when cfg names peers, per-endpoint latency histograms, and
// the routing. It installs Admission and Forward on solver — the solver
// must not be shared with another server. ctx bounds background job
// execution; run keeps it alive through the drain so jobs finish before
// exit.
func newServer(ctx context.Context, solver *mimdmap.Solver, cfg serverConfig) (*server, error) {
	queueWait := cfg.queueWait
	if queueWait <= 0 {
		queueWait = time.Second
	}
	s := &server{
		solver:    solver,
		admission: fleet.NewAdmission(cfg.limit, cfg.queue, queueWait, cfg.clock),
		metrics:   newEndpointMetrics(cfg.clock),
	}
	solver.Admission = s.admission
	if len(cfg.peers) > 0 {
		ring, err := fleet.NewRing(cfg.self, cfg.peers)
		if err != nil {
			return nil, err
		}
		s.ring = ring
		if ring.Size() > 1 {
			client := cfg.client
			if client == nil {
				client = &http.Client{Timeout: defaultForwardTimeout}
			}
			solver.Forward = newForwardHook(ring, client)
		}
	}
	s.jobs = newJobStore(ctx, solver, cfg.jobCap, cfg.jobTTL, cfg.clock)
	s.handler = s.routes(cfg)
	return s, nil
}

// newHandler is the httptest seam kept from the single-process server: it
// builds a server from an always-valid test config and returns its
// routing. Configs that can fail (a bad peer list) must go through
// newServer; newHandler panics on them by design.
func newHandler(ctx context.Context, solver *mimdmap.Solver, cfg serverConfig) http.Handler {
	s, err := newServer(ctx, solver, cfg)
	if err != nil {
		panic(err)
	}
	return s.handler
}

// routes builds the mux.
func (s *server) routes(cfg serverConfig) http.Handler {
	solver, jobs := s.solver, s.jobs
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/strategies", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, http.StatusOK, strategiesResponse{
			Clusterers:    mimdmap.ClustererNames(),
			Refiners:      mimdmap.RefinerNames(),
			ClustererDocs: strategyDocs(mimdmap.ClustererNames(), mimdmap.ClustererDoc),
			RefinerDocs:   strategyDocs(mimdmap.RefinerNames(), mimdmap.RefinerDoc),
		})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, http.StatusOK, s.stats())
	})
	mux.HandleFunc("/solve", s.metrics.wrap("solve", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		// Decode and validate before the solver's admission gate, so slow
		// uploads and garbage requests never occupy solve capacity.
		var wire solveRequest
		if !decodeBody(w, r, &wire) {
			return
		}
		req, err := toRequest(&wire, cfg.workers)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		began := time.Now()
		resp, err := solver.Solve(r.Context(), req)
		if err != nil {
			s.writeSolveError(w, err)
			return
		}
		writeSolved(w, began, resp)
	}))
	mux.HandleFunc("/remap", s.metrics.wrap("remap", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var wire remapRequest
		if !decodeBody(w, r, &wire) {
			return
		}
		prev, err := toPrevResponse(&wire)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		req, err := toRequest(&wire.solveRequest, cfg.workers)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		began := time.Now()
		resp, err := solver.Remap(r.Context(), prev, req)
		if err != nil {
			s.writeSolveError(w, err)
			return
		}
		writeSolved(w, began, resp)
	}))
	// The fleet-internal fill endpoint: a peer that does not own a
	// fingerprint re-posts the request here. LocalOnly is forced on by
	// toForwardRequest, so a forwarded request never hops again, and the
	// owner's admission applies — a saturated owner sheds the hop with 503
	// and the requester falls back to solving locally.
	mux.HandleFunc("POST /fleet/solve", s.metrics.wrap("fleet_solve", func(w http.ResponseWriter, r *http.Request) {
		var wire forwardRequest
		if !decodeBody(w, r, &wire) {
			return
		}
		req, err := toForwardRequest(&wire, cfg.workers)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		began := time.Now()
		resp, err := solver.Solve(r.Context(), req)
		if err != nil {
			s.writeSolveError(w, err)
			return
		}
		writeSolved(w, began, resp)
	}))
	mux.HandleFunc("POST /jobs", s.metrics.wrap("jobs_submit", func(w http.ResponseWriter, r *http.Request) {
		var wire jobRequest
		if !decodeBody(w, r, &wire) {
			return
		}
		id, err := submitJob(jobs, &wire, cfg.workers)
		if err != nil {
			if errors.Is(err, errJobStoreFull) {
				writeError(w, http.StatusServiceUnavailable, err.Error())
			} else {
				writeError(w, http.StatusBadRequest, err.Error())
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Location", "/jobs/"+id)
		writeJSON(w, http.StatusAccepted, jobCreatedResponse{ID: id, URL: "/jobs/" + id})
	}))
	mux.HandleFunc("GET /jobs/{id}", s.metrics.wrap("jobs_status", func(w http.ResponseWriter, r *http.Request) {
		status, ok := jobs.status(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "unknown or expired job")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, http.StatusOK, status)
	}))
	return mux
}

// stats assembles GET /stats: solver cache counters, job-store counters,
// admission control, per-endpoint latency histograms, and — in fleet mode
// — the local/forwarded split.
func (s *server) stats() statsResponse {
	cache := s.solver.Stats()
	out := statsResponse{
		Cache:     cache,
		Jobs:      s.jobs.counters(),
		Admission: s.admission.Stats(),
		Latency:   s.metrics.snapshot(),
	}
	if s.ring != nil {
		out.Fleet = &fleetStats{
			Self:            s.ring.Self(),
			Peers:           s.ring.Peers(),
			Forwarded:       cache.Forwarded,
			ForwardErrors:   cache.ForwardErrors,
			LocalExecutions: cache.Executions,
		}
	}
	return out
}

// writeSolveError maps a solver error onto the wire: validation failures
// are the client's fault (400), a shed request is 503 with the admission
// layer's Retry-After hint, a request abandoned or timed out by its client
// is 503 too, and anything else is the server's fault (500).
func (s *server) writeSolveError(w http.ResponseWriter, err error) {
	var verr *mimdmap.ValidationError
	if errors.As(err, &verr) {
		writeError(w, http.StatusBadRequest, verr.Error())
		return
	}
	if errors.Is(err, fleet.ErrSaturated) {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.admission.RetryAfter().Seconds())))
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeError(w, http.StatusInternalServerError, err.Error())
}

// endpointMetrics records per-endpoint request latencies into fixed-bucket
// histograms, read back by GET /stats. Histograms are created up front for
// a fixed endpoint set, so wrap and snapshot never take a lock.
type endpointMetrics struct {
	clock func() time.Time
	hists map[string]*fleet.Histogram
}

// endpointNames is the fixed set of instrumented endpoints.
var endpointNames = []string{"solve", "remap", "fleet_solve", "jobs_submit", "jobs_status"}

func newEndpointMetrics(clock func() time.Time) *endpointMetrics {
	if clock == nil {
		clock = time.Now
	}
	m := &endpointMetrics{clock: clock, hists: make(map[string]*fleet.Histogram, len(endpointNames))}
	for _, name := range endpointNames {
		m.hists[name] = &fleet.Histogram{}
	}
	return m
}

// wrap times h on the injected clock and records into the named histogram.
func (m *endpointMetrics) wrap(name string, h http.HandlerFunc) http.HandlerFunc {
	hist := m.hists[name]
	return func(w http.ResponseWriter, r *http.Request) {
		began := m.clock()
		h(w, r)
		hist.Observe(m.clock().Sub(began))
	}
}

// snapshot reads every endpoint's histogram (JSON maps serialize sorted by
// key, so /stats bodies stay deterministically ordered).
func (m *endpointMetrics) snapshot() map[string]fleet.HistogramSnapshot {
	out := make(map[string]fleet.HistogramSnapshot, len(m.hists))
	for name, h := range m.hists {
		out[name] = h.Snapshot()
	}
	return out
}

// writeSolved answers a successful solve or remap: timing in
// X-Solve-Duration, how the response was produced in X-Cache — "hit"
// (response-cache replay), "coalesced" (shared another caller's in-flight
// execution), "forwarded" (filled by the fleet peer owning the
// fingerprint, named in X-Fleet-Owner), "warm" (solved here, refinement
// warm-started from a projected previous assignment) or "miss" (solved
// here from scratch) — and the deterministic payload as the body.
func writeSolved(w http.ResponseWriter, began time.Time, resp *mimdmap.Response) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Solve-Duration", time.Since(began).String())
	switch {
	case resp.Diagnostics.CacheHit:
		w.Header().Set("X-Cache", "hit")
	case resp.Diagnostics.Coalesced:
		// Shared another caller's in-flight solve: not replayed from
		// the cache, not solved by this request either.
		w.Header().Set("X-Cache", "coalesced")
	case resp.Diagnostics.Forwarded:
		w.Header().Set("X-Cache", "forwarded")
	case resp.Diagnostics.WarmStart:
		w.Header().Set("X-Cache", "warm")
	default:
		w.Header().Set("X-Cache", "miss")
	}
	if resp.Diagnostics.Forwarded && resp.Diagnostics.Owner != "" {
		w.Header().Set("X-Fleet-Owner", resp.Diagnostics.Owner)
	}
	writeJSON(w, http.StatusOK, toWire(resp))
}

// decodeBody is the wire layer's decode step: a bounded, strict JSON read
// into dst. On failure it answers 400 and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return false
	}
	return true
}

// submitJob converts a decoded job submission — one inline request or a
// batch — into solver requests and hands them to the store. Conversion
// errors surface before a job exists, so malformed submissions never
// occupy store slots.
func submitJob(jobs *jobStore, wire *jobRequest, workers int) (string, error) {
	if len(wire.Requests) > 0 {
		if wire.solveRequest != (solveRequest{}) {
			return "", errors.New("a batch submission must not also carry inline request fields")
		}
		reqs := make([]*mimdmap.Request, len(wire.Requests))
		for i := range wire.Requests {
			req, err := toRequest(&wire.Requests[i], workers)
			if err != nil {
				return "", fmt.Errorf("requests[%d]: %w", i, err)
			}
			reqs[i] = req
		}
		return jobs.submitBatch(reqs)
	}
	req, err := toRequest(&wire.solveRequest, workers)
	if err != nil {
		return "", err
	}
	return jobs.submitSingle(req)
}

// toRequest converts the wire request into a solver request, parsing the
// embedded text-format graphs.
func toRequest(wire *solveRequest, workers int) (*mimdmap.Request, error) {
	if wire.Starts > mimdmap.MaxStarts {
		return nil, fmt.Errorf("starts: at most %d refinement chains", mimdmap.MaxStarts)
	}
	req := &mimdmap.Request{
		Topology:  wire.Topology,
		Clusterer: wire.Clusterer,
		Refiner:   wire.Refiner,
		Seed:      wire.Seed,
		NoCache:   wire.NoCache,
	}
	req.Options.Starts = wire.Starts
	req.Options.Workers = workers
	req.Options.MaxRefinements = wire.Refinements
	if wire.FullPropagation {
		req.Options.Propagation = mimdmap.FullPropagation
	}
	req.Options.PortfolioRounds = wire.PortfolioRounds
	if wire.PortfolioArms != "" {
		for _, arm := range strings.Split(wire.PortfolioArms, ",") {
			req.Options.PortfolioArms = append(req.Options.PortfolioArms, strings.TrimSpace(arm))
		}
	}
	if wire.Problem != "" {
		p, err := mimdmap.ReadProblem(strings.NewReader(wire.Problem))
		if err != nil {
			return nil, fmt.Errorf("problem: %w", err)
		}
		req.Problem = p
	}
	if wire.System != "" {
		s, err := mimdmap.ReadSystem(strings.NewReader(wire.System))
		if err != nil {
			return nil, fmt.Errorf("system: %w", err)
		}
		req.System = s
	}
	if wire.Clustering != "" {
		c, err := mimdmap.ReadClustering(strings.NewReader(wire.Clustering))
		if err != nil {
			return nil, fmt.Errorf("clustering: %w", err)
		}
		req.Clustering = c
	}
	return req, nil
}

// toPrevResponse rebuilds the previous solution a /remap request names
// from its wire fields — the seed Solver.Remap diffs the new request
// against. Only the structural fields travel; schedule and diagnostics of
// the original response are irrelevant to remapping.
func toPrevResponse(wire *remapRequest) (*mimdmap.Response, error) {
	if wire.PrevProblem == "" {
		return nil, errors.New("prev_problem: required")
	}
	if (wire.PrevSystem == "") == (wire.PrevTopology == "") {
		return nil, errors.New("exactly one of prev_system and prev_topology must be set")
	}
	p, err := mimdmap.ReadProblem(strings.NewReader(wire.PrevProblem))
	if err != nil {
		return nil, fmt.Errorf("prev_problem: %w", err)
	}
	var sys *mimdmap.System
	if wire.PrevSystem != "" {
		sys, err = mimdmap.ReadSystem(strings.NewReader(wire.PrevSystem))
		if err != nil {
			return nil, fmt.Errorf("prev_system: %w", err)
		}
	} else {
		// Seed-dependent specs (random-N) resolve with this request's seed,
		// mirroring the solver's own topology resolution; a machine solved
		// under a different seed must travel as prev_system text.
		seed := wire.Seed
		if seed == 0 {
			seed = 1
		}
		sys, err = mimdmap.TopologyByName(wire.PrevTopology, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, fmt.Errorf("prev_topology: %w", err)
		}
	}
	return &mimdmap.Response{
		Problem: p,
		System:  sys,
		Result:  &mimdmap.Result{Assignment: mimdmap.FromPerm(wire.PrevAssignment)},
	}, nil
}

// toWire projects a solver response onto the deterministic wire form.
func toWire(resp *mimdmap.Response) *solveResponse {
	return &solveResponse{
		Assignment:       resp.Result.Assignment.ProcOf,
		TotalTime:        resp.Result.TotalTime,
		LowerBound:       resp.Result.LowerBound,
		InitialTotalTime: resp.Result.InitialTotalTime,
		Refinements:      resp.Result.Refinements,
		Improved:         resp.Result.Improved,
		OptimalProven:    resp.Result.OptimalProven,
		Chain:            resp.Result.Chain,
		Machine:          resp.Diagnostics.Machine,
		Nodes:            resp.Diagnostics.Nodes,
		Clusterer:        resp.Diagnostics.Clusterer,
		Refiner:          resp.Diagnostics.Refiner,
		WarmStart:        resp.Diagnostics.WarmStart,
		Similarity:       resp.Diagnostics.Similarity,
		WinningArm:       resp.Diagnostics.WinningArm,
		PortfolioArms:    resp.Diagnostics.PortfolioArms,
		Start:            resp.Schedule.Start,
		End:              resp.Schedule.End,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, status, errorResponse{Error: msg})
}
