package service

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mimdmap/internal/cluster"
	"mimdmap/internal/graph"
	"mimdmap/internal/topology"
)

// normalizedJSON marshals a response with the per-call fields (Elapsed,
// CacheHit, Coalesced) zeroed, leaving exactly the deterministic content
// the cache contract promises to replay byte-identically.
func normalizedJSON(t *testing.T, resp *Response) []byte {
	t.Helper()
	flat := *resp
	flat.Elapsed = 0
	flat.Diagnostics.CacheHit = false
	flat.Diagnostics.Coalesced = false
	b, err := json.Marshal(&flat)
	if err != nil {
		t.Fatalf("response not marshalable: %v", err)
	}
	return b
}

// TestCacheHitByteIdenticalToColdSolve is the determinism gate of the
// response cache: a hit must replay a Response byte-identical to a cold
// solve of the same request at the same seed, and must report CacheHit.
func TestCacheHitByteIdenticalToColdSolve(t *testing.T) {
	p := testProblem(t)
	req := func() *Request {
		r := &Request{Problem: p, Topology: "mesh-2x3", Clusterer: "blocks", Seed: 23}
		r.Options.Starts = 2
		r.Options.RecordTrials = true
		return r
	}

	// An independent solver's cold solve is the reference.
	var ref Solver
	cold, err := ref.Solve(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Diagnostics.CacheHit {
		t.Fatal("cold solve reported a cache hit")
	}

	var s Solver
	if _, err := s.Solve(context.Background(), req()); err != nil {
		t.Fatal(err)
	}
	hit, err := s.Solve(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Diagnostics.CacheHit {
		t.Fatal("second identical solve missed the response cache")
	}
	wantJSON := normalizedJSON(t, cold)
	gotJSON := normalizedJSON(t, hit)
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("cache hit is not byte-identical to a cold solve:\ncold: %s\nhit:  %s", wantJSON, gotJSON)
	}
	if !reflect.DeepEqual(hit.Result, cold.Result) {
		t.Fatal("cache hit result deep-differs from cold solve")
	}
	if !reflect.DeepEqual(hit.Schedule, cold.Schedule) {
		t.Fatal("cache hit schedule deep-differs from cold solve")
	}
}

// countingClusterer wraps a deterministic clusterer and counts executions —
// the probe that proves the response cache and singleflight skip the
// underlying work.
type countingClusterer struct {
	calls *atomic.Int64
	delay time.Duration
}

func (c countingClusterer) Name() string { return "counting" }

func (c countingClusterer) Cluster(p *graph.Problem, k int) (*graph.Clustering, error) {
	c.calls.Add(1)
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	return cluster.Blocks{}.Cluster(p, k)
}

var (
	countingCalls atomic.Int64
	registerOnce  sync.Once
)

// registerCountingClusterer installs the probe clusterer in the global
// registry once for the whole test binary; tests reset the counter.
func registerCountingClusterer(t *testing.T) {
	t.Helper()
	registerOnce.Do(func() {
		MustRegisterClusterer("counting", func(*rand.Rand) cluster.Clusterer {
			return countingClusterer{calls: &countingCalls, delay: 2 * time.Millisecond}
		})
	})
	countingCalls.Store(0)
}

// TestLeaderServesCacheFillRacedPastProbe pins the probe→join window: a
// request can miss the response cache, then win the flight join just after
// the previous leader published to the cache and retired its call. The new
// leader must serve the raced fill instead of re-executing (the fleet
// exactly-once contract), and must complete the call it created so
// followers that joined it are not left waiting.
func TestLeaderServesCacheFillRacedPastProbe(t *testing.T) {
	p := testProblem(t)
	var s Solver
	s.init()
	ctx := context.Background()
	req := &Request{Problem: p, Topology: "mesh-2x3", Clusterer: "blocks", Seed: 7}

	// The "previous leader": a normal solve that fills the cache.
	if _, err := s.Solve(ctx, req); err != nil {
		t.Fatal(err)
	}
	execs := s.Stats().Executions

	// Replay the raced interleaving: the probe already missed, the join
	// has been won, and the cache was filled in between.
	st := &solveState{solver: &s, req: req, began: time.Now()}
	if err := st.validate(ctx); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if err := st.canonicalize(ctx); err != nil {
		t.Fatalf("canonicalize: %v", err)
	}
	call, leader := s.flight.join(st.key)
	if !leader {
		t.Fatal("join did not make this request the flight leader")
	}
	if err := st.lead(call); err != nil {
		t.Fatalf("lead: %v", err)
	}
	if !st.done || st.resp == nil {
		t.Fatal("leader did not serve the cache fill raced past its probe")
	}
	if st.call != nil {
		t.Fatal("leader kept its call after serving the raced fill — run would complete it twice")
	}
	if !st.resp.Diagnostics.CacheHit {
		t.Fatal("raced-fill response does not report a cache hit")
	}
	select {
	case <-call.done:
	default:
		t.Fatal("leader left its call incomplete — followers would hang")
	}
	if call.resp == nil || call.err != nil || call.interrupted {
		t.Fatalf("followers of the raced call got resp=%v err=%v interrupted=%v, want the cached response",
			call.resp, call.err, call.interrupted)
	}
	if got := s.Stats().Executions; got != execs {
		t.Fatalf("raced leader re-executed: executions %d, want %d", got, execs)
	}
}

// TestSingleflightCoalescesConcurrentIdenticalRequests is the dedup gate:
// N concurrent identical requests must execute the underlying solve
// exactly once, and every response must carry identical deterministic
// content. Run under -race it also proves the sharing is clean.
func TestSingleflightCoalescesConcurrentIdenticalRequests(t *testing.T) {
	registerCountingClusterer(t)
	p := testProblem(t)
	var s Solver

	const clients = 16
	responses := make([]*Response, clients)
	errs := make([]error, clients)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			req := &Request{Problem: p, Topology: "mesh-2x3", Clusterer: "counting", Seed: 5}
			responses[i], errs[i] = s.Solve(context.Background(), req)
		}(i)
	}
	start.Done()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if got := countingCalls.Load(); got != 1 {
		t.Fatalf("underlying clustering ran %d times for %d identical requests, want exactly 1", got, clients)
	}
	want := normalizedJSON(t, responses[0])
	for i := 1; i < clients; i++ {
		if got := normalizedJSON(t, responses[i]); string(got) != string(want) {
			t.Fatalf("client %d response differs from client 0", i)
		}
	}
	stats := s.Stats()
	if stats.Coalesced+stats.ResultHits != clients-1 {
		t.Fatalf("coalesced (%d) + hits (%d) != %d followers", stats.Coalesced, stats.ResultHits, clients-1)
	}
	// Diagnostics must classify every caller truthfully: exactly one
	// leader reporting neither flag, and every follower reporting exactly
	// one of CacheHit (replayed after the leader published) or Coalesced
	// (rode the leader's in-flight solve) — matching the counters.
	var leaders, coalesced, hits int
	for i, resp := range responses {
		d := resp.Diagnostics
		switch {
		case d.CacheHit && d.Coalesced:
			t.Fatalf("client %d reports both CacheHit and Coalesced", i)
		case d.CacheHit:
			hits++
		case d.Coalesced:
			coalesced++
		default:
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d clients report a cold solve, want exactly 1 leader", leaders)
	}
	if uint64(coalesced) != stats.Coalesced || uint64(hits) != stats.ResultHits {
		t.Fatalf("diagnostics count %d coalesced + %d hits, stats say %d + %d", coalesced, hits, stats.Coalesced, stats.ResultHits)
	}
}

// TestNoCacheBypassesReplayLayers pins Request.NoCache: every solve
// executes, nothing is stored, and nothing is replayed.
func TestNoCacheBypassesReplayLayers(t *testing.T) {
	registerCountingClusterer(t)
	p := testProblem(t)
	var s Solver
	req := func(noCache bool) *Request {
		return &Request{Problem: p, Topology: "mesh-2x3", Clusterer: "counting", Seed: 6, NoCache: noCache}
	}

	for i := 0; i < 2; i++ {
		resp, err := s.Solve(context.Background(), req(true))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Diagnostics.CacheHit {
			t.Fatalf("NoCache solve %d reported a cache hit", i)
		}
	}
	if got := countingCalls.Load(); got != 2 {
		t.Fatalf("NoCache solves executed %d times, want 2", got)
	}
	stats := s.Stats()
	if stats.Uncacheable != 2 {
		t.Fatalf("Uncacheable = %d, want 2", stats.Uncacheable)
	}
	if stats.CachedResults != 0 {
		t.Fatalf("NoCache solve populated the response cache (%d entries)", stats.CachedResults)
	}
	// A cacheable request after NoCache runs still executes afresh —
	// NoCache must not have primed the cache.
	if _, err := s.Solve(context.Background(), req(false)); err != nil {
		t.Fatal(err)
	}
	if got := countingCalls.Load(); got != 3 {
		t.Fatalf("cacheable solve after NoCache runs executed %d times total, want 3", got)
	}
}

// TestUncacheableOptions pins that requests carrying a live generator or a
// refiner instance never enter the cache (their state cannot be
// fingerprinted).
func TestUncacheableOptions(t *testing.T) {
	p := testProblem(t)
	var s Solver
	req := &Request{Problem: p, Topology: "mesh-2x3", Clusterer: "blocks", Seed: 7}
	req.Options.Rand = rand.New(rand.NewSource(7))
	if _, err := s.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if stats.Uncacheable != 1 || stats.CachedResults != 0 {
		t.Fatalf("live-generator request was treated as cacheable: %+v", stats)
	}
}

// TestResultCacheEviction pins the response-cache bound: with room for one
// entry, alternating requests always miss.
func TestResultCacheEviction(t *testing.T) {
	p := testProblem(t)
	s := Solver{MaxCachedResults: 1}
	reqA := func() *Request { return &Request{Problem: p, Topology: "mesh-2x3", Clusterer: "blocks", Seed: 8} }
	reqB := func() *Request { return &Request{Problem: p, Topology: "ring-6", Clusterer: "blocks", Seed: 8} }

	if _, err := s.Solve(context.Background(), reqA()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), reqB()); err != nil { // evicts A
		t.Fatal(err)
	}
	resp, err := s.Solve(context.Background(), reqA()) // must re-execute
	if err != nil {
		t.Fatal(err)
	}
	if resp.Diagnostics.CacheHit {
		t.Fatal("evicted response still replayed from cache")
	}
	stats := s.Stats()
	if stats.ResultEvictions == 0 {
		t.Fatal("no evictions recorded with a one-entry response cache")
	}
	if stats.CachedResults != 1 {
		t.Fatalf("CachedResults = %d, want 1", stats.CachedResults)
	}
}

// TestStatsSnapshot pins the counter wiring end to end: solves, hits,
// misses, and distance-cache numbers all move as requests flow.
func TestStatsSnapshot(t *testing.T) {
	p := testProblem(t)
	var s Solver
	req := func() *Request { return &Request{Problem: p, Topology: "mesh-2x3", Clusterer: "blocks", Seed: 9} }

	if _, err := s.Solve(context.Background(), req()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), req()); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if stats.Solves != 2 {
		t.Fatalf("Solves = %d, want 2", stats.Solves)
	}
	if stats.ResultHits != 1 || stats.ResultMisses == 0 {
		t.Fatalf("result counters off: %+v", stats)
	}
	if stats.CachedResults != 1 || stats.CachedDists != 1 || stats.CachedSystems != 1 {
		t.Fatalf("cache sizes off: %+v", stats)
	}
	if stats.DistMisses != 1 {
		t.Fatalf("DistMisses = %d, want 1 (hit requests skip the distance layer)", stats.DistMisses)
	}
}

// TestPipelineStageNames pins the published stage sequence — the staged
// shape is part of the layer's contract, and docs reference it by name.
func TestPipelineStageNames(t *testing.T) {
	want := []string{"validate", "canonicalize", "cache-lookup", "forward", "admit", "plan", "execute", "publish"}
	stages := solveStages
	if len(stages) != len(want) {
		t.Fatalf("pipeline has %d stages, want %d", len(stages), len(want))
	}
	for i, sg := range stages {
		if sg.name != want[i] {
			t.Fatalf("stage %d = %q, want %q", i, sg.name, want[i])
		}
		if sg.run == nil {
			t.Fatalf("stage %q has no runner", sg.name)
		}
	}
}

// TestStagesSeparately drives the pipeline stage by stage, asserting the
// state each named step is responsible for — the "separately testable"
// property of the staged refactor.
func TestStagesSeparately(t *testing.T) {
	p := testProblem(t)
	var s Solver
	s.init()
	req := &Request{Problem: p, Topology: "mesh-2x3", Clusterer: "blocks", Seed: 11}
	st := &solveState{solver: &s, req: req, began: time.Now()}
	ctx := context.Background()

	if err := st.validate(ctx); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if st.seed != 11 {
		t.Fatalf("validate left seed %d, want 11", st.seed)
	}
	if err := st.canonicalize(ctx); err != nil {
		t.Fatalf("canonicalize: %v", err)
	}
	if st.key == "" {
		t.Fatal("canonicalize left a cacheable request unkeyed")
	}
	if err := st.cacheLookup(ctx); err != nil {
		t.Fatalf("cache-lookup: %v", err)
	}
	if st.done {
		t.Fatal("cache-lookup hit on an empty cache")
	}
	if st.call == nil {
		t.Fatal("cache-lookup did not make this request the flight leader")
	}
	if err := st.plan(ctx); err != nil {
		t.Fatalf("plan: %v", err)
	}
	if st.sys == nil || st.clus == nil || st.mapper == nil {
		t.Fatal("plan left machine/clustering/mapper unresolved")
	}
	if err := st.execute(ctx); err != nil {
		t.Fatalf("execute: %v", err)
	}
	if st.result == nil || st.sched == nil {
		t.Fatal("execute left no result or schedule")
	}
	if err := st.publish(ctx); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if st.resp == nil || st.resp.Result != st.result {
		t.Fatal("publish did not assemble the response")
	}
	s.flight.complete(st.key, st.call, st.resp, nil, false)
	if s.Stats().CachedResults != 1 {
		t.Fatal("publish did not feed the response cache")
	}
}

// TestCanonicalKeySensitivity pins that every solve-relevant knob splits
// the cache key, and that Workers does not (worker-count independence).
func TestCanonicalKeySensitivity(t *testing.T) {
	p := testProblem(t)
	base := func() *Request {
		return &Request{Problem: p, Topology: "mesh-2x3", Clusterer: "blocks", Seed: 3}
	}
	baseKey := canonicalKey(base(), effectiveSeed(base()))

	mutations := map[string]func(*Request){
		"seed":            func(r *Request) { r.Seed = 4 },
		"topology":        func(r *Request) { r.Topology = "ring-6" },
		"clusterer":       func(r *Request) { r.Clusterer = "round-robin" },
		"refiner":         func(r *Request) { r.Refiner = "pairwise" },
		"starts":          func(r *Request) { r.Options.Starts = 4 },
		"max-refinements": func(r *Request) { r.Options.MaxRefinements = 3 },
		"record-trials":   func(r *Request) { r.Options.RecordTrials = true },
		"omit-schedule":   func(r *Request) { r.OmitSchedule = true },
		"problem": func(r *Request) {
			q := p.Clone()
			q.Size[0]++
			r.Problem = q
		},
	}
	for name, mutate := range mutations {
		r := base()
		mutate(r)
		if canonicalKey(r, effectiveSeed(r)) == baseKey {
			t.Fatalf("mutation %q did not change the canonical key", name)
		}
	}

	workers := base()
	workers.Options.Workers = 7
	if canonicalKey(workers, effectiveSeed(workers)) != baseKey {
		t.Fatal("Options.Workers split the cache key; identical work must share entries at any concurrency")
	}

	sys := topology.Mesh(2, 3)
	direct := &Request{Problem: p, System: sys, Clusterer: "blocks", Seed: 3}
	clone := &Request{Problem: p, System: sys.Clone(), Clusterer: "blocks", Seed: 3}
	if canonicalKey(direct, 3) != canonicalKey(clone, 3) {
		t.Fatal("content-equal machines produced distinct canonical keys")
	}
}

// panickingClusterer blows up on first use, then defers to blocks — the
// probe for leader-panic handling in the singleflight layer.
type panickingClusterer struct{ armed *atomic.Bool }

func (c panickingClusterer) Name() string { return "panicking" }

func (c panickingClusterer) Cluster(p *graph.Problem, k int) (*graph.Clustering, error) {
	if c.armed.CompareAndSwap(true, false) {
		time.Sleep(2 * time.Millisecond) // let followers park on the flight
		panic("clusterer exploded")
	}
	return cluster.Blocks{}.Cluster(p, k)
}

var (
	panicArmed        atomic.Bool
	registerPanicOnce sync.Once
)

// TestPanickingLeaderFailsFollowersCleanly pins the panic path of the
// singleflight layer: followers of a panicking leader must receive an
// error — never a nil response — and the panic must still reach the
// leader's caller.
func TestPanickingLeaderFailsFollowersCleanly(t *testing.T) {
	registerPanicOnce.Do(func() {
		MustRegisterClusterer("panicking", func(*rand.Rand) cluster.Clusterer {
			return panickingClusterer{armed: &panicArmed}
		})
	})
	panicArmed.Store(true)
	p := testProblem(t)
	var s Solver
	req := func() *Request {
		return &Request{Problem: p, Topology: "mesh-2x3", Clusterer: "panicking", Seed: 13}
	}

	// Any of the goroutines may win the leader race; every one recovers,
	// and exactly the leader must observe the re-panicked failure.
	const clients = 5
	errs := make([]error, clients)
	responses := make([]*Response, clients)
	panics := make([]any, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			responses[i], errs[i] = s.Solve(context.Background(), req())
		}(i)
	}
	wg.Wait()
	panicked := 0
	for i := 0; i < clients; i++ {
		if panics[i] != nil {
			panicked++
			continue
		}
		if errs[i] == nil && responses[i] == nil {
			t.Fatalf("goroutine %d got nil response and nil error from a panicked execution", i)
		}
	}
	if panicked != 1 {
		t.Fatalf("%d goroutines panicked, want exactly the leader (1)", panicked)
	}
	// The solver must stay usable: the disarmed clusterer now succeeds.
	resp, err := s.Solve(context.Background(), req())
	if err != nil || resp == nil {
		t.Fatalf("solver unusable after a panicked execution: %v", err)
	}
}

// TestCancelledLeaderNotCached pins the interruption rule: a solve
// cancelled mid-execution answers its caller best-so-far but must never
// populate the response cache.
func TestCancelledLeaderNotCached(t *testing.T) {
	p := testProblem(t)
	var s Solver
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // refinement sees a cancelled context immediately
	req := &Request{Problem: p, Topology: "mesh-2x3", Clusterer: "blocks", Seed: 12}
	if _, err := s.Solve(ctx, req); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().CachedResults; got != 0 {
		t.Fatalf("interrupted solve populated the cache (%d entries)", got)
	}
	// The same request on a live context must now solve cold and cache.
	resp, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Diagnostics.CacheHit {
		t.Fatal("fresh solve replayed an interrupted result")
	}
	if got := s.Stats().CachedResults; got != 1 {
		t.Fatalf("clean solve did not cache (%d entries)", got)
	}
}

// TestColdSolveCountsOneMiss pins that a cold solve counts exactly one
// response-cache miss: the leader's re-probe must not count again.
func TestColdSolveCountsOneMiss(t *testing.T) {
	var s Solver
	req := &Request{Problem: testProblem(t), Topology: "mesh-2x3", Clusterer: "blocks", Seed: 9}
	if _, err := s.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ResultMisses != 1 || st.ResultHits != 0 {
		t.Fatalf("cold solve counted %d misses and %d hits, want 1 and 0", st.ResultMisses, st.ResultHits)
	}
}
