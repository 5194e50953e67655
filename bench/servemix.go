package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"mimdmap/internal/graph"
	"mimdmap/internal/service"
)

// The serve-mix traffic: each of two clients keeps its own history of the
// last historySize distinct requests it made (2·64 = the last 128 distinct
// requests, half the server's 256-entry response cache). Every block of 20
// operations holds, in a seeded order,
//
//	16 repeats of a history entry — expected X-Cache "hit", with a body
//	   byte-identical to the entry's first answer (80%)
//	 3 fresh /solve requests: the next pool problem under a new request
//	   seed, expected "miss" (15%)
//	 1 /remap moving the latest fresh request onto a perturbed copy of its
//	   problem, expected "warm" (5%)
//
// An exact mix per block, rather than a draw per operation, keeps the
// share of expensive misses equal across seeds. Clients repeat only their
// own requests, so the expected class of every operation is fixed by the
// seed whatever the interleaving of the two connections.
const (
	historySize = 64
	serveConns  = 2
)

var serveBlock = []string{
	"fresh", "fresh", "fresh", "remap",
	"hit", "hit", "hit", "hit", "hit", "hit", "hit", "hit",
	"hit", "hit", "hit", "hit", "hit", "hit", "hit", "hit",
}

// serveEntry is one distinct request a client made and its first answer.
type serveEntry struct {
	path   string // "/solve" or "/remap"
	wire   wireRequest
	prob   *graph.Problem
	mach   machine
	answer wireResponse
	body   []byte
}

// serveOp is one operation of a client's log.
type serveOp struct {
	entry  *serveEntry
	expect string
	total  int
	bound  int
	ms     float64
	err    error
}

type serveClient struct {
	id        int
	suite     *suite
	rng       *rand.Rand
	plan      []string // the rest of the current block
	history   []*serveEntry
	fresh     int
	lastFresh *serveEntry
	log       []serveOp
}

func newServeClient(s *suite, seed int64, id int) *serveClient {
	return &serveClient{id: id, suite: s, rng: rand.New(rand.NewSource(deriveSeed(seed, (id+1)*clientStream)))}
}

// next draws the client's next operation. It depends only on the seed and
// on the client's own earlier answers.
func (c *serveClient) next() (*serveEntry, string, error) {
	if len(c.plan) == 0 {
		c.plan = append(c.plan, serveBlock...)
		c.rng.Shuffle(len(c.plan), func(a, b int) { c.plan[a], c.plan[b] = c.plan[b], c.plan[a] })
		if len(c.history) == 0 { // the very first operation has nothing to repeat
			first := slices.Index(c.plan, "fresh")
			c.plan[0], c.plan[first] = c.plan[first], c.plan[0]
		}
	}
	kind := c.plan[0]
	c.plan = c.plan[1:]
	switch kind {
	case "fresh":
		// Round-robin over the pool, the two clients on alternate entries:
		// every machine gets the same share of misses at every seed.
		j := c.suite.base[(2*c.fresh+c.id)%len(c.suite.base)]
		j.seed = deriveSeed(c.suite.seed, (c.id+1)*clientStream+c.fresh)
		c.fresh++
		c.lastFresh = &serveEntry{path: "/solve", wire: j.wire(j.text), prob: j.prob, mach: j.mach}
		return c.lastFresh, "miss", nil
	case "remap":
		// The latest fresh request evolves, so remaps follow the misses'
		// round-robin over machines.
		prev := c.lastFresh
		pseed := deriveSeed(c.suite.seed, (c.id+1)*clientStream+perturbStream+len(c.log))
		prob, err := perturbed(prev.prob, prev.mach.sys, pseed)
		if err != nil {
			return nil, kind, err
		}
		w := remapWire(prev.wire, prev.answer.Assignment, problemText(prob))
		return &serveEntry{path: "/remap", wire: w, prob: prob, mach: prev.mach}, "warm", nil
	default:
		return c.history[c.rng.Intn(len(c.history))], "hit", nil
	}
}

// run is the client's closed loop: at least minOps operations, and until
// the deadline.
func (c *serveClient) run(ctx context.Context, srv *server, minOps int, deadline time.Time) {
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		c.log = append(c.log, c.step(ctx, srv))
	}
}

// step sends one operation and checks its answer: status, X-Cache class,
// the bound oracle, and byte identity with the first answer for repeats.
func (c *serveClient) step(ctx context.Context, srv *server) serveOp {
	e, expect, err := c.next()
	if err != nil {
		return serveOp{expect: expect, err: err}
	}
	op := serveOp{entry: e, expect: expect}
	ans, body, took, err := srv.call(ctx, e.path, &e.wire, expect)
	op.ms = ms(took)
	if err == nil && expect == "hit" && !bytes.Equal(body, e.body) {
		err = errors.New("repeated request got a different body")
	}
	if err != nil {
		op.err = err
		return op
	}
	if expect != "hit" {
		e.answer, e.body = ans, body
		if len(c.history) == historySize {
			c.history = append(c.history[:0], c.history[1:]...)
		}
		c.history = append(c.history, e)
	}
	op.total, op.bound = ans.TotalTime, ans.LowerBound
	return op
}

// measureServe runs serve-mix: a mapserve process started with
// -max-concurrent 2 -workers 1 and two closed-loop HTTP connections.
func measureServe(ctx context.Context, w *workload, cfg config) (*result, error) {
	res := newResult(w.name, false)
	var s *suite
	var srv *server
	var setups []float64
	for r := 0; r < cfg.setupReps(); r++ {
		if srv != nil {
			srv.stop()
		}
		began := time.Now()
		var err error
		if s, err = w.build(cfg.seed, cfg.quick); err != nil {
			return nil, err
		}
		if srv, err = startServer(cfg.mapserve, 1); err != nil {
			return nil, err
		}
		for k := 0; k < w.warmups; k++ {
			j := s.warmup(k)
			body := j.wire(j.text)
			if _, _, _, err := srv.call(ctx, "/solve", &body, "miss"); err != nil {
				srv.stop()
				return nil, fmt.Errorf("warm-up request %d: %w", k, err)
			}
		}
		setups = append(setups, time.Since(began).Seconds())
	}
	defer srv.stop()
	res.setupMetric(setups)

	minOps := cfg.minOps(w)
	clients := make([]*serveClient, serveConns)
	var wg sync.WaitGroup
	began := time.Now()
	deadline := began.Add(cfg.duration())
	for i := range clients {
		clients[i] = newServeClient(s, cfg.seed, i)
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			c.run(ctx, srv, minOps, deadline)
		}(clients[i])
	}
	wg.Wait()
	elapsed := time.Since(began)

	st, err := srv.stats(ctx)
	if err != nil {
		return nil, err
	}
	rss, err := vmHWM(srv.pid())
	if err != nil {
		return nil, err
	}
	srv.stop()

	var lat, quality []float64
	byClass := map[string][]float64{}
	for _, c := range clients {
		for i, op := range c.log {
			res.Attempted++
			lat = append(lat, op.ms)
			if op.err != nil {
				res.fail("client %d op %d (%s): %v", c.id, i, op.expect, op.err)
				continue
			}
			byClass[op.expect] = append(byClass[op.expect], op.ms)
			if i < minOps {
				quality = append(quality, pctOver(op.total, op.bound))
			}
		}
	}
	alloc, err := replayInProcess(ctx, clients[0].log[:minOps], w.checkEvery, res)
	if err != nil {
		return nil, err
	}

	res.speedMetrics(lat, nil, elapsed, 0)
	res.info("quality_pct_over_bound", mean(quality), "%")
	res.Metrics["alloc_mb_per_op"] = alloc
	res.Metrics["rss_peak_mb"] = rss
	for class, xs := range byClass {
		res.info("mapserve."+class+"_p50_ms", median(xs), "ms")
		res.info("mapserve."+class+"_ops", float64(len(xs)), "count")
		res.Samples["latency_ms."+class] = xs
	}
	if lookups := st.Cache.ResultHits + st.Cache.ResultMisses; lookups > 0 {
		res.info("service.hit_ratio", float64(st.Cache.ResultHits)/float64(lookups), "ratio")
	}
	if st.Cache.Remaps > 0 {
		res.info("service.warm_start_ratio", float64(st.Cache.WarmStarts)/float64(st.Cache.Remaps), "ratio")
	}
	res.info("service.executions", float64(st.Cache.Executions), "count")
	res.info("service.coalesced", float64(st.Cache.Coalesced), "count")
	res.info("loop_s", elapsed.Seconds(), "s")
	res.Samples["latency_ms"] = lat
	res.Samples["quality_pct_over_bound"] = quality
	return res, nil
}

// replayInProcess decodes and solves a client's operations through a
// fresh service.Solver, the way mapserve handles them but without the
// HTTP layer, and returns the heap allocated per operation in MB — the
// serve-mix figure for alloc_mb_per_op, since the server process's own
// allocation counters are not visible from outside. It also checks that
// every in-process total equals the one served over HTTP, and re-prices
// every checkEvery-th answer with a fresh evaluator.
func replayInProcess(ctx context.Context, ops []serveOp, checkEvery int, res *result) (float64, error) {
	solver := service.NewSolver(1)
	checks := make([]pendingCheck, 0, len(ops)/checkEvery+1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, op := range ops {
		if op.err != nil {
			continue
		}
		req, prev, err := fromWire(&op.entry.wire, 1)
		if err != nil {
			return 0, fmt.Errorf("replay op %d: %w", i, err)
		}
		var resp *service.Response
		if prev != nil {
			resp, err = solver.Remap(ctx, prev, req)
		} else {
			resp, err = solver.Solve(ctx, req)
		}
		if err != nil {
			res.fail("replay op %d: %v", i, err)
			continue
		}
		if got := resp.Result.TotalTime; got != op.total {
			res.fail("replay op %d: in-process total %d, served total %d", i, got, op.total)
			continue
		}
		if i%checkEvery == 0 {
			checks = append(checks, pendingCheck{op: i, prob: resp.Problem, clus: resp.Clustering, sys: resp.System,
				procOf: resp.Result.Assignment.ProcOf, total: op.total})
		}
	}
	runtime.ReadMemStats(&after)
	for i := range checks {
		if err := checks[i].run(); err != nil {
			res.fail("replay %v", err)
		}
	}
	res.info("checked_ops", float64(len(checks)), "count")
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / float64(len(ops)), nil
}
