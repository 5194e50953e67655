package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"mimdmap/internal/core"
	"mimdmap/internal/critical"
	"mimdmap/internal/graph"
	"mimdmap/internal/ideal"
	"mimdmap/internal/paths"
	"mimdmap/internal/schedule"
	"mimdmap/internal/service"
)

// The traced run decomposes a sample of a workload's operations into the
// calls each layer's public API offers, timing every call as a span. Each
// operation is run twice:
//
//	solve   the calls a cold service.Solve makes once the machine and its
//	        distance table are cached — cluster (when the request names a
//	        clusterer), core.New, Mapper.RunParallel, Evaluator.Evaluate —
//	        back to back, so their spans tile the solve
//	layers  every layer's entry point called on its own: parse, validate,
//	        topological sort, fingerprint, topology, distance table,
//	        clustering, evaluator build, §4.1 ideal graph, §4.2 critical
//	        edges, the analyse phase alone (MaxRefinements = -1) and a
//	        batch of swap trials
//
// core.place_ms (analyse − ideal − critical, the §4.3.2 placement) and
// core.refine_ms (run − analyse, the §4.3.3 refinement) are derived.
// The sample is then solved through an in-process service.Solver and sent
// to a mapserve process, for the service and wire layers.

// span is one timed call.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written out when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
	op     int
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

// end closes a span and returns its duration in ms.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id]
	s.End = int64(time.Since(t.origin))
	return float64(s.End-s.Start) / 1e6
}

// timed runs fn as one span under parent, records its duration as the
// sample name+"_ms" and returns it.
func (t *tracer) timed(res *result, name string, parent int, fn func() error) (float64, error) {
	id := t.begin(name, parent)
	err := fn()
	d := t.end(id)
	res.sample(name+"_ms", d)
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// swapBatches is how many TrySwapBatch calls price schedule.ns_per_trial.
const swapBatches = 512

// decompose runs one operation as the two span trees described above.
func (t *tracer) decompose(ctx context.Context, j job, res *result) error {
	sys := j.mach.sys
	dist := paths.New(sys)
	opts := j.opts
	opts.Rand = rand.New(rand.NewSource(j.seed))
	opts.Seed = j.seed
	opts.Dist = dist
	if j.refiner != "" {
		r, err := service.RefinerByName(j.refiner)
		if err != nil {
			return err
		}
		opts.Refiner = r
	}
	clusterer, err := service.ClustererByName("random", rand.New(rand.NewSource(j.seed)))
	if err != nil {
		return err
	}

	root := t.begin("solve", -1)
	clus := j.clus
	tiled := 0.0
	if clus == nil {
		d, err := t.timed(res, "cluster.cluster", root, func() (err error) {
			clus, err = clusterer.Cluster(j.prob, sys.NumNodes())
			return err
		})
		if err != nil {
			return err
		}
		tiled += d
	}
	var m *core.Mapper
	newMs, err := t.timed(res, "core.new", root, func() (err error) {
		m, err = core.New(j.prob, clus, sys, opts)
		return err
	})
	if err != nil {
		return err
	}
	var r *core.Result
	runMs, err := t.timed(res, "core.run", root, func() (err error) {
		r, err = m.RunParallel(ctx)
		return err
	})
	if err != nil {
		return err
	}
	var sched *schedule.Result
	evalMs, _ := t.timed(res, "schedule.evaluate", root, func() error {
		sched = m.Evaluator().Evaluate(r.Assignment)
		return nil
	})
	t.end(root)
	if err := checkBound(r.TotalTime, r.LowerBound, r.OptimalProven); err != nil {
		return err
	}
	if sched.TotalTime != r.TotalTime {
		return fmt.Errorf("evaluated schedule ends at %d, result says %d", sched.TotalTime, r.TotalTime)
	}
	res.sample("trace.span_sum_ms", tiled+newMs+runMs+evalMs)
	res.sample("search.trials", float64(r.Refinements))
	res.sample("search.improved", float64(r.Improved))
	res.sample("search.bound_hit", b2f(r.OptimalProven))
	res.sample("search.quality_pct_over_bound", pctOver(r.TotalTime, r.LowerBound))

	root = t.begin("layers", -1)
	defer t.end(root)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var p *graph.Problem
	if _, err := t.timed(res, "graph.parse", root, func() (err error) {
		p, err = graph.ReadProblem(strings.NewReader(j.text))
		return err
	}); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	res.sample("graph.problem_alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	type step struct {
		name string
		fn   func() error
	}
	steps := []step{
		{"graph.validate", p.Validate},
		{"graph.toposort", func() error { _, err := p.TopoOrder(); return err }},
		{"graph.fingerprint", func() error { p.Fingerprint(); return nil }},
		{"topology.build", func() error { j.mach.build(); return nil }},
		{"paths.table", func() error { paths.New(sys); return nil }},
	}
	if j.clus != nil { // otherwise clustering was timed inside the solve
		steps = append(steps, step{"cluster.cluster", func() error { _, err := clusterer.Cluster(j.prob, sys.NumNodes()); return err }})
	}
	var ig *ideal.Graph
	steps = append(steps,
		step{"schedule.evaluator_build", func() error { _, err := schedule.NewEvaluator(j.prob, clus, dist); return err }},
		step{"ideal.derive", func() (err error) { ig, err = ideal.Derive(j.prob, clus); return err }},
		step{"critical.analyze", func() error { critical.Analyze(j.prob, clus, ig, opts.Propagation); return nil }},
	)
	took := map[string]float64{}
	for _, st := range steps {
		d, err := t.timed(res, st.name, root, st.fn)
		if err != nil {
			return err
		}
		took[st.name] = d
	}
	analyseOpts := opts
	analyseOpts.MaxRefinements = -1
	analyseOpts.Rand = rand.New(rand.NewSource(j.seed))
	ma, err := core.New(j.prob, clus, sys, analyseOpts)
	if err != nil {
		return err
	}
	analyseMs, err := t.timed(res, "core.analyse", root, func() error {
		_, err := ma.Run()
		return err
	})
	if err != nil {
		return err
	}
	res.sample("core.place_ms", analyseMs-took["ideal.derive"]-took["critical.analyze"])
	res.sample("core.refine_ms", runMs-analyseMs)

	sess := m.Evaluator().NewSwapSession(r.Assignment)
	rng := rand.New(rand.NewSource(j.seed))
	var ks, ls, totals [schedule.SwapLanes]int
	id := t.begin("schedule.swap_batch", root)
	for b := 0; b < swapBatches; b++ {
		for l := range ks {
			ks[l], ls[l] = schedule.RandSwapPair(rng, clus.K)
		}
		sess.TrySwapBatch(&ks, &ls, &totals)
	}
	res.sample("schedule.ns_per_trial", t.end(id)*1e6/(swapBatches*schedule.SwapLanes))
	return nil
}

// probeService times the service layer on one sampled operation, in
// process: the request fingerprint of a freshly parsed problem, a cold
// solve of the request exactly as the untraced loop sends it, a cache hit,
// and a warm-start remap onto a perturbed copy.
func probeService(ctx context.Context, solver *service.Solver, j job, perturbSeed int64, res *result) error {
	p, err := graph.ReadProblem(strings.NewReader(j.text))
	if err != nil {
		return err
	}
	j.prob = p
	req := j.request()
	cacheable := *req
	cacheable.NoCache = false
	t0 := time.Now()
	if _, err := solver.Fingerprint(&cacheable); err != nil {
		return err
	}
	res.sample("service.fingerprint_us", float64(time.Since(t0))/1e3)
	t0 = time.Now()
	cold, err := solver.Solve(ctx, req)
	if err != nil {
		return err
	}
	res.sample("service.cold_ms", ms(time.Since(t0)))
	if req.NoCache { // fill the cache for the hit, untimed
		if _, err := solver.Solve(ctx, &cacheable); err != nil {
			return err
		}
	}
	t0 = time.Now()
	hit, err := solver.Solve(ctx, &cacheable)
	if err != nil {
		return err
	}
	res.sample("service.hit_us", float64(time.Since(t0))/1e3)
	p2, err := perturbed(p, j.mach.sys, perturbSeed)
	if err != nil {
		return err
	}
	moved := cacheable
	moved.Problem = p2
	t0 = time.Now()
	warm, err := solver.Remap(ctx, cold, &moved)
	if err != nil {
		return err
	}
	res.sample("service.remap_ms", ms(time.Since(t0)))
	switch {
	case cold.Diagnostics.CacheHit:
		return errors.New("first solve was a cache hit")
	case !hit.Diagnostics.CacheHit:
		return errors.New("repeated solve missed the cache")
	case !warm.Diagnostics.WarmStart:
		return errors.New("remap did not warm-start")
	}
	for _, r := range []*core.Result{cold.Result, hit.Result, warm.Result} {
		if err := checkBound(r.TotalTime, r.LowerBound, r.OptimalProven); err != nil {
			return err
		}
	}
	return verifyTotal(cold.Problem, cold.Clustering, cold.System, cold.Result.Assignment.ProcOf, cold.Result.TotalTime)
}

// probeWire sends the sample to a mapserve process: each request as a
// miss, again as a hit (whose body must match byte for byte), and a remap
// onto the same perturbed copy probeService used.
func probeWire(ctx context.Context, bin string, jobs []job, seed int64, res *result) error {
	srv, err := startServer(bin, jobs[0].opts.Workers)
	if err != nil {
		return err
	}
	defer srv.stop()
	for i, j := range jobs {
		res.Attempted++
		w := j.wire(j.text)
		ans, body, took, err := srv.call(ctx, "/solve", &w, "miss")
		if err != nil {
			res.fail("wire probe %d: %v", i, err)
			continue
		}
		res.sample("mapserve.miss_ms", ms(took))
		_, again, took, err := srv.call(ctx, "/solve", &w, "hit")
		if err == nil && !bytes.Equal(body, again) {
			err = errors.New("repeated request got a different body")
		}
		if err != nil {
			res.fail("wire probe %d: %v", i, err)
			continue
		}
		res.sample("mapserve.hit_ms", ms(took))
		p2, err := perturbed(j.prob, j.mach.sys, deriveSeed(seed, perturbStream+i))
		if err != nil {
			return err
		}
		rw := remapWire(w, ans.Assignment, problemText(p2))
		if _, _, took, err = srv.call(ctx, "/remap", &rw, "warm"); err != nil {
			res.fail("wire probe %d: %v", i, err)
			continue
		}
		res.sample("mapserve.remap_ms", ms(took))
	}
	return nil
}

// minTraceOps is how many operations the traced run decomposes even when
// --seconds has run out.
const minTraceOps = 3

// traceWorkload is the traced run of one workload.
func traceWorkload(ctx context.Context, w *workload, cfg config) (*result, error) {
	res := newResult(w.name, true)
	s, err := w.build(cfg.seed, cfg.quick)
	if err != nil {
		return nil, err
	}
	t := &tracer{origin: time.Now()}
	deadline := t.origin.Add(cfg.duration())
	// Two entries hold a probe's cold answer and its remap; large-cold
	// answers are ~100 MB each.
	solver := &service.Solver{Workers: 1, MaxCachedResults: 2}
	var jobs []job
	for i := 0; i < cfg.traceOps(w) && (i < minTraceOps || time.Now().Before(deadline)); i++ {
		j := s.op(i)
		if j.text == "" {
			j.text = problemText(j.prob)
		}
		t.op = i
		res.Attempted++
		if err := t.decompose(ctx, j, res); err != nil {
			return nil, fmt.Errorf("decomposing op %d: %w", i, err)
		}
		// Right after the decomposition, so the traced sum and the
		// untraced solve it is compared with see the same machine state.
		if err := probeService(ctx, solver, j, deriveSeed(cfg.seed, perturbStream+i), res); err != nil {
			res.fail("service probe %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	if err := probeWire(ctx, cfg.mapserve, jobs[:min(len(jobs), cfg.wireOps(w))], cfg.seed, res); err != nil {
		return nil, err
	}

	for _, d := range perLayer {
		if xs, ok := res.Samples[d.name]; ok {
			res.Metrics[d.name] = median(xs)
		}
	}
	// Counts and shares are means over the sample, not medians.
	res.Metrics["search.trials"] = mean(res.Samples["search.trials"])
	res.Metrics["search.improved_ratio"] = 0
	if trials := sum(res.Samples["search.trials"]); trials > 0 {
		res.Metrics["search.improved_ratio"] = sum(res.Samples["search.improved"]) / trials
	}
	res.Metrics["search.bound_hit_ratio"] = mean(res.Samples["search.bound_hit"])
	res.Metrics["search.quality_pct_over_bound"] = mean(res.Samples["search.quality_pct_over_bound"])
	res.Metrics["mapserve.wire_ms"] = res.Metrics["mapserve.hit_ms"] - res.Metrics["service.hit_us"]/1e3
	res.Metrics["trace.overhead_ms"] = res.Metrics["trace.span_sum_ms"] - res.Metrics["service.cold_ms"]
	res.info("traced_ops", float64(len(jobs)), "count")
	for name, v := range selfTimes(t.spans) {
		res.info("self."+name+"_ms", v, "ms")
	}
	res.Spans = t.spans
	return res, nil
}

// selfTimes is the median self time of every span name: its duration minus
// the part its child spans cover, in ms.
func selfTimes(spans []span) map[string]float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string][]float64{}
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start-child[i])/1e6)
	}
	out := make(map[string]float64, len(byName))
	for name, xs := range byName {
		out[name] = median(xs)
	}
	return out
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
