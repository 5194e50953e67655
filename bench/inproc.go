package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"mimdmap/internal/service"
)

// setupReps is how many times each workload sets up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

// measureInproc runs an in-process workload: one long-lived
// service.Solver, one client, cold solves back to back.
func measureInproc(ctx context.Context, w *workload, cfg config) (*result, error) {
	res := newResult(w.name, false)
	var s *suite
	var solver *service.Solver
	var setups []float64
	for r := 0; r < cfg.setupReps(); r++ {
		began := time.Now()
		var err error
		if s, err = w.build(cfg.seed, cfg.quick); err != nil {
			return nil, err
		}
		solver = service.NewSolver(1)
		for k := 0; k < w.warmups; k++ {
			j := s.warmup(k)
			if _, err := solver.Solve(ctx, j.request()); err != nil {
				return nil, fmt.Errorf("warm-up solve %d: %w", k, err)
			}
		}
		setups = append(setups, time.Since(began).Seconds())
	}
	res.setupMetric(setups)

	minOps := cfg.minOps(w)
	var checks []pendingCheck
	var quality []float64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	began := time.Now()
	deadline := began.Add(cfg.duration())
	var lat []float64
	var starts []time.Duration
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		j := s.op(i)
		req := j.request()
		t0 := time.Now()
		resp, err := solver.Solve(ctx, req)
		lat = append(lat, ms(time.Since(t0)))
		starts = append(starts, t0.Sub(began))
		res.Attempted++
		if i+1 == minOps {
			runtime.ReadMemStats(&after)
		}
		if err != nil {
			res.fail("op %d: %v", i, err)
			continue
		}
		r := resp.Result
		if err := checkBound(r.TotalTime, r.LowerBound, r.OptimalProven); err != nil {
			res.fail("op %d: %v", i, err)
			continue
		}
		if i < minOps {
			quality = append(quality, pctOver(r.TotalTime, r.LowerBound))
		}
		if i%w.checkEvery == 0 {
			checks = append(checks, pendingCheck{op: i, prob: resp.Problem, clus: resp.Clustering, sys: resp.System,
				procOf: append([]int(nil), r.Assignment.ProcOf...), total: r.TotalTime})
		}
	}
	elapsed := time.Since(began)
	for i := range checks {
		if err := checks[i].run(); err != nil {
			res.fail("%v", err)
		}
	}
	rss, err := vmHWM("self")
	if err != nil {
		return nil, err
	}

	res.speedMetrics(lat, starts, elapsed, w.window)
	res.info("quality_pct_over_bound", mean(quality), "%")
	res.Metrics["alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / float64(minOps)
	res.Metrics["rss_peak_mb"] = rss
	res.info("checked_ops", float64(len(checks)), "count")
	res.info("loop_s", elapsed.Seconds(), "s")
	res.Samples["latency_ms"] = lat
	res.Samples["quality_pct_over_bound"] = quality
	return res, nil
}
