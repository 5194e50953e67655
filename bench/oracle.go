package main

import (
	"fmt"

	"mimdmap/internal/graph"
	"mimdmap/internal/paths"
	"mimdmap/internal/schedule"
)

// checkBound is the oracle every response passes: the total time never
// beats the §4.1 lower bound, and optimality is claimed exactly when the
// total reaches it (Theorem 3).
func checkBound(total, bound int, proven bool) error {
	if total < bound {
		return fmt.Errorf("total time %d is below the lower bound %d", total, bound)
	}
	if proven != (total == bound) {
		return fmt.Errorf("optimal_proven=%v with total %d and bound %d", proven, total, bound)
	}
	return nil
}

// verifyTotal re-prices an assignment with an evaluator built from scratch,
// independent of the solver that produced it.
func verifyTotal(p *graph.Problem, c *graph.Clustering, s *graph.System, procOf []int, total int) error {
	ev, err := schedule.NewEvaluator(p, c, paths.New(s))
	if err != nil {
		return err
	}
	if got := ev.TotalTime(schedule.FromPerm(procOf)); got != total {
		return fmt.Errorf("reported total %d, a fresh evaluator gives %d", total, got)
	}
	return nil
}

// pctOver is a response's quality: how far its total lies above the lower
// bound, in percent of the bound.
func pctOver(total, bound int) float64 {
	return 100 * float64(total-bound) / float64(bound)
}

// pendingCheck is a sampled response kept for verifyTotal after the timed
// loop, so the check's cost stays out of the measurement.
type pendingCheck struct {
	op     int
	prob   *graph.Problem
	clus   *graph.Clustering
	sys    *graph.System
	procOf []int
	total  int
}

func (c *pendingCheck) run() error {
	if err := verifyTotal(c.prob, c.clus, c.sys, c.procOf, c.total); err != nil {
		return fmt.Errorf("op %d: %w", c.op, err)
	}
	return nil
}
