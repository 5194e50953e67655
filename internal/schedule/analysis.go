package schedule

import (
	"fmt"
)

// Analysis helpers: schedule validation against the execution model, and
// the communication statistics used by reports and tests.

// CheckResult verifies that a Result is a faithful dataflow schedule of
// assignment a under evaluator e: end = start + size for every task, every
// task starts no earlier than each predecessor's delivery, at least one
// constraint is tight per task (no gratuitous idling — the paper's model
// starts tasks as soon as data arrives), and TotalTime is the maximum end.
func (e *Evaluator) CheckResult(a *Assignment, res *Result) error {
	n := e.Prob.NumTasks()
	if len(res.Start) != n || len(res.End) != n {
		return fmt.Errorf("schedule: result covers %d/%d tasks, want %d", len(res.Start), len(res.End), n)
	}
	maxEnd := 0
	arcs := e.view.Arcs()
	for i := 0; i < n; i++ {
		if res.End[i] != res.Start[i]+e.Prob.Size[i] {
			return fmt.Errorf("schedule: task %d end %d ≠ start %d + size %d",
				i, res.End[i], res.Start[i], e.Prob.Size[i])
		}
		if res.End[i] > maxEnd {
			maxEnd = res.End[i]
		}
		ready := 0
		preds := e.view.In(i)
		for _, id := range preds {
			j := arcs[id].From
			t := res.End[j]
			if w := e.CEdge(id); w > 0 {
				t += w * e.Dist.At(a.ProcOf[e.Clus.Of[j]], a.ProcOf[e.Clus.Of[i]])
			}
			if res.Start[i] < t {
				return fmt.Errorf("schedule: task %d starts at %d before predecessor %d delivers at %d",
					i, res.Start[i], j, t)
			}
			if t > ready {
				ready = t
			}
		}
		if res.Start[i] != ready && len(preds) > 0 {
			return fmt.Errorf("schedule: task %d idles from %d to %d (dataflow model starts immediately)",
				ready, res.Start[i], i)
		}
		if len(preds) == 0 && res.Start[i] != 0 {
			return fmt.Errorf("schedule: source task %d starts at %d, want 0", i, res.Start[i])
		}
	}
	if res.TotalTime != maxEnd {
		return fmt.Errorf("schedule: total time %d ≠ max end %d", res.TotalTime, maxEnd)
	}
	return nil
}

// CommStats summarises the communication an assignment induces.
type CommStats struct {
	// Edges is the number of inter-cluster (communicating) problem edges.
	Edges int
	// Adjacent counts edges carried by a single machine link.
	Adjacent int
	// Volume is Σ weight × distance over all communicating edges.
	Volume int
	// IdealVolume is Σ weight (the closure volume, all distances 1).
	IdealVolume int
	// MaxDistance is the longest route any message takes.
	MaxDistance int
}

// Dilation returns the mean distance factor: Volume / IdealVolume
// (1.0 means every message crosses exactly one link). Returns 1 when the
// program has no communication.
func (s CommStats) Dilation() float64 {
	if s.IdealVolume == 0 {
		return 1
	}
	return float64(s.Volume) / float64(s.IdealVolume)
}

// AnalyzeComm computes the communication statistics of assignment a.
func (e *Evaluator) AnalyzeComm(a *Assignment) CommStats {
	var st CommStats
	for id, arc := range e.view.Arcs() {
		w := e.CEdge(id)
		if w == 0 {
			continue
		}
		d := e.Dist.At(a.ProcOf[e.Clus.Of[arc.From]], a.ProcOf[e.Clus.Of[arc.To]])
		st.Edges++
		st.Volume += w * d
		st.IdealVolume += w
		if d == 1 {
			st.Adjacent++
		}
		if d > st.MaxDistance {
			st.MaxDistance = d
		}
	}
	return st
}
