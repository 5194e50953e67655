package baseline

import (
	"math/rand"

	"mimdmap/internal/schedule"
)

// Lee-style phased communication cost (ref [2] of the paper, as described in
// §2.2): communications are grouped into phases, every communication in a
// phase is assumed to start simultaneously, the cost of a phase is the
// largest weighted distance among its edges, and the overall cost is the sum
// over phases.
//
// The paper's figures assign each clustered problem edge to the phase of its
// source task's topological level (all edges leaving the source tasks are
// phase 1, and so on). The exact phase numbering of the original 1987
// algorithm is richer, but this level-based grouping reproduces every
// relation §2.2 uses it for: it is an indirect measure whose optimum can
// miss the time-optimal assignment.

// Phases groups the clustered problem edges of e by the topological level of
// their source task. Phases()[l] lists the IDs (see graph.View, and
// e.View().Arcs() for the endpoints) of the level-l edges, in ascending
// (src,dst) order. Intra-cluster edges carry no communication and are
// excluded.
func Phases(e *schedule.Evaluator) [][]int {
	v := e.View()
	arcs := v.Arcs()
	level := make([]int, v.NumTasks())
	order, err := v.Order()
	if err != nil {
		panic(err) // evaluator construction already rejected cyclic graphs
	}
	maxLevel := 0
	for _, i := range order {
		for _, id := range v.In(i) {
			if j := arcs[id].From; level[j]+1 > level[i] {
				level[i] = level[j] + 1
			}
		}
		if level[i] > maxLevel {
			maxLevel = level[i]
		}
	}
	phases := make([][]int, maxLevel+1)
	for id, arc := range arcs {
		if e.CEdge(id) > 0 {
			phases[level[arc.From]] = append(phases[level[arc.From]], id)
		}
	}
	// Drop trailing empty phases (the last level's tasks send nothing).
	for len(phases) > 0 && len(phases[len(phases)-1]) == 0 {
		phases = phases[:len(phases)-1]
	}
	return phases
}

// CommCost returns the Lee-style phased communication cost of assignment a:
// the sum over phases of the maximum weight×distance in each phase.
func CommCost(e *schedule.Evaluator, phases [][]int, a *schedule.Assignment) int {
	arcs := e.View().Arcs()
	total := 0
	for _, phase := range phases {
		maxCost := 0
		for _, id := range phase {
			arc := arcs[id]
			d := e.Dist.At(a.ProcOf[e.Clus.Of[arc.From]], a.ProcOf[e.Clus.Of[arc.To]])
			if c := e.CEdge(id) * d; c > maxCost {
				maxCost = c
			}
		}
		total += maxCost
	}
	return total
}

// MinCommCost searches for an assignment minimising the phased communication
// cost via restarted pairwise exchange, and returns the best assignment and
// its cost. §2.2 of the paper: this optimum need not minimise total time.
func MinCommCost(e *schedule.Evaluator, restarts int, rng *rand.Rand) (*schedule.Assignment, int) {
	phases := Phases(e)
	return bestOfDescents(e.Clus.K, restarts, rng, func(a *schedule.Assignment) int {
		return CommCost(e, phases, a)
	})
}
