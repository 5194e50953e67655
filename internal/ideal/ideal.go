// Package ideal derives the ideal graph of §4.1: the result of mapping the
// clustered problem graph onto the system graph closure (a fully connected
// machine). Because every pair of processors in the closure is adjacent,
// every inter-cluster message crosses exactly one link, so the ideal start
// and end times follow directly from the clustered edge weights. The ideal
// makespan is a lower bound on the total time of any real assignment
// (Theorem 3), and the ideal edge weights feed the critical-edge analysis.
// The paper states both as np×np matrices (clus_edge, i_edge); this package
// keeps one entry per problem edge instead, so a derivation costs
// O(np + edges).
package ideal

import (
	"fmt"

	"mimdmap/internal/graph"
)

// Graph is the derived ideal graph Gi. Edge data is sparse: Edge and CEdge
// hold one entry per problem edge, indexed by edge ID of the problem's
// graph.View; Slack looks an edge up by its endpoints.
type Graph struct {
	// Start and End are the ideal start/end time of every task
	// (matrices i_start and i_end of the paper).
	Start, End []int
	// Edge is the ideal edge weight i_edge of every problem edge:
	// Edge[e] = Start[i] − End[j] for a clustered problem edge e = j→i
	// (CEdge[e] > 0), else 0. Always Edge[e] ≥ CEdge[e]; the excess is
	// slack introduced by data dependencies.
	Edge []int
	// LowerBound is the ideal total time: the makespan no assignment onto
	// the real system graph can beat.
	LowerBound int
	// LatestTasks are the tasks whose ideal end time equals LowerBound,
	// in ascending ID order.
	LatestTasks []int

	// CEdge is the clustered edge weight clus_edge of every problem edge
	// (0 for an intra-cluster edge), retained because the critical-edge
	// analysis compares Edge against it.
	CEdge []int

	view *graph.View
}

// Derive computes the ideal graph of problem p under clustering c
// (Algorithms I–III of §4.1). The problem graph must be acyclic; Derive
// returns graph.ErrCyclic otherwise.
//
// Start times follow the dataflow recurrence with closure distances (all 1):
//
//	i_start[i] = max over predecessors j of (i_end[j] + clus_edge[j][i])
//	i_end[i]   = i_start[i] + task_size[i]
//
// Predecessors are every problem edge into i, not only the clustered ones,
// because intra-cluster precedence edges have no clus_edge weight but still
// order execution (§4.1's task-1/task-4 example). Derive walks the frozen
// view's predecessor lists: O(np + edges) time and memory.
func Derive(p *graph.Problem, c *graph.Clustering) (*Graph, error) {
	if c.NumTasks() != p.NumTasks() {
		return nil, fmt.Errorf("ideal: clustering covers %d tasks, problem has %d", c.NumTasks(), p.NumTasks())
	}
	v := p.View()
	order, err := v.Order()
	if err != nil {
		return nil, err
	}
	n := p.NumTasks()
	arcs := v.Arcs()
	g := &Graph{
		Start: make([]int, n),
		End:   make([]int, n),
		CEdge: graph.ClusteredWeights(v, c),
		view:  v,
	}
	for _, i := range order {
		start := 0
		for _, e := range v.In(i) {
			if t := g.End[arcs[e].From] + g.CEdge[e]; t > start {
				start = t
			}
		}
		g.Start[i] = start
		g.End[i] = start + p.Size[i]
		if g.End[i] > g.LowerBound {
			g.LowerBound = g.End[i]
		}
	}
	for i := 0; i < n; i++ {
		if g.End[i] == g.LowerBound {
			g.LatestTasks = append(g.LatestTasks, i)
		}
	}
	g.Edge = make([]int, len(arcs))
	for e, a := range arcs {
		if g.CEdge[e] > 0 {
			g.Edge[e] = g.Start[a.To] - g.End[a.From]
		}
	}
	return g, nil
}

// Slack returns the slack of clustered problem edge j→i in the ideal graph:
// i_edge[j][i] − clus_edge[j][i] ≥ 0. A zero slack means the edge is tight —
// the precondition of Theorems 1 and 2 for criticality. Slack of an edge not
// in the clustered graph is reported as -1.
func (g *Graph) Slack(j, i int) int {
	e := g.view.Find(j, i)
	if e < 0 || g.CEdge[e] <= 0 {
		return -1
	}
	return g.Edge[e] - g.CEdge[e]
}

// IsLatest reports whether task i is a latest task.
func (g *Graph) IsLatest(i int) bool {
	return g.End[i] == g.LowerBound
}

// Validate cross-checks the internal invariants of a derived ideal graph
// against its problem graph: end = start + size, i_edge ≥ clus_edge,
// dataflow consistency, and the lower bound being the max end time.
func (g *Graph) Validate(p *graph.Problem) error {
	n := p.NumTasks()
	if len(g.Start) != n || len(g.End) != n {
		return fmt.Errorf("ideal: time vectors cover %d/%d tasks, want %d", len(g.Start), len(g.End), n)
	}
	v := p.View()
	if len(g.Edge) != v.NumEdges() || len(g.CEdge) != v.NumEdges() {
		return fmt.Errorf("ideal: edge vectors cover %d/%d edges, want %d", len(g.Edge), len(g.CEdge), v.NumEdges())
	}
	arcs := v.Arcs()
	maxEnd := 0
	for i := 0; i < n; i++ {
		if g.End[i] != g.Start[i]+p.Size[i] {
			return fmt.Errorf("ideal: task %d end %d ≠ start %d + size %d", i, g.End[i], g.Start[i], p.Size[i])
		}
		if g.End[i] > maxEnd {
			maxEnd = g.End[i]
		}
		for _, e := range v.In(i) {
			j := arcs[e].From
			if g.Start[i] < g.End[j]+g.CEdge[e] {
				return fmt.Errorf("ideal: task %d starts at %d before predecessor %d delivers at %d",
					i, g.Start[i], j, g.End[j]+g.CEdge[e])
			}
			if g.CEdge[e] > 0 && g.Edge[e] < g.CEdge[e] {
				return fmt.Errorf("ideal: i_edge[%d][%d]=%d below clus_edge=%d", j, i, g.Edge[e], g.CEdge[e])
			}
		}
	}
	if maxEnd != g.LowerBound {
		return fmt.Errorf("ideal: lower bound %d ≠ max end %d", g.LowerBound, maxEnd)
	}
	return nil
}
