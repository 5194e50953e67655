// Package critical identifies the critical problem edges and critical
// abstract edges of an ideal graph (§4.2 of the paper, Theorems 1 and 2).
//
// A clustered problem edge is critical when any increase of its weight
// lengthens the total execution time of the ideal graph. By Theorems 1–2
// that is exactly the set of edges that are tight (i_edge == clus_edge) and
// lie on a tight path to a latest task. The algorithm walks backwards from
// the latest tasks, marking tight predecessor edges.
//
// Two propagation modes are provided:
//
//   - Paper (default): predecessors are found among the clustered edges,
//     exactly as §4.2 Algorithm I states. An intra-cluster precedence edge
//     (removed from the clustered graph) therefore stops the walk, even when
//     it has zero slack.
//   - Full: the walk also crosses tight intra-cluster edges (slack zero
//     over the problem edges). This finds inter-cluster edges that are
//     critical by the paper's *definition* but missed by its *algorithm*
//     when a zero-slack intra-cluster hop sits between them and the latest
//     task. The ablation experiment E9 measures the difference.
//
// The paper's crit_edge is an np×np matrix; Analysis keeps one entry per
// problem edge instead (indexed by edge ID of the problem's graph.View) and
// walks the view's predecessor lists, and the critical abstract graph is
// kept in sparse rows, so an analysis costs O(np + K + edges).
package critical

import (
	"mimdmap/internal/graph"
	"mimdmap/internal/ideal"
)

// Propagation selects how criticality walks across intra-cluster edges.
type Propagation int

const (
	// Paper follows §4.2 Algorithm I literally: only clustered
	// (inter-cluster) edges propagate criticality.
	Paper Propagation = iota
	// Full additionally propagates across tight intra-cluster precedence
	// edges. Strictly more edges may be marked critical.
	Full
)

// String returns the mode name.
func (p Propagation) String() string {
	switch p {
	case Paper:
		return "paper"
	case Full:
		return "full"
	default:
		return "unknown"
	}
}

// Analysis holds every critical-edge artefact the mapping algorithm needs.
type Analysis struct {
	// Mode records the propagation mode used.
	Mode Propagation
	// ProbEdge is crit_edge in sparse form, indexed by edge ID: ProbEdge[e]
	// is the clustered weight of critical edge e, 0 if the edge is not
	// critical.
	ProbEdge []int
	// AbsEdge is the critical abstract graph, the paper's K×K matrix
	// c_abs_edge in sparse rows (without its extra degree column):
	// AbsEdge.Row(k) lists the clusters l joined to k by a critical
	// problem edge, ascending, each with the summed weight of the critical
	// problem edges between k and l. It is built by graph.FoldAbstract,
	// the builder of the abstract graph itself.
	AbsEdge *graph.Abstract
	// Degree[k] is the critical degree of abstract node k: the sum of the
	// weights of all critical abstract edges incident to it (the last
	// column of the paper's c_abs_edge matrix), the row sums of AbsEdge.
	// It shares AbsEdge.MCA()'s slice.
	Degree []int
	// OnCriticalPath[i] reports that delaying the start of task i delays
	// the total time — task i was reached by the backward walk.
	OnCriticalPath []bool
}

// Analyze computes the critical problem edges, critical abstract edges and
// critical degrees of ideal graph g (derived from problem p and clustering
// c) under the given propagation mode.
func Analyze(p *graph.Problem, c *graph.Clustering, g *ideal.Graph, mode Propagation) *Analysis {
	n := p.NumTasks()
	v := p.View()
	arcs := v.Arcs()
	a := &Analysis{
		Mode:           mode,
		ProbEdge:       make([]int, len(arcs)),
		OnCriticalPath: make([]bool, n),
	}

	// Backward walk from the latest tasks (§4.2 Algorithm I). The visited
	// set doubles as the "already in LS" marker; each task is expanded once.
	worklist := make([]int, 0, n)
	for _, i := range g.LatestTasks {
		if !a.OnCriticalPath[i] {
			a.OnCriticalPath[i] = true
			worklist = append(worklist, i)
		}
	}
	for len(worklist) > 0 {
		i := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		for _, e := range v.In(i) {
			j := arcs[e].From
			switch mode {
			case Paper:
				// Predecessors found among the clustered edges; tight iff
				// i_edge == clus_edge.
				if g.CEdge[e] > 0 && g.Edge[e] == g.CEdge[e] {
					a.ProbEdge[e] = g.CEdge[e]
					if !a.OnCriticalPath[j] {
						a.OnCriticalPath[j] = true
						worklist = append(worklist, j)
					}
				}
			case Full:
				// Predecessors found among all problem edges; tight iff the
				// start of i equals the delivery time from j. For
				// inter-cluster edges this coincides with i_edge ==
				// clus_edge; for intra-cluster edges it is slack zero with
				// comm 0.
				if g.Start[i] == g.End[j]+g.CEdge[e] {
					if g.CEdge[e] > 0 {
						a.ProbEdge[e] = g.CEdge[e]
					}
					if !a.OnCriticalPath[j] {
						a.OnCriticalPath[j] = true
						worklist = append(worklist, j)
					}
				}
			}
		}
	}

	// Fold critical problem edges into critical abstract edges
	// (§4.2 Algorithm II); the row sums are the critical degrees
	// (Algorithm III).
	crit := make([]graph.Arc, 0, a.NumCriticalProbEdges())
	for e, w := range a.ProbEdge {
		if w > 0 {
			crit = append(crit, graph.Arc{From: arcs[e].From, To: arcs[e].To, W: w})
		}
	}
	a.AbsEdge = graph.FoldAbstract(c, crit)
	a.Degree = a.AbsEdge.MCA()
	return a
}

// HasCriticalEdges reports whether any critical problem edge exists. A
// program whose lower bound is dominated by computation (or whose critical
// path is entirely intra-cluster in Paper mode) may have none; the initial
// assignment then falls through to communication-intensity placement.
func (a *Analysis) HasCriticalEdges() bool {
	for _, d := range a.Degree {
		if d > 0 {
			return true
		}
	}
	return false
}

// CriticalClusters returns the abstract nodes with at least one incident
// critical abstract edge, in ascending ID order.
func (a *Analysis) CriticalClusters() []int {
	var ks []int
	for k, d := range a.Degree {
		if d > 0 {
			ks = append(ks, k)
		}
	}
	return ks
}

// NumCriticalProbEdges returns the count of critical problem edges.
func (a *Analysis) NumCriticalProbEdges() int {
	n := 0
	for _, w := range a.ProbEdge {
		if w > 0 {
			n++
		}
	}
	return n
}

// NumCriticalAbsEdges returns the count of (undirected) critical abstract
// edges.
func (a *Analysis) NumCriticalAbsEdges() int { return a.AbsEdge.NumEdges() }

// LongestCriticalChain extracts one maximal tight path of the ideal graph:
// starting from the lowest-numbered latest task, it repeatedly steps to the
// lowest-numbered predecessor whose delivery is tight (start[i] == end[j] +
// clus_edge[j][i], across any precedence edge), until a source is reached.
// The returned task sequence runs source → latest task; its node weights
// plus clustered communication weights sum exactly to the lower bound.
// Reports and visualisations use it to show *why* the bound is what it is.
func LongestCriticalChain(p *graph.Problem, g *ideal.Graph) []int {
	if len(g.LatestTasks) == 0 {
		return nil
	}
	v := p.View()
	arcs := v.Arcs()
	chain := []int{g.LatestTasks[0]}
	cur := g.LatestTasks[0]
	for {
		next := -1
		for _, e := range v.In(cur) {
			if j := arcs[e].From; g.Start[cur] == g.End[j]+g.CEdge[e] {
				next = j
				break
			}
		}
		if next == -1 {
			break
		}
		chain = append(chain, next)
		cur = next
	}
	// Reverse to source → latest order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}
