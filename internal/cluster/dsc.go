package cluster

import (
	"sort"

	"mimdmap/internal/graph"
	"mimdmap/internal/stats"
)

// DominantSequence is a simplified dominant-sequence clusterer in the
// spirit of Gerasoulis/Yang (refs [8] and [10] of the paper). Tasks are
// examined in topological order; each task joins the predecessor cluster
// that minimises its start time under sequential-cluster semantics (tasks
// sharing a cluster execute back to back, intra-cluster communication is
// free), or opens a new cluster when that is faster. The pass naturally
// zeroes the dominant sequence's communication edges.
//
// The pass produces some m ≤ np clusters; a folding phase then reaches
// exactly k: overfull results merge the two lightest clusters repeatedly,
// underfull results split the largest clusters at their insertion
// boundaries. Both preserve non-emptiness.
//
// Note the merge test deliberately uses sequential-cluster semantics even
// though the paper's evaluation model is pure dataflow — under pure
// dataflow a single all-absorbing cluster would always look best, which is
// exactly the degenerate clustering DSC's estimate exists to avoid.
type DominantSequence struct{}

// Name implements Clusterer.
func (DominantSequence) Name() string { return "dominant-sequence" }

// Cluster implements Clusterer.
func (DominantSequence) Cluster(p *graph.Problem, k int) (*graph.Clustering, error) {
	if err := checkArgs(p, k); err != nil {
		return nil, err
	}
	v := p.View()
	order, err := v.Order()
	if err != nil {
		return nil, err
	}
	arcs := v.Arcs()
	n := p.NumTasks()
	clusterOf := make([]int, n)
	for i := range clusterOf {
		clusterOf[i] = -1
	}
	var members [][]int  // cluster → tasks in insertion (topological) order
	var clusterEnd []int // cluster → finish time of its last task
	start := make([]int, n)
	end := make([]int, n)

	for _, i := range order {
		preds := v.In(i) // edge IDs, sources ascending
		// Start time if i opens a fresh cluster: all messages paid.
		freshStart := 0
		for _, e := range preds {
			if t := end[arcs[e].From] + arcs[e].W; t > freshStart {
				freshStart = t
			}
		}
		bestCluster, bestStart := -1, freshStart
		// Joining predecessor j's cluster zeroes messages from every task
		// already in that cluster, but i must wait for the cluster's last
		// task to finish (sequential execution).
		tried := map[int]bool{}
		for _, e := range preds {
			c := clusterOf[arcs[e].From]
			if tried[c] {
				continue
			}
			tried[c] = true
			ready := 0
			for _, f := range preds {
				q := arcs[f].From
				t := end[q]
				if clusterOf[q] != c {
					t += arcs[f].W
				}
				if t > ready {
					ready = t
				}
			}
			s := ready
			if clusterEnd[c] > s {
				s = clusterEnd[c]
			}
			if s < bestStart {
				bestStart, bestCluster = s, c
			}
		}
		if bestCluster == -1 {
			bestCluster = len(members)
			members = append(members, nil)
			clusterEnd = append(clusterEnd, 0)
		}
		clusterOf[i] = bestCluster
		members[bestCluster] = append(members[bestCluster], i)
		start[i] = bestStart
		end[i] = bestStart + p.Size[i]
		clusterEnd[bestCluster] = end[i]
	}

	members = foldToK(p, members, k)
	c := graph.NewClustering(n, k)
	for id, tasks := range members {
		for _, t := range tasks {
			c.Of[t] = id
		}
	}
	return c, nil
}

// foldToK merges or splits clusters until exactly k remain. Merging joins
// the two lightest clusters (by task execution time); splitting halves the
// heaviest splittable cluster at its insertion midpoint.
func foldToK(p *graph.Problem, members [][]int, k int) [][]int {
	load := func(tasks []int) int {
		w := 0
		for _, t := range tasks {
			w += p.Size[t]
		}
		return w
	}
	for len(members) > k {
		// Find the two lightest clusters.
		a, b := -1, -1
		for i := range members {
			switch {
			case a == -1 || load(members[i]) < load(members[a]):
				b = a
				a = i
			case b == -1 || load(members[i]) < load(members[b]):
				b = i
			}
		}
		members[a] = append(members[a], members[b]...)
		members = append(members[:b], members[b+1:]...)
	}
	for len(members) < k {
		// Split the heaviest cluster with ≥ 2 tasks; guaranteed to exist
		// because np ≥ k.
		best := -1
		for i := range members {
			if len(members[i]) < 2 {
				continue
			}
			if best == -1 || load(members[i]) > load(members[best]) {
				best = i
			}
		}
		mid := len(members[best]) / 2
		tail := append([]int(nil), members[best][mid:]...)
		members[best] = members[best][:mid]
		members = append(members, tail)
	}
	// Deterministic cluster numbering: by smallest member task.
	sort.Slice(members, func(x, y int) bool {
		return stats.Min(members[x]) < stats.Min(members[y])
	})
	return members
}
