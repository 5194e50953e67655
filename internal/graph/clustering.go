package graph

import "fmt"

// Clustering assigns every task of a problem graph to one of K clusters.
// It corresponds to the paper's cluster matrix clus_pnode, stored inverted:
// Of[task] = cluster. The paper requires the number of clusters na to equal
// the number of system nodes ns, and every cluster to be non-empty.
type Clustering struct {
	// Of maps each task ID to its cluster ID in [0, K).
	Of []int
	// K is the number of clusters na.
	K int

	// fp memoizes Fingerprint; see the freeze-point contract in
	// fingerprint.go. It also makes Clustering no-copy (vet: copylocks).
	fp fpMemo
}

// NewClustering returns a clustering of n tasks into k clusters with every
// task initially in cluster 0.
func NewClustering(n, k int) *Clustering {
	return &Clustering{Of: make([]int, n), K: k}
}

// NumTasks returns the number of clustered tasks.
func (c *Clustering) NumTasks() int { return len(c.Of) }

// Validate checks that every task has a cluster in range and that every
// cluster is non-empty (the paper's abstraction step treats each cluster as
// one abstract node, so an empty cluster would be a phantom processor).
func (c *Clustering) Validate() error {
	if c.K <= 0 {
		return fmt.Errorf("graph: clustering has %d clusters, want > 0", c.K)
	}
	seen := make([]bool, c.K)
	for t, k := range c.Of {
		if k < 0 || k >= c.K {
			return fmt.Errorf("graph: task %d assigned to cluster %d, want [0,%d)", t, k, c.K)
		}
		seen[k] = true
	}
	for k, ok := range seen {
		if !ok {
			return fmt.Errorf("graph: cluster %d is empty", k)
		}
	}
	return nil
}

// Members returns the tasks of cluster k in ascending order (one row of the
// paper's clus_pnode matrix).
func (c *Clustering) Members(k int) []int {
	var m []int
	for t, ck := range c.Of {
		if ck == k {
			m = append(m, t)
		}
	}
	return m
}

// Sizes returns the number of tasks in each cluster.
func (c *Clustering) Sizes() []int {
	sz := make([]int, c.K)
	for _, k := range c.Of {
		if k >= 0 && k < c.K {
			sz[k]++
		}
	}
	return sz
}

// Loads returns the total task execution time placed in each cluster.
func (c *Clustering) Loads(p *Problem) []int {
	load := make([]int, c.K)
	for t, k := range c.Of {
		load[k] += p.Size[t]
	}
	return load
}

// Clone returns a deep copy of the clustering.
func (c *Clustering) Clone() *Clustering {
	d := &Clustering{Of: make([]int, len(c.Of)), K: c.K}
	copy(d.Of, c.Of)
	return d
}

// SameCluster reports whether tasks i and j live in the same cluster.
func (c *Clustering) SameCluster(i, j int) bool { return c.Of[i] == c.Of[j] }

// Canonical relabels clusters in order of first appearance so that two
// clusterings that partition tasks identically compare equal regardless of
// cluster numbering. It returns a new clustering.
func (c *Clustering) Canonical() *Clustering {
	d := NewClustering(len(c.Of), c.K)
	next := 0
	relabel := make(map[int]int, c.K)
	for t, k := range c.Of {
		nk, ok := relabel[k]
		if !ok {
			nk = next
			relabel[k] = nk
			next++
		}
		d.Of[t] = nk
	}
	return d
}

// CommWeight returns the clustered weight of problem edge a — its entry in
// the paper's clustered edge matrix clus_edge: the problem weight when the
// edge joins two clusters, 0 when it stays inside one. The precedence
// constraint between same-cluster tasks still exists, but its
// communication is free, since the tasks share a processor.
func (c *Clustering) CommWeight(a Arc) int {
	if c.Of[a.From] == c.Of[a.To] {
		return 0
	}
	return a.W
}

// ClusteredWeights returns clus_edge in sparse form: CommWeight of every
// edge of v, indexed by edge ID.
func ClusteredWeights(v *View, c *Clustering) []int {
	cw := make([]int, v.NumEdges())
	for e, a := range v.arcs {
		cw[e] = c.CommWeight(a)
	}
	return cw
}

// Abstract is the abstract graph Ga: each cluster collapsed to a single
// abstract node, parallel clustered edges between the same pair of clusters
// collapsed into one abstract edge. The paper stores only edge presence
// (abs_edge is 0/1); we additionally keep the summed weight, from which both
// the adjacency and the communication-intensity vector mca are derived.
//
// The graph is kept as compressed sparse rows: Row(k) lists the abstract
// edges of node k, so a build and a walk over every row cost O(K + edges),
// not the K² of the paper's matrix.
type Abstract struct {
	// K is the number of abstract nodes na.
	K int
	// off[k]..off[k+1] delimit Row(k) in arcs.
	off  []int
	arcs []AbsArc
	// mca[k] is the weight sum of Row(k).
	mca []int
}

// AbsArc is one abstract edge seen from one of its endpoints: the abstract
// node To at the other end and the summed weight W > 0 of the clustered
// edges between the two, in either direction.
type AbsArc struct {
	To, W int
}

// BuildAbstract collapses a clustered problem graph into its abstract graph.
func BuildAbstract(p *Problem, c *Clustering) *Abstract {
	return FoldAbstract(c, p.View().arcs)
}

// FoldAbstract collapses arcs, task edges weighted by W, onto the clusters
// of c: every arc with W > 0 between two clusters adds W to the abstract
// edge between them, in both rows. Arcs inside one cluster are skipped.
//
// The build is O(K + len(arcs)). One bucket pass groups the contributing
// arcs by cluster. Walking the buckets in ascending cluster order r then
// appends r to the row of each neighbour o, so every row fills in
// ascending order and a repeated pair is always the row's last entry,
// where it merges. Rows fill at their bucket offsets, an upper bound, and
// are packed down at the end.
func FoldAbstract(c *Clustering, arcs []Arc) *Abstract {
	k := c.K
	a := &Abstract{K: k, off: make([]int, k+1), mca: make([]int, k)}
	// bucket[start[r]:start[r+1]] holds, for each arc incident to cluster
	// r, the cluster o at its other end and the arc's index e; int32 halves
	// the bucket, and cluster and arc counts stay far below 2³¹.
	type half struct{ o, e int32 }
	start := make([]int, k+1)
	for _, arc := range arcs {
		if x, y := c.Of[arc.From], c.Of[arc.To]; arc.W > 0 && x != y {
			start[x+1]++
			start[y+1]++
		}
	}
	for r := 0; r < k; r++ {
		start[r+1] += start[r]
	}
	next := make([]int, k)
	copy(next, start[:k])
	bucket := make([]half, start[k])
	for e, arc := range arcs {
		if x, y := c.Of[arc.From], c.Of[arc.To]; arc.W > 0 && x != y {
			bucket[next[x]] = half{int32(y), int32(e)}
			bucket[next[y]] = half{int32(x), int32(e)}
			next[x]++
			next[y]++
		}
	}
	// Row o fills out[start[o]:next[o]].
	copy(next, start[:k])
	out := make([]AbsArc, start[k])
	for r := 0; r < k; r++ {
		for _, h := range bucket[start[r]:start[r+1]] {
			o, w := h.o, arcs[h.e].W
			if n := next[o]; n > start[o] && out[n-1].To == r {
				out[n-1].W += w
			} else {
				out[n] = AbsArc{To: r, W: w}
				next[o]++
			}
			a.mca[o] += w
		}
	}
	n := 0
	for r := 0; r < k; r++ {
		a.off[r] = n
		n += copy(out[n:], out[start[r]:next[r]])
	}
	a.off[k] = n
	a.arcs = out[:n:n]
	return a
}

// Row returns the abstract edges of node k, ascending in To. The slice is
// shared: callers must not modify it.
func (a *Abstract) Row(k int) []AbsArc { return a.arcs[a.off[k]:a.off[k+1]] }

// MCA returns the communication-intensity vector mca: MCA()[k] is the sum of
// the weights of all clustered problem edges incident to cluster k, the
// weight sum of Row(k). It is used by step 3 of the initial-assignment
// algorithm to order the abstract nodes that carry no critical edges. The
// slice is shared: callers must not modify it.
func (a *Abstract) MCA() []int { return a.mca }

// NumEdges returns the number of (undirected) abstract edges.
func (a *Abstract) NumEdges() int { return len(a.arcs) / 2 }
