package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// View is the frozen sparse form of a Problem: every precedence edge once,
// reachable from a successor and a predecessor index, plus the topological
// order and the Validate verdict. Problem.View builds it from the edge log
// at the freeze point (see fingerprint.go) and memoises it, so every
// per-solve consumer — validation, the §4.1 ideal graph, the §4.2
// critical-edge walk, the evaluator, the clusterers — reads O(np + edges)
// arrays.
//
// A View is read-only and safe for concurrent use. The slices its methods
// return are shared: callers must not modify them.
type View struct {
	n int
	// arcs holds every edge of weight > 0 sorted by source, then
	// destination, both ascending. An edge's index in arcs is its edge ID;
	// per-edge data elsewhere (clustered weights, ideal edges, critical
	// marks) is indexed by it.
	arcs []Arc
	// out[i]..out[i+1] are the IDs of the edges leaving task i.
	out []int
	// in[inOff[i]:inOff[i+1]] are the IDs of the edges entering task i,
	// sources ascending.
	inOff, in []int
	// order is the topological order, nil when the graph is cyclic.
	order []int
	err   error
}

// Arc is one precedence edge From→To with communication weight W: W > 0
// in a View, and the weight SetEdge was given in a problem's edge log.
type Arc struct {
	From, To, W int
}

// settle returns the edges an edge log leaves standing, sorted by source,
// then destination: the last write to each pair, without the weight-0
// writes that delete an edge. Negative weights stay for Validate to
// report. The log itself is not modified, so concurrent first View calls
// may share it.
func settle(log []Arc) []Arc {
	arcs := slices.Clone(log)
	slices.SortStableFunc(arcs, arcOrder)
	kept := arcs[:0]
	for k, a := range arcs {
		if k+1 < len(arcs) && arcs[k+1].From == a.From && arcs[k+1].To == a.To {
			continue // a later write to the pair wins
		}
		if a.W != 0 {
			kept = append(kept, a)
		}
	}
	return kept
}

// arcOrder orders arcs by source, then destination.
func arcOrder(a, b Arc) int {
	return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
}

// newView builds the view of p. The checks run in Validate's historical
// order — task sizes, then edges by source and destination (a negative
// weight before a self-loop), then acyclicity — so the first error
// reported is the same one the dense checks reported.
func newView(p *Problem) *View {
	n := p.NumTasks()
	v := &View{n: n, out: make([]int, n+1), inOff: make([]int, n+1)}
	for i, s := range p.Size {
		if s < 0 {
			v.err = fmt.Errorf("graph: task %d has negative size %d", i, s)
			break
		}
	}
	fail := func(err error) {
		if v.err == nil {
			v.err = err
		}
	}
	arcs := settle(p.edges)
	v.arcs = arcs[:0] // filtered in place: the write index never passes the read
	for _, a := range arcs {
		switch {
		case a.From >= n || a.To >= n: // Size shrank after SetEdge
			fail(fmt.Errorf("graph: edge %d→%d out of range [0,%d)", a.From, a.To, n))
			continue
		case a.W < 0:
			fail(fmt.Errorf("graph: edge %d→%d has negative weight %d", a.From, a.To, a.W))
			continue
		case a.From == a.To:
			fail(fmt.Errorf("graph: task %d has a self-loop", a.From))
		}
		v.arcs = append(v.arcs, a)
		v.out[a.From+1]++
		v.inOff[a.To+1]++
	}
	for i := 0; i < n; i++ {
		v.out[i+1] += v.out[i]
		v.inOff[i+1] += v.inOff[i]
	}
	// Filling in edge-ID order keeps every predecessor list sorted by source.
	next := make([]int, n)
	copy(next, v.inOff[:n])
	v.in = make([]int, len(v.arcs))
	for e, a := range v.arcs {
		v.in[next[a.To]] = e
		next[a.To]++
	}
	v.topoSort(next)
	if v.order == nil && v.err == nil {
		v.err = ErrCyclic
	}
	return v
}

// topoSort runs Kahn's algorithm, always taking the lowest-numbered ready
// task from a binary min-heap, so the order is the lexicographically
// smallest topological order — the one the dense minimum scan produced.
// indeg is scratch of length np.
func (v *View) topoSort(indeg []int) {
	ready := make([]int, 0, v.n)
	for i := 0; i < v.n; i++ {
		indeg[i] = v.InDegree(i)
		if indeg[i] == 0 {
			ready = append(ready, i) // ascending appends keep the heap valid
		}
	}
	order := make([]int, 0, v.n)
	for len(ready) > 0 {
		t := ready[0]
		last := len(ready) - 1
		ready[0] = ready[last]
		ready = ready[:last]
		siftDown(ready)
		order = append(order, t)
		for _, a := range v.arcs[v.out[t]:v.out[t+1]] {
			if indeg[a.To]--; indeg[a.To] == 0 {
				ready = append(ready, a.To)
				siftUp(ready)
			}
		}
	}
	if len(order) == v.n {
		v.order = order
	}
}

// siftUp restores the min-heap property after an append.
func siftUp(h []int) {
	for c := len(h) - 1; c > 0; {
		p := (c - 1) / 2
		if h[p] <= h[c] {
			return
		}
		h[p], h[c] = h[c], h[p]
		c = p
	}
}

// siftDown restores the min-heap property after the root was replaced.
func siftDown(h []int) {
	for p := 0; ; {
		c := 2*p + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[p] <= h[c] {
			return
		}
		h[p], h[c] = h[c], h[p]
		p = c
	}
}

// NumTasks returns np.
func (v *View) NumTasks() int { return v.n }

// NumEdges returns the number of precedence edges.
func (v *View) NumEdges() int { return len(v.arcs) }

// Arcs returns every edge, indexed by edge ID.
func (v *View) Arcs() []Arc { return v.arcs }

// Out returns the ID range [lo, hi) of the edges leaving task i, in
// ascending destination order.
func (v *View) Out(i int) (lo, hi int) { return v.out[i], v.out[i+1] }

// In returns the IDs of the edges entering task i, in ascending source
// order.
func (v *View) In(i int) []int { return v.in[v.inOff[i]:v.inOff[i+1]] }

// InDegree returns the number of predecessors of task i.
func (v *View) InDegree(i int) int { return v.inOff[i+1] - v.inOff[i] }

// OutDegree returns the number of successors of task i.
func (v *View) OutDegree(i int) int { return v.out[i+1] - v.out[i] }

// Order returns the topological order (ties broken by ascending task ID).
// It returns ErrCyclic when the graph has a cycle.
func (v *View) Order() ([]int, error) {
	if v.order == nil {
		return nil, ErrCyclic
	}
	return v.order, nil
}

// Err returns the Validate verdict: nil for a well-formed DAG.
func (v *View) Err() error { return v.err }

// Find returns the ID of edge j→i, or -1 when there is none.
func (v *View) Find(j, i int) int {
	lo, hi := v.Out(j)
	k := lo + sort.Search(hi-lo, func(x int) bool { return v.arcs[lo+x].To >= i })
	if k < hi && v.arcs[k].To == i {
		return k
	}
	return -1
}
