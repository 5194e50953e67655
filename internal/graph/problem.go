// Package graph defines the graph families used by the mapping strategy of
// Yang, Bic and Nicolau: the problem graph (a weighted task DAG), the
// clustered problem graph, the abstract graph, and the system graph.
//
// Tasks and processors are identified by dense 0-based integers. The paper
// numbers tasks from 1; all worked examples in this repository therefore
// appear shifted down by one relative to the paper's figures.
//
// All weights are non-negative integers measured in abstract time units, as
// in the paper: node weights are task execution times, edge weights are
// communication times across a single system edge.
//
//mapcheck:deterministic
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
)

// Problem is a problem graph Gp: a directed acyclic graph whose nodes are
// tasks with execution-time weights and whose edges carry communication-time
// weights. An edge i→j of weight w > 0 means task i must complete before
// task j starts and sends a message of cost w (per system edge traversed).
//
// The input form is an edge log: SetEdge appends to it, and Clone, Equal
// and WriteProblem read it without freezing. Validate, TopoOrder, Fingerprint, View and the
// whole-graph queries (NumEdges, TotalComm, Sources, Sinks,
// CriticalPathLength, EdgeList) freeze the problem: they build the sparse
// View from the log once, and every per-solve consumer reads that. After
// the freeze point SetEdge panics.
//
// The zero value is an empty graph with no tasks; use NewProblem to allocate
// a graph of a given size.
type Problem struct {
	// Size holds the execution time of each task. len(Size) is the number
	// of tasks np.
	Size []int

	// edges is the edge log, one entry per SetEdge call in call order.
	edges []Arc
	// fp and view memoize Fingerprint and View; see the freeze-point
	// contract in fingerprint.go. They also make Problem no-copy (vet:
	// copylocks).
	fp   fpMemo
	view atomic.Pointer[View]
}

// NewProblem returns a problem graph with n tasks, no edges, and all task
// sizes zero.
func NewProblem(n int) *Problem {
	return &Problem{Size: make([]int, n)}
}

// View returns the frozen sparse view of the problem, building it on first
// use. The first call is the problem's freeze point: later changes to Size
// are not seen, and SetEdge panics. Concurrent first calls build equal
// views and all return the one that was stored.
func (p *Problem) View() *View {
	if v := p.view.Load(); v != nil {
		return v
	}
	v := newView(p)
	if !p.view.CompareAndSwap(nil, v) {
		v = p.view.Load()
	}
	return v
}

// NumTasks returns np, the number of tasks.
func (p *Problem) NumTasks() int { return len(p.Size) }

// SetEdge records the precedence edge i→j with communication weight w. A
// later call for the same pair replaces the weight, and w == 0 deletes the
// edge. It panics if i or j is out of range, or if the problem is frozen
// (see View); use Validate to detect semantic problems such as cycles or
// negative weights.
func (p *Problem) SetEdge(i, j, w int) {
	if n := p.NumTasks(); i < 0 || i >= n || j < 0 || j >= n {
		panic(fmt.Sprintf("graph: SetEdge(%d, %d) out of range [0,%d)", i, j, n))
	}
	if p.view.Load() != nil {
		panic("graph: SetEdge on a frozen problem")
	}
	p.edges = append(p.edges, Arc{From: i, To: j, W: w})
}

// NumEdges returns the number of precedence edges. It freezes the problem.
func (p *Problem) NumEdges() int { return p.View().NumEdges() }

// TotalWork returns the sum of all task sizes: the serial execution time of
// the program on a single processor, ignoring communication.
func (p *Problem) TotalWork() int {
	w := 0
	for _, s := range p.Size {
		w += s
	}
	return w
}

// TotalComm returns the sum of all edge weights. It freezes the problem.
func (p *Problem) TotalComm() int {
	w := 0
	for _, a := range p.View().arcs {
		w += a.W
	}
	return w
}

// Clone returns a deep copy of the problem graph. The copy is not frozen.
func (p *Problem) Clone() *Problem {
	q := NewProblem(p.NumTasks())
	copy(q.Size, p.Size)
	q.edges = slices.Clone(p.edges)
	return q
}

// Equal reports whether two problem graphs have identical task sizes and
// edges. It does not freeze either problem.
func (p *Problem) Equal(q *Problem) bool {
	return slices.Equal(p.Size, q.Size) && slices.Equal(settle(p.edges), settle(q.edges))
}

// ErrCyclic is returned by Validate and TopoOrder when the problem graph
// contains a directed cycle and therefore is not a precedence graph.
var ErrCyclic = errors.New("graph: problem graph contains a cycle")

// Validate checks the structural invariants of a problem graph: edges
// between existing tasks, non-negative task sizes and edge weights, no
// self-loops, and acyclicity. It freezes the problem: the verdict is
// computed once, with the view.
func (p *Problem) Validate() error { return p.View().Err() }

// TopoOrder returns the task IDs in a topological order of the precedence
// DAG (Kahn's algorithm; ties broken by ascending task ID so the order is
// deterministic). It returns ErrCyclic if the graph has a cycle. The slice
// is the caller's own copy; View().Order() shares the frozen one.
func (p *Problem) TopoOrder() ([]int, error) {
	order, err := p.View().Order()
	if err != nil {
		return nil, err
	}
	return append([]int(nil), order...), nil
}

// Sources returns the tasks with no predecessors. It freezes the problem.
func (p *Problem) Sources() []int {
	v := p.View()
	var srcs []int
	for i := 0; i < v.n; i++ {
		if v.InDegree(i) == 0 {
			srcs = append(srcs, i)
		}
	}
	return srcs
}

// Sinks returns the tasks with no successors. It freezes the problem.
func (p *Problem) Sinks() []int {
	v := p.View()
	var snks []int
	for i := 0; i < v.n; i++ {
		if v.OutDegree(i) == 0 {
			snks = append(snks, i)
		}
	}
	return snks
}

// CriticalPathLength returns the longest path through the DAG counting task
// sizes and edge weights: the ideal-graph lower bound for the special case
// where every task is its own cluster. It panics if the graph is cyclic.
func (p *Problem) CriticalPathLength() int {
	v := p.View()
	order, err := v.Order()
	if err != nil {
		panic(err)
	}
	end := make([]int, v.n)
	best := 0
	for _, i := range order {
		start := 0
		for _, e := range v.In(i) {
			a := v.arcs[e]
			if t := end[a.From] + a.W; t > start {
				start = t
			}
		}
		end[i] = start + p.Size[i]
		if end[i] > best {
			best = end[i]
		}
	}
	return best
}
