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
	"sync/atomic"
)

// Problem is a problem graph Gp: a directed acyclic graph whose nodes are
// tasks with execution-time weights and whose edges carry communication-time
// weights. Edge[i][j] > 0 means task i must complete before task j starts
// and sends a message of cost Edge[i][j] (per system edge traversed).
//
// Edge is the input form that parsers, generators and Diff read and write.
// Everything that runs per solve reads the frozen sparse View instead,
// built on first use by Validate, TopoOrder, Fingerprint, View or one of
// the whole-graph queries (NumEdges, TotalComm, Sources, Sinks,
// CriticalPathLength, EdgeList). After that freeze point the problem must
// not change: SetEdge panics, and direct writes to Edge are not seen.
// Preds, Succs, InDegree and OutDegree scan Edge and never freeze.
//
// The zero value is an empty graph with no tasks; use NewProblem to allocate
// a graph of a given size.
type Problem struct {
	// Size holds the execution time of each task. len(Size) is the number
	// of tasks np.
	Size []int
	// Edge is the np×np problem edge matrix prob_edge of the paper.
	// Edge[i][j] is the communication weight of the precedence edge i→j,
	// or 0 if there is no edge.
	Edge [][]int

	// fp and view memoize Fingerprint and View; see the freeze-point
	// contract in fingerprint.go. They also make Problem no-copy (vet:
	// copylocks).
	fp   fpMemo
	view atomic.Pointer[View]
}

// NewProblem returns a problem graph with n tasks, no edges, and all task
// sizes zero.
func NewProblem(n int) *Problem {
	p := &Problem{
		Size: make([]int, n),
		Edge: make([][]int, n),
	}
	cells := make([]int, n*n)
	for i := range p.Edge {
		p.Edge[i], cells = cells[:n:n], cells[n:]
	}
	return p
}

// View returns the frozen sparse view of the problem, building it on first
// use. The first call is the problem's freeze point: later changes to Size
// or Edge are not seen, and SetEdge panics. Concurrent first calls build
// equal views and all return the one that was stored.
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

// SetEdge records the precedence edge i→j with communication weight w.
// It panics if i or j is out of range, or if the problem is frozen (see
// View); use Validate to detect semantic problems such as cycles or
// non-positive weights.
func (p *Problem) SetEdge(i, j, w int) {
	if p.view.Load() != nil {
		panic("graph: SetEdge on a frozen problem")
	}
	p.Edge[i][j] = w
}

// HasEdge reports whether the precedence edge i→j exists.
func (p *Problem) HasEdge(i, j int) bool { return p.Edge[i][j] > 0 }

// NumEdges returns the number of precedence edges. It freezes the problem.
func (p *Problem) NumEdges() int { return p.View().NumEdges() }

// Preds returns the predecessor task IDs of task i in ascending order.
// Like Succs, InDegree and OutDegree it scans the dense matrix and does not
// freeze the problem, so generators can call it mid-construction; on a
// frozen problem, View().In and View().Out answer without the scan.
func (p *Problem) Preds(i int) []int {
	var preds []int
	for j := range p.Edge {
		if p.Edge[j][i] > 0 {
			preds = append(preds, j)
		}
	}
	return preds
}

// Succs returns the successor task IDs of task i in ascending order.
func (p *Problem) Succs(i int) []int {
	var succs []int
	for j := range p.Edge[i] {
		if p.Edge[i][j] > 0 {
			succs = append(succs, j)
		}
	}
	return succs
}

// InDegree returns the number of predecessors of task i.
func (p *Problem) InDegree(i int) int {
	n := 0
	for j := range p.Edge {
		if p.Edge[j][i] > 0 {
			n++
		}
	}
	return n
}

// OutDegree returns the number of successors of task i.
func (p *Problem) OutDegree(i int) int {
	n := 0
	for j := range p.Edge[i] {
		if p.Edge[i][j] > 0 {
			n++
		}
	}
	return n
}

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
	for i := range p.Edge {
		copy(q.Edge[i], p.Edge[i])
	}
	return q
}

// Equal reports whether two problem graphs have identical task sizes and
// edge matrices.
func (p *Problem) Equal(q *Problem) bool {
	if p.NumTasks() != q.NumTasks() {
		return false
	}
	for i, s := range p.Size {
		if q.Size[i] != s {
			return false
		}
	}
	for i := range p.Edge {
		for j := range p.Edge[i] {
			if p.Edge[i][j] != q.Edge[i][j] {
				return false
			}
		}
	}
	return true
}

// ErrCyclic is returned by Validate and TopoOrder when the problem graph
// contains a directed cycle and therefore is not a precedence graph.
var ErrCyclic = errors.New("graph: problem graph contains a cycle")

// Validate checks the structural invariants of a problem graph: a square
// edge matrix matching len(Size), non-negative task sizes and edge weights,
// no self-loops, and acyclicity. It freezes the problem: the verdict is
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
