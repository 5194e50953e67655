package schedule

import (
	"fmt"
	"math"
	"math/rand"

	"mimdmap/internal/graph"
	"mimdmap/internal/paths"
)

// Assignment maps abstract nodes (clusters) to system nodes (processors).
// It is stored in both directions; the paper's assi[ns] vector is ProcOf
// inverted. A valid assignment is a bijection, since na == ns.
type Assignment struct {
	// ProcOf[k] is the processor hosting cluster k.
	ProcOf []int
}

// NewAssignment returns the identity assignment of k clusters.
func NewAssignment(k int) *Assignment {
	a := &Assignment{ProcOf: make([]int, k)}
	for i := range a.ProcOf {
		a.ProcOf[i] = i
	}
	return a
}

// FromPerm builds an assignment from a cluster→processor permutation slice.
// The slice is copied.
func FromPerm(perm []int) *Assignment {
	a := &Assignment{ProcOf: make([]int, len(perm))}
	copy(a.ProcOf, perm)
	return a
}

// K returns the number of clusters (== processors).
func (a *Assignment) K() int { return len(a.ProcOf) }

// ClusterOn returns the inverse map: ClusterOn()[p] is the cluster hosted by
// processor p (the paper's assi vector). It panics if the assignment is not
// a bijection.
func (a *Assignment) ClusterOn() []int {
	inv := make([]int, len(a.ProcOf))
	for i := range inv {
		inv[i] = -1
	}
	for k, p := range a.ProcOf {
		if p < 0 || p >= len(inv) || inv[p] != -1 {
			panic(fmt.Sprintf("schedule: assignment is not a bijection at cluster %d → proc %d", k, p))
		}
		inv[p] = k
	}
	return inv
}

// Validate checks that the assignment is a bijection onto [0, K).
func (a *Assignment) Validate() error {
	seen := make([]bool, len(a.ProcOf))
	for k, p := range a.ProcOf {
		if p < 0 || p >= len(seen) {
			return fmt.Errorf("schedule: cluster %d assigned to processor %d, want [0,%d)", k, p, len(seen))
		}
		if seen[p] {
			return fmt.Errorf("schedule: processor %d hosts two clusters", p)
		}
		seen[p] = true
	}
	return nil
}

// Clone returns a deep copy of the assignment.
func (a *Assignment) Clone() *Assignment {
	return FromPerm(a.ProcOf)
}

// Equal reports whether two assignments place every cluster identically.
func (a *Assignment) Equal(b *Assignment) bool {
	if a.K() != b.K() {
		return false
	}
	for i := range a.ProcOf {
		if a.ProcOf[i] != b.ProcOf[i] {
			return false
		}
	}
	return true
}

// Swap exchanges the processors of clusters k and l in place.
func (a *Assignment) Swap(k, l int) {
	a.ProcOf[k], a.ProcOf[l] = a.ProcOf[l], a.ProcOf[k]
}

// Result holds the outcome of evaluating one assignment.
type Result struct {
	// Start and End are the per-task start and end times
	// (matrices start[np] and end[np] of the paper).
	Start, End []int
	// TotalTime is the complete execution time: max over tasks of End.
	TotalTime int
	// LatestTasks are the tasks whose end time equals TotalTime
	// (the paper's "latest tasks"), in ascending ID order.
	LatestTasks []int
}

// Evaluator computes total time for assignments of one (problem, clustering,
// system) triple. It packs the problem's frozen view (graph.View) into a
// flattened, topologically renumbered predecessor structure carrying the
// clustered edge weights, so repeated evaluation during refinement performs
// no per-call allocation; building one costs O(np + edges). The distance
// table is read in place, never copied.
//
// An Evaluator owns a scratch arena reused by TotalTime and EvaluateInto
// and is therefore NOT safe for concurrent use. Concurrent callers — the
// multi-start refinement chains, batch-solver workers — must each evaluate
// through their own handle obtained with Fork, which shares the read-only
// precomputation and allocates only a fresh arena.
type Evaluator struct {
	Prob *graph.Problem
	Clus *graph.Clustering
	Dist *paths.Table

	view  *graph.View // Prob's frozen sparse view
	order []int       // topological order of the task DAG, shared with view

	// Hot-path precomputation, read-only after construction and shared by
	// every Fork. Tasks are renumbered by topological position t (the task
	// at position t is order[t]), so the evaluation loop walks all arrays
	// sequentially; predecessor edges are packed into one int32 record
	// stream per kind to keep the per-edge cache traffic to a single line.
	ns        int        // number of processors
	distT     []int32    // distT[to*ns+from] = Dist.At(from, to): Dist.ToMajor(), shared
	size      []int32    // size[t] = Prob.Size[order[t]]
	clusOf    []int32    // clusOf[t] = Clus.Of[order[t]]
	commOff   []int32    // CSR offsets (len n+1) into commEdges
	commEdges []commEdge // predecessor edges in topo order (w == 0 when local)

	// end is the per-evaluator scratch arena (end times by topo position).
	// It is the only mutable state and the reason Fork exists.
	end []int
}

// commEdge is one predecessor edge of a task: the predecessor's
// topological position, its cluster, and the clustered edge weight
// (0 for an intra-cluster precedence, whose communication is free —
// 0×distance keeps the evaluation loops branch-free).
type commEdge struct {
	pred, clus, w int32
}

// NewEvaluator builds an evaluator. The problem graph must be acyclic (it
// returns graph.ErrCyclic otherwise — validate inputs first) and the
// clustering must cover exactly the problem's tasks with K ==
// dist.NumNodes().
func NewEvaluator(p *graph.Problem, c *graph.Clustering, dist *paths.Table) (*Evaluator, error) {
	if c.NumTasks() != p.NumTasks() {
		return nil, fmt.Errorf("schedule: clustering covers %d tasks, problem has %d", c.NumTasks(), p.NumTasks())
	}
	if c.K != dist.NumNodes() {
		return nil, fmt.Errorf("schedule: %d clusters but %d processors", c.K, dist.NumNodes())
	}
	v := p.View()
	order, err := v.Order()
	if err != nil {
		return nil, err
	}
	// The packed evaluation structures hold sizes and clustered weights as
	// int32; reject inputs that would silently truncate (Validate only
	// rejects negatives).
	for i, size := range p.Size {
		if size > math.MaxInt32 {
			return nil, fmt.Errorf("schedule: task %d size %d exceeds the evaluator's %d limit", i, size, math.MaxInt32)
		}
	}
	for _, a := range v.Arcs() {
		if w := c.CommWeight(a); w > math.MaxInt32 {
			return nil, fmt.Errorf("schedule: clustered edge %d→%d weight %d exceeds the evaluator's %d limit", a.From, a.To, w, math.MaxInt32)
		}
	}
	e := &Evaluator{
		Prob:  p,
		Clus:  c,
		Dist:  dist,
		view:  v,
		order: order,
	}
	e.precompute()
	return e, nil
}

// View returns the frozen problem view the evaluator was built from. Its
// edge IDs index CEdge.
func (e *Evaluator) View() *graph.View { return e.view }

// CEdge returns the clustered weight clus_edge of the problem edge with the
// given ID (see graph.View): its problem weight when it joins two clusters,
// 0 when it stays inside one.
func (e *Evaluator) CEdge(id int) int { return e.Clus.CommWeight(e.view.Arcs()[id]) }

// precompute flattens the evaluation state: the predecessor CSR split into
// communication-free and communicating edges, indexed by topological
// position. The records are packed straight from the view's predecessor
// lists (sources ascending). Distances are read from the table's own
// to-major cells.
func (e *Evaluator) precompute() {
	n := e.Prob.NumTasks()
	e.ns = e.Dist.NumNodes()
	e.distT = e.Dist.ToMajor()
	pos := make([]int32, n) // pos[task] = topological position
	for t, i := range e.order {
		pos[i] = int32(t)
	}
	e.size = make([]int32, n)
	e.clusOf = make([]int32, n)
	e.commOff = make([]int32, n+1)
	for t, i := range e.order {
		e.size[t] = int32(e.Prob.Size[i])
		e.clusOf[t] = int32(e.Clus.Of[i])
		e.commOff[t+1] = e.commOff[t] + int32(e.view.InDegree(i))
	}
	arcs := e.view.Arcs()
	e.commEdges = make([]commEdge, e.commOff[n])
	q := 0
	for _, i := range e.order {
		for _, id := range e.view.In(i) {
			a := arcs[id]
			e.commEdges[q] = commEdge{pred: pos[a.From], clus: int32(e.Clus.Of[a.From]), w: int32(e.Clus.CommWeight(a))}
			q++
		}
	}
	e.end = make([]int, n)
}

// Fork returns an independent evaluation handle: it shares every read-only
// precomputed structure with e (problem, clustering, distances, CSR arrays)
// but owns a fresh scratch arena, so e and the fork may evaluate
// concurrently without locks. Forking costs one []int allocation of np
// words.
func (e *Evaluator) Fork() *Evaluator {
	f := *e
	f.end = make([]int, len(e.end))
	return &f
}

// Evaluate computes start/end times and the total time of assignment a
// (Algorithms II–III of §4.3.4). The paper's restartable marking loop is
// equivalent to one pass in topological order, which is what we do. It
// allocates a fresh Result per call; the refinement loop uses TotalTime,
// and callers that re-evaluate in a loop should reuse one via EvaluateInto.
func (e *Evaluator) Evaluate(a *Assignment) *Result {
	res := &Result{}
	e.EvaluateInto(a, res)
	return res
}

// EvaluateInto is Evaluate writing into res, reusing its slices when their
// capacity allows: with a warmed Result (one prior call on the same
// evaluator shape) it performs no allocation. Like TotalTime it uses the
// evaluator's scratch arena, so concurrent callers need their own Fork.
//
//mapcheck:noalloc
func (e *Evaluator) EvaluateInto(a *Assignment, res *Result) {
	n := len(e.size)
	//mapcheck:allow cold grow path: warm Results reuse capacity, the steady state allocates nothing
	res.Start = growInts(res.Start, n)
	//mapcheck:allow cold grow path: warm Results reuse capacity, the steady state allocates nothing
	res.End = growInts(res.End, n)
	res.LatestTasks = res.LatestTasks[:0]
	total := e.fillEnds(a.ProcOf, e.end)
	for t, v := range e.end {
		i := e.order[t]
		res.Start[i] = v - int(e.size[t])
		res.End[i] = v
	}
	res.TotalTime = total
	for i := 0; i < n; i++ {
		if res.End[i] == total {
			res.LatestTasks = append(res.LatestTasks, i)
		}
	}
}

// TotalTime is Evaluate without materialising per-task results; it is the
// hot path of the refinement loop and performs no allocation: end times
// live in the evaluator's scratch arena and every lookup walks the
// flattened CSR arrays in topological order. Concurrent callers must each
// use their own Fork.
//
//mapcheck:noalloc
func (e *Evaluator) TotalTime(a *Assignment) int {
	return e.fillEnds(a.ProcOf, e.end)
}

// fillEnds runs the topological evaluation pass, writing the end time of
// every task (by topological position) into end and returning the
// makespan. It is the shared body of TotalTime, EvaluateInto and the
// SwapSession's scalar passes.
//
//mapcheck:noalloc
func (e *Evaluator) fillEnds(procOf []int, end []int) int {
	commOff, commEdges := e.commOff, e.commEdges
	clusOf, size, distT, ns := e.clusOf, e.size, e.distT, e.ns
	total := 0
	for t := range end {
		start := 0
		if ces := commEdges[commOff[t]:commOff[t+1]]; len(ces) > 0 {
			base := procOf[clusOf[t]] * ns
			for _, ce := range ces {
				if v := end[ce.pred] + int(ce.w)*int(distT[base+procOf[ce.clus]]); v > start {
					start = v
				}
			}
		}
		v := start + int(size[t])
		end[t] = v
		if v > total {
			total = v
		}
	}
	return total
}

// growInts returns s resized to n, reusing its backing array when the
// capacity allows and allocating otherwise.
func growInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// RandPermInto fills p with a random permutation of [0,len(p)), consuming
// rng exactly as rand.Perm does (the same Intn sequence) but into a
// caller-owned buffer. Trial loops that draw fresh permutations — random
// mappings, the FullReshuffle refinement — hoist their buffer and stay
// allocation-free without changing their random stream.
func RandPermInto(rng *rand.Rand, p []int) {
	for i := range p {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}

// RandSwapPair draws two distinct indices from [0,k) with exactly two Intn
// calls — the §4.3.3 RandomSwap move's draw. It is the single definition of
// the refinement trial distribution, shared by core.refine and the
// benchmarks that claim to measure it; k must be at least 2.
func RandSwapPair(rng *rand.Rand, k int) (i, j int) {
	i = rng.Intn(k)
	j = rng.Intn(k - 1)
	if j >= i {
		j++
	}
	return i, j
}

// Cardinality returns Bokhari's mapping-quality measure under assignment a:
// the number of clustered problem edges whose endpoint clusters land on
// directly linked processors (distance exactly 1). Intra-cluster edges do
// not count. Used by the §2.2 counterexample and the cardinality baseline,
// whose pairwise-exchange ascent hammers it; walking the edge CSR instead
// of a dense clustered matrix makes each call O(edges), allocation-free.
func (e *Evaluator) Cardinality(a *Assignment) int {
	card := 0
	procOf := a.ProcOf
	for t := range e.size {
		ces := e.commEdges[e.commOff[t]:e.commOff[t+1]]
		if len(ces) == 0 {
			continue
		}
		base := procOf[e.clusOf[t]] * e.ns
		for i := range ces {
			ce := &ces[i]
			if ce.w > 0 && e.distT[base+procOf[ce.clus]] == 1 {
				card++
			}
		}
	}
	return card
}
