// Package exact finds provably optimal cluster→processor assignments by
// branch and bound. The mapping problem is NP-complete (§1 of the paper),
// so this is only tractable for small machines (ns ≲ 10), but within that
// range it provides ground truth: the experiments use it to measure how far
// the paper's heuristic lands from the true optimum, something the paper
// itself could only bound from below via the ideal graph.
//
// The search assigns clusters to processors in descending order of
// communication intensity. Partial assignments are bounded optimistically:
// every cluster pair not yet fully placed communicates at distance 1 (as on
// the system-graph closure), so the partial bound never exceeds the true
// total time of any completion — pruning is safe. The ideal-graph lower
// bound doubles as a global stopping rule (Theorem 3): a completion that
// reaches it is optimal and ends the search immediately.
package exact

import (
	"math"
	"sort"

	"mimdmap/internal/schedule"
)

// Options bounds the search.
type Options struct {
	// MaxNodes caps the number of expanded search nodes; 0 means no cap.
	// When the cap is hit the best assignment found so far is returned
	// with Proven == false.
	MaxNodes int
}

// Result is the outcome of an exact search.
type Result struct {
	// Assignment is the best complete assignment found.
	Assignment *schedule.Assignment
	// TotalTime is its complete execution time.
	TotalTime int
	// Proven reports that the search completed (or hit the ideal bound),
	// so TotalTime is the true optimum.
	Proven bool
	// Nodes is the number of search nodes expanded.
	Nodes int
}

// Solve runs branch and bound over all assignments for the evaluator's
// instance. idealBound is the ideal-graph lower bound (pass 0 if unknown;
// the global stopping rule is then never triggered early, but results stay
// correct).
func Solve(e *schedule.Evaluator, idealBound int, opts Options) *Result {
	k := e.Clus.K
	topo, err := e.View().Order()
	if err != nil {
		// The evaluator's constructor already rejected cyclic graphs.
		panic(err)
	}
	s := &solver{
		e:          e,
		idealBound: idealBound,
		maxNodes:   opts.MaxNodes,
		procOf:     make([]int, k),
		usedProc:   make([]bool, k),
		best:       math.MaxInt,
		order:      intensityOrder(e),
		topo:       topo,
		end:        make([]int, e.Prob.NumTasks()),
	}
	for i := range s.procOf {
		s.procOf[i] = -1
	}
	s.dfs(0)
	if s.bestAssign == nil {
		// The node budget was too small to reach even one leaf; fall back
		// to the identity assignment so the result is always usable.
		id := schedule.NewAssignment(k)
		return &Result{
			Assignment: id,
			TotalTime:  e.TotalTime(id),
			Proven:     false,
			Nodes:      s.nodes,
		}
	}
	return &Result{
		Assignment: schedule.FromPerm(s.bestAssign),
		TotalTime:  s.best,
		Proven:     !s.budgetHit,
		Nodes:      s.nodes,
	}
}

type solver struct {
	e          *schedule.Evaluator
	idealBound int
	maxNodes   int

	order      []int // clusters in placement order
	procOf     []int // partial assignment (-1 = unassigned)
	usedProc   []bool
	best       int
	bestAssign []int
	nodes      int
	budgetHit  bool
	done       bool

	topo []int // topological order of the task DAG (the view's, shared)
	end  []int // scratch buffer for partial evaluation
}

// intensityOrder returns clusters sorted by descending total incident
// clustered-edge weight, so the most constrained decisions happen first.
func intensityOrder(e *schedule.Evaluator) []int {
	k := e.Clus.K
	weight := make([]int, k)
	for id, arc := range e.View().Arcs() {
		if w := e.CEdge(id); w > 0 {
			weight[e.Clus.Of[arc.From]] += w
			weight[e.Clus.Of[arc.To]] += w
		}
	}
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if weight[order[a]] != weight[order[b]] {
			return weight[order[a]] > weight[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

func (s *solver) dfs(depth int) {
	if s.done {
		return
	}
	s.nodes++
	if s.maxNodes > 0 && s.nodes > s.maxNodes {
		s.budgetHit = true
		s.done = true
		return
	}
	k := s.e.Clus.K
	if depth == k {
		total := s.partialTotalTime()
		if total < s.best {
			s.best = total
			s.bestAssign = append(s.bestAssign[:0], s.procOf...)
			if s.idealBound > 0 && s.best == s.idealBound {
				s.done = true // Theorem 3: optimal, stop everything
			}
		}
		return
	}
	// Prune: the optimistic completion of this partial assignment cannot
	// beat the incumbent.
	if depth > 0 && s.partialTotalTime() >= s.best {
		return
	}
	cluster := s.order[depth]
	for proc := 0; proc < k; proc++ {
		if s.usedProc[proc] {
			continue
		}
		s.procOf[cluster] = proc
		s.usedProc[proc] = true
		s.dfs(depth + 1)
		s.usedProc[proc] = false
		s.procOf[cluster] = -1
		if s.done {
			return
		}
	}
}

// partialTotalTime evaluates the dataflow schedule where unplaced cluster
// pairs communicate at the optimistic distance 1. For complete assignments
// this is the exact total time; for partial ones a valid lower bound on
// every completion (real distances are ≥ 1 and evaluation is monotone in
// every communication weight).
func (s *solver) partialTotalTime() int {
	e := s.e
	v := e.View()
	arcs := v.Arcs()
	end := s.end
	total := 0
	for _, i := range s.topo {
		start := 0
		ci := e.Clus.Of[i]
		for _, id := range v.In(i) {
			j := arcs[id].From
			t := end[j]
			if w := e.CEdge(id); w > 0 {
				d := 1
				pj, pi := s.procOf[e.Clus.Of[j]], s.procOf[ci]
				if pj >= 0 && pi >= 0 {
					d = e.Dist.At(pj, pi)
				}
				t += w * d
			}
			if t > start {
				start = t
			}
		}
		end[i] = start + e.Prob.Size[i]
		if end[i] > total {
			total = end[i]
		}
	}
	return total
}
