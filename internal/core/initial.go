package core

import (
	"mimdmap/internal/critical"
	"mimdmap/internal/graph"
	"mimdmap/internal/schedule"
)

// initialAssignment implements §4.3.2: place the abstract node with the
// highest critical degree on the system node with the highest degree, then
// grow outward along critical abstract edges (step 2), then place the
// remaining abstract nodes by communication intensity (step 3). It returns
// the assignment and the frozen (critical abstract node) markers used by
// refinement. abs is the abstract graph of the mapper's clustered problem.
//
// Deviations from the paper, all in under-specified corners:
//
//   - Ties are broken by lowest ID instead of "arbitrarily", for
//     determinism.
//   - The step-1 seed is marked critical only when its critical degree is
//     positive; with no critical edges anywhere, freezing an arbitrary
//     cluster would only shrink the refinement space.
//   - When the critical subgraph (step 2) or the abstract graph (step 3) is
//     disconnected, the walk re-seeds on the highest-ranked unvisited node
//     and places it on the highest-degree free system node.
func (m *Mapper) initialAssignment(crit *critical.Analysis, abs *graph.Abstract) (*schedule.Assignment, []bool) {
	na := abs.K
	ns := m.sys.NumNodes()
	assign := &schedule.Assignment{ProcOf: make([]int, na)}
	for k := range assign.ProcOf {
		assign.ProcOf[k] = -1
	}
	frozen := make([]bool, na)
	visitedAbs := make([]bool, na)
	visitedSys := make([]bool, ns)
	deg := m.sys.Degrees()
	mca := abs.MCA()
	// critAdj[k] / absAdj[k] report whether abstract node k shares a
	// critical / any abstract edge with a visited node. Maintaining them
	// as nodes are visited keeps the next-node scans O(K) instead of
	// rescanning every visited node for every candidate.
	critAdj := make([]bool, na)
	absAdj := make([]bool, na)
	scratch := pickScratch{
		neighbours: make([]placedNeighbour, 0, na),
		candidates: make([]int, 0, ns),
		seen:       make([]bool, ns),
	}

	visit := func(va int) {
		visitedAbs[va] = true
		for _, e := range crit.AbsEdge.Row(va) {
			critAdj[e.To] = true
		}
		for _, e := range abs.Row(va) {
			absAdj[e.To] = true
		}
	}
	place := func(va, vs int) {
		assign.ProcOf[va] = vs
		visit(va)
		visitedSys[vs] = true
	}

	// maxDegreeFreeSys returns the unvisited system node with the highest
	// degree (lowest ID on ties), or -1 when none remain.
	maxDegreeFreeSys := func() int {
		best := -1
		for v := 0; v < ns; v++ {
			if visitedSys[v] {
				continue
			}
			if best == -1 || deg[v] > deg[best] {
				best = v
			}
		}
		return best
	}

	// Step 1: seed with the maximum-critical-degree abstract node on the
	// maximum-degree system node.
	seedSys := maxDegreeFreeSys()
	seedAbs := 0
	for k := 1; k < na; k++ {
		if crit.Degree[k] > crit.Degree[seedAbs] {
			seedAbs = k
		}
	}
	place(seedAbs, seedSys)
	if crit.Degree[seedAbs] > 0 {
		frozen[seedAbs] = true
	}

	// Step 2: grow along critical abstract edges until every abstract node
	// with critical edges is placed.
	for {
		va := nextNode(crit.Degree, visitedAbs, critAdj, true)
		if va == -1 {
			break
		}
		visit(va)
		vs, adjacent := m.pickSystemNode(crit.AbsEdge.Row(va), deg, visitedSys, assign, &scratch)
		if vs == -1 {
			// Disconnected critical component: re-seed on the best free
			// system node. The node cannot be adjacent to a placed critical
			// neighbour (it has none), so it is not frozen.
			vs = maxDegreeFreeSys()
			assign.ProcOf[va] = vs
			visitedSys[vs] = true
			continue
		}
		assign.ProcOf[va] = vs
		visitedSys[vs] = true
		if adjacent {
			// The critical abstract edge va—neighbour landed on a single
			// system edge, so va is a critical abstract node
			// (definition 5) and is pinned during refinement.
			frozen[va] = true
		}
	}

	// Step 3: place the remaining abstract nodes in descending
	// communication intensity, preferring neighbours of placed nodes.
	for {
		va := nextNode(mca, visitedAbs, absAdj, false)
		if va == -1 {
			break
		}
		visit(va)
		vs, _ := m.pickSystemNode(abs.Row(va), deg, visitedSys, assign, &scratch)
		if vs == -1 {
			vs = maxDegreeFreeSys()
		}
		assign.ProcOf[va] = vs
		visitedSys[vs] = true
	}
	return assign, frozen
}

// nextNode returns the unvisited abstract node with the highest rank among
// those adjacent to a visited node (adjacent[k]), falling back to the
// highest-ranked unvisited node as a re-seed, or -1 when none remain; ties
// go to the lowest ID. Step 2 ranks by critical degree and skips nodes
// without critical edges (positiveOnly); step 3 ranks by communication
// intensity over every unvisited node.
func nextNode(rank []int, visitedAbs, adjacent []bool, positiveOnly bool) int {
	bestAdj, bestAny := -1, -1
	for k, r := range rank {
		if visitedAbs[k] || (positiveOnly && r == 0) {
			continue
		}
		if bestAny == -1 || r > rank[bestAny] {
			bestAny = k
		}
		if adjacent[k] && (bestAdj == -1 || r > rank[bestAdj]) {
			bestAdj = k
		}
	}
	if bestAdj != -1 {
		return bestAdj
	}
	return bestAny
}

// placedNeighbour is a placed abstract neighbour of the node being placed:
// its processor and the weight of the edge between them.
type placedNeighbour struct{ proc, w int }

// pickScratch is pickSystemNode's working space, owned by the caller so
// that a placement allocates nothing per node: va's placed neighbours, the
// step-(b) candidate processors, and a per-processor "already a candidate"
// mark (returned all-false).
type pickScratch struct {
	neighbours []placedNeighbour
	candidates []int
	seen       []bool
}

// pickSystemNode chooses the processor for abstract node va (steps 2(b)/(c)
// and 3(b)/(c) of §4.3.2). row is va's row of the relevant abstract graph:
// the critical abstract edges in step 2, all abstract edges in step 3. deg
// holds the system node degrees.
//
// The paper's step (b) accepts any free system node that is "a neighbor of
// some marked node"; when several qualify it ranks by system-node degree
// only. The candidates are collected from the system neighbours of the
// placed neighbours' processors (system links are symmetric, so these are
// exactly the free nodes adjacent to one), and only they are priced.
// Within the paper's freedom we rank them by the total weighted distance
// from all placed neighbours of va — Σ weight(va,l) × dist(proc(l), cand) —
// which keeps the whole neighbourhood close rather than a single anchor;
// ties go to the higher degree, then the lower ID. Step (c) applies the
// same rule over every free node, and runs only when no free node is
// adjacent to a placed neighbour. adjacent reports whether the chosen node
// is directly linked to a placed neighbour's processor (the condition under
// which step 2 marks va as a critical abstract node). Returns (-1, false)
// when va has no placed neighbour.
func (m *Mapper) pickSystemNode(row []graph.AbsArc, deg []int, visitedSys []bool, assign *schedule.Assignment, s *pickScratch) (proc int, adjacent bool) {
	neighbours := s.neighbours[:0]
	for _, e := range row {
		if p := assign.ProcOf[e.To]; p >= 0 {
			neighbours = append(neighbours, placedNeighbour{p, e.W})
		}
	}
	if len(neighbours) == 0 {
		return -1, false
	}

	// Step (b): the free system neighbours of the placed neighbours'
	// processors, each once.
	candidates := s.candidates[:0]
	for _, nbr := range neighbours {
		for _, v := range m.sys.Neighbors(nbr.proc) {
			if !visitedSys[v] && !s.seen[v] {
				s.seen[v] = true
				candidates = append(candidates, v)
			}
		}
	}
	for _, v := range candidates {
		s.seen[v] = false
	}

	dist, ns := m.dist.ToMajor(), len(visitedSys)
	best, bestCost := -1, 0
	price := func(v int) {
		into := dist[v*ns : v*ns+ns] // into[p] = dist(p, v)
		cost := 0
		for _, nbr := range neighbours {
			cost += nbr.w * int(into[nbr.proc])
		}
		// Lower weighted distance, then higher degree, then lower ID.
		if best == -1 || cost < bestCost ||
			(cost == bestCost && (deg[v] > deg[best] || (deg[v] == deg[best] && v < best))) {
			best, bestCost = v, cost
		}
	}
	for _, v := range candidates {
		price(v)
	}
	if best != -1 {
		return best, true
	}
	// Step (c): no free node neighbours a placed one; price them all.
	for v, used := range visitedSys {
		if !used {
			price(v)
		}
	}
	return best, false
}
