package schedule

// SwapLanes is the width of the batched trial kernel (SwapSession.
// TrySwapBatch): how many candidate swaps one interleaved evaluation pass
// prices at once.
const SwapLanes = 8

// SwapSession is the refinement loop's trial evaluator: it prices
// single-swap perturbations of a committed incumbent assignment, either one
// at a time (TrySwap) or SwapLanes at a time in one interleaved evaluation
// pass (TrySwapBatch).
//
// The batch kernel is where the speed comes from. The §4.3.3 refinement
// evaluates a stream of candidate swaps of which almost all are rejected,
// and consecutive candidates are independent perturbations of the same
// incumbent — so eight of them can share one topological pass. Each edge
// record, offset, task size and cluster id is loaded once for all eight
// lanes, the eight end times of a task live in one cache line, and the
// eight independent dependency chains hide the latency of the distance
// lookups that dominate a scalar pass. Totals are exact — identical to a
// full Evaluator.TotalTime of each swapped assignment — so accept/reject
// decisions stay bit-identical to trial-at-a-time refinement.
//
// Every priced trial costs one full pass — scalar for TrySwap, the
// interleaved kernel for TrySwapBatch. A refiner that keeps a trial only if
// it strictly lowers the total can skip pricing altogether when Certified
// says the swap cannot lower it: the critical-chain certificate below.
//
// Protocol: TrySwap/TrySwapBatch/TryAssign never change the committed
// state; CommitSwap accepts a swap whose exact total the caller already
// knows from TrySwap or a TrySwapBatch lane, and CommitAssign replaces the
// incumbent wholesale (full-reshuffle moves, annealing restarts, Bokhari
// jumps). Every commit is O(1) apart from CommitAssign's copy of the
// assignment; the certificate is rebuilt lazily, at the first Certified
// query after a commit. A session allocates only at
// construction; every Try/Commit method and Certified is allocation-free.
// Sessions share the Evaluator's read-only precomputation, so concurrent
// refinement chains may each run their own session against one Evaluator
// without locks.
type SwapSession struct {
	e *Evaluator

	a       *Assignment // committed incumbent (private copy)
	total   int         // committed total time
	scratch []int       // end times of the scalar full-evaluation passes

	// The batch kernel's lane-major processor views: procT[c*SwapLanes+l]
	// is the processor of cluster c in lane l, where lane l is the
	// incumbent with the swap (laneK[l], laneL[l]) applied, valid while
	// !lanesDirty. Interleaving the lanes lets the kernel load each cluster
	// id once and read its eight processors from one cache line.
	procT        []int
	laneK, laneL [SwapLanes]int
	lanesDirty   bool
	endB         [][SwapLanes]int // lane-interleaved end times of the batch pass

	// The critical-chain certificate: onChain[c] reports that cluster c
	// owns a task on one traced critical chain of the incumbent, valid
	// while chainOK. scalarSwap reports that scratch holds the end times
	// of the incumbent with (lastK, lastL), the pair of the last TrySwap,
	// swapped; lanesSwap that endB holds those of every lane of the last
	// TrySwapBatch. Committing one of those swaps leaves the new
	// incumbent's end times in that buffer: adopt names it (adoptScratch,
	// a lane, or adoptNone) until the next pricing call.
	onChain               []bool
	chainOK               bool
	lastK, lastL          int
	scalarSwap, lanesSwap bool
	adopt                 int
}

// Sources of the incumbent's end times for the certificate rebuild, besides
// a batch lane index.
const (
	adoptNone    = -1
	adoptScratch = -2
)

// NewSwapSession evaluates a fully and returns a session committed to it.
// The assignment is copied; the caller's copy stays untouched. Construction
// is the only allocating step.
func (e *Evaluator) NewSwapSession(a *Assignment) *SwapSession {
	n := len(e.size)
	s := &SwapSession{
		e:          e,
		a:          a.Clone(),
		scratch:    make([]int, n),
		procT:      make([]int, a.K()*SwapLanes),
		lanesDirty: true,
		endB:       make([][SwapLanes]int, n),
		onChain:    make([]bool, a.K()),
		adopt:      adoptScratch, // filled just below
	}
	s.total = e.fillEnds(s.a.ProcOf, s.scratch)
	return s
}

// TotalTime returns the committed incumbent's total time.
func (s *SwapSession) TotalTime() int { return s.total }

// ProcOf exposes the committed incumbent's cluster→processor vector. It is
// a live read-only view: callers must copy it before the next commit if
// they need a snapshot, and must never mutate it.
func (s *SwapSession) ProcOf() []int { return s.a.ProcOf }

// K returns the number of clusters (== processors).
func (s *SwapSession) K() int { return s.a.K() }

// Evaluator returns the evaluation handle the session was built from.
// Refiners use it for whole-assignment pricing beyond the session's own
// methods; a session and its evaluator belong to the same goroutine.
func (s *SwapSession) Evaluator() *Evaluator { return s.e }

// TrySwap returns the exact total time of the incumbent with clusters k and
// l exchanged, without committing; CommitSwap with that total accepts the
// trial. TrySwap(k, k) prices the incumbent itself. Each call costs one full
// scalar evaluation of the swapped incumbent.
//
//mapcheck:noalloc
func (s *SwapSession) TrySwap(k, l int) int {
	s.a.Swap(k, l)
	total := s.e.fillEnds(s.a.ProcOf, s.scratch)
	s.a.Swap(k, l)
	s.lastK, s.lastL = k, l
	s.scalarSwap, s.adopt = true, adoptNone
	return total
}

// TryAssign returns the exact total time of an arbitrary candidate
// assignment, without committing or touching the incumbent. The procOf
// slice is the candidate's cluster→processor vector; it is read, never
// retained. Allocation-free, like TrySwap.
//
//mapcheck:noalloc
func (s *SwapSession) TryAssign(procOf []int) int {
	s.scalarSwap, s.adopt = false, adoptNone
	return s.e.fillEnds(procOf, s.scratch)
}

// CommitSwap accepts the swap of clusters k and l whose exact total time
// the caller already knows from a TrySwap or TrySwapBatch lane, in O(1): it
// applies the swap to the incumbent and, unless k == l, invalidates the
// certificate. When the most recent pricing call priced this swap, its end
// times become the new incumbent's, so the next Certified query rebuilds
// the certificate without an evaluation pass.
//
//mapcheck:noalloc
func (s *SwapSession) CommitSwap(k, l, total int) {
	s.a.Swap(k, l)
	s.lanesDirty = true
	s.total = total
	if k == l {
		return
	}
	s.chainOK, s.adopt = false, adoptNone
	if s.scalarSwap && samePair(s.lastK, s.lastL, k, l) {
		s.adopt = adoptScratch
	} else if s.lanesSwap {
		for lane := 0; lane < SwapLanes; lane++ {
			if samePair(s.laneK[lane], s.laneL[lane], k, l) {
				s.adopt = lane
				break
			}
		}
	}
	s.scalarSwap, s.lanesSwap = false, false
}

// samePair reports whether the unordered pairs {a, b} and {c, d} are equal.
func samePair(a, b, c, d int) bool {
	return (a == c && b == d) || (a == d && b == c)
}

// CommitAssign replaces the committed incumbent with procOf (copied), whose
// exact total time the caller already knows from TryAssign. No evaluation
// pass runs. Allocation-free.
//
//mapcheck:noalloc
func (s *SwapSession) CommitAssign(procOf []int, total int) {
	copy(s.a.ProcOf, procOf)
	s.lanesDirty = true
	s.total = total
	s.chainOK, s.adopt = false, adoptNone
	s.scalarSwap, s.lanesSwap = false, false
}

// syncLanes brings the lane views to "incumbent with swap (ks[l], ls[l])
// applied in lane l": a full refresh when the incumbent changed, otherwise
// undoing each lane's previous swap (a swap is its own inverse) and
// applying the new one.
//
//mapcheck:noalloc
func (s *SwapSession) syncLanes(ks, ls *[SwapLanes]int) {
	procT := s.procT
	if s.lanesDirty {
		for c, p := range s.a.ProcOf {
			row := procT[c*SwapLanes : c*SwapLanes+SwapLanes]
			for l := range row {
				row[l] = p
			}
		}
		s.lanesDirty = false
	} else {
		for lane := 0; lane < SwapLanes; lane++ {
			ki, li := s.laneK[lane]*SwapLanes+lane, s.laneL[lane]*SwapLanes+lane
			procT[ki], procT[li] = procT[li], procT[ki]
		}
	}
	for lane := 0; lane < SwapLanes; lane++ {
		ki, li := ks[lane]*SwapLanes+lane, ls[lane]*SwapLanes+lane
		procT[ki], procT[li] = procT[li], procT[ki]
		s.laneK[lane], s.laneL[lane] = ks[lane], ls[lane]
	}
}

// TrySwapBatch prices SwapLanes candidate swaps of the incumbent: lane i
// is the incumbent with clusters ks[i] and ls[i] exchanged, and totals[i]
// receives its exact total time. Lanes are independent — duplicates are
// fine, and ks[i] == ls[i] prices the unperturbed incumbent — and nothing
// is committed. One interleaved evaluation pass prices all lanes.
//
//mapcheck:noalloc
func (s *SwapSession) TrySwapBatch(ks, ls *[SwapLanes]int, totals *[SwapLanes]int) {
	s.syncLanes(ks, ls)
	s.fullSwapBatch(totals)
	s.lanesSwap, s.adopt = true, adoptNone
}

// fullSwapBatch is the batch kernel: one interleaved topological pass
// pricing all SwapLanes lanes, each edge record loaded once for all eight.
// The lane views must be synced first.
//
//mapcheck:noalloc
func (s *SwapSession) fullSwapBatch(totals *[SwapLanes]int) {
	e := s.e
	procT := s.procT
	endB := s.endB
	var totalB [SwapLanes]int
	commOff, commEdges := e.commOff, e.commEdges
	clusOf, size, distT, ns := e.clusOf, e.size, e.distT, e.ns
	for t := range endB {
		var start [SwapLanes]int
		if ces := commEdges[commOff[t]:commOff[t+1]]; len(ces) > 0 {
			c := int(clusOf[t]) * SwapLanes
			pc := procT[c : c+SwapLanes]
			b0, b1, b2, b3 := pc[0]*ns, pc[1]*ns, pc[2]*ns, pc[3]*ns
			b4, b5, b6, b7 := pc[4]*ns, pc[5]*ns, pc[6]*ns, pc[7]*ns
			for i := range ces {
				ce := &ces[i]
				pe := &endB[ce.pred]
				w := int(ce.w)
				cl := int(ce.clus) * SwapLanes
				pp := procT[cl : cl+SwapLanes]
				if v := pe[0] + w*int(distT[b0+pp[0]]); v > start[0] {
					start[0] = v
				}
				if v := pe[1] + w*int(distT[b1+pp[1]]); v > start[1] {
					start[1] = v
				}
				if v := pe[2] + w*int(distT[b2+pp[2]]); v > start[2] {
					start[2] = v
				}
				if v := pe[3] + w*int(distT[b3+pp[3]]); v > start[3] {
					start[3] = v
				}
				if v := pe[4] + w*int(distT[b4+pp[4]]); v > start[4] {
					start[4] = v
				}
				if v := pe[5] + w*int(distT[b5+pp[5]]); v > start[5] {
					start[5] = v
				}
				if v := pe[6] + w*int(distT[b6+pp[6]]); v > start[6] {
					start[6] = v
				}
				if v := pe[7] + w*int(distT[b7+pp[7]]); v > start[7] {
					start[7] = v
				}
			}
		}
		sz := int(size[t])
		eb := &endB[t]
		for l := 0; l < SwapLanes; l++ {
			v := start[l] + sz
			eb[l] = v
			if v > totalB[l] {
				totalB[l] = v
			}
		}
	}
	*totals = totalB
}

// Certified reports that swapping clusters k and l provably cannot lower
// the committed total: neither cluster owns a task on a traced critical
// chain of the incumbent. The chain is a path of tight predecessor steps
// t0 → t1 → … → tm, where t0 starts at time 0, each t(i+1) starts exactly
// when t(i)'s message arrives (end[t(i)] + w·dist), and tm ends at the
// total. A swap of k and l moves only the tasks of clusters k and l, so
// every size, weight and distance along the chain is unchanged; by
// induction each chain task of the swapped assignment ends no earlier than
// before, and the swapped total is at least end[tm], the incumbent total.
//
// A certified trial therefore has no exact total, only the bound "not
// below the incumbent". A refiner may resolve it without pricing only when
// its acceptance test is strict improvement and an equal total would not
// end the run (the total is above its lower bound, or termination is off);
// trials whose totals are recorded, or weighed like annealing's, must be
// priced. The certificate holds for this evaluator's dataflow model only.
//
// The first query after a commit traces the chain: from the end times the
// accepted trial's own pricing left behind when no pricing call has run
// since, else from one scalar evaluation pass. Allocation-free.
//
//mapcheck:noalloc
func (s *SwapSession) Certified(k, l int) bool {
	if !s.chainOK {
		s.traceChain()
	}
	return !s.onChain[k] && !s.onChain[l]
}

// traceChain rebuilds onChain from the incumbent's end times: it marks the
// cluster of a task ending at the total, then steps back through tight
// predecessors until it reaches a task that starts at time 0. End times
// that do not explain the committed total (a CommitSwap with an inexact
// total) mark every cluster, so nothing is certified.
//
//mapcheck:noalloc
func (s *SwapSession) traceChain() {
	e, end, onChain := s.e, s.scratch, s.onChain
	switch {
	case s.adopt >= 0:
		for t := range end {
			end[t] = s.endB[t][s.adopt]
		}
	case s.adopt == adoptNone:
		e.fillEnds(s.a.ProcOf, end)
	}
	s.scalarSwap, s.adopt, s.chainOK = false, adoptScratch, true
	for c := range onChain {
		onChain[c] = false
	}
	t := len(end) - 1
	for t >= 0 && end[t] != s.total {
		t--
	}
	procOf, distT, ns := s.a.ProcOf, e.distT, e.ns
	for t >= 0 {
		onChain[e.clusOf[t]] = true
		start := end[t] - int(e.size[t])
		if start == 0 {
			return
		}
		base, next := procOf[e.clusOf[t]]*ns, -1
		for _, ce := range e.commEdges[e.commOff[t]:e.commOff[t+1]] {
			if end[ce.pred]+int(ce.w)*int(distT[base+procOf[ce.clus]]) == start {
				next = int(ce.pred)
				break
			}
		}
		t = next
	}
	for c := range onChain {
		onChain[c] = true
	}
}
