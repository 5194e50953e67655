package schedule

// SwapLanes is how many candidate swaps TrySwapBatch prices per call, and
// how many the refiners in internal/search draw ahead at once. The draw
// width is part of their pinned random streams.
const SwapLanes = 8

// SwapSession is the refinement loop's trial evaluator: it prices
// single-swap perturbations (TrySwap) and whole-assignment candidates
// (TryAssign) of a committed incumbent assignment. Totals are exact —
// identical to a full Evaluator.TotalTime of the candidate — and every
// priced trial costs one scalar evaluation pass.
//
// The §4.3.3 refinement evaluates a stream of candidates of which almost
// all are rejected, and most can be rejected without that pass. The session
// keeps one traced critical chain of the incumbent and re-prices only that
// chain under a candidate (Certified, CertifiedAssign, SwapBound): under
// the evaluator's dataflow model any path of the task DAG, priced under an
// assignment, is a lower bound on that assignment's total (the argument of
// the §4.1 bound). A refiner resolves a trial whose bound reaches the
// incumbent total without pricing it, when its acceptance test allows.
//
// Protocol: TrySwap/TrySwapBatch/TryAssign never change the committed
// state; CommitSwap accepts a swap whose exact total the caller already
// knows from TrySwap, and CommitAssign replaces the incumbent wholesale
// (full-reshuffle moves, annealing restarts, Bokhari jumps). Every commit
// is O(1) apart from CommitAssign's copy of the assignment; the chain is
// traced again lazily, at the first bound query after a commit. A session
// allocates only at construction; every Try, Commit and bound method is
// allocation-free. Sessions share the Evaluator's read-only
// precomputation, so concurrent refinement chains may each run their own
// session against one Evaluator without locks.
type SwapSession struct {
	e *Evaluator

	a       *Assignment // committed incumbent (private copy)
	total   int         // committed total time
	scratch []int       // end times of the scalar evaluation passes
	priced  int         // TrySwap and TryAssign calls so far

	// The critical chain, valid while chainOK: onChain[c] reports that
	// cluster c owns a task on the chain, steps[:nSteps] are its
	// inter-cluster predecessor steps and chainSize the sum of its task
	// sizes. scalarSwap reports that scratch holds the end times of the
	// incumbent with (lastK, lastL), the pair of the last TrySwap, swapped;
	// endsOK that scratch holds the committed incumbent's own end times,
	// which a commit of that very swap makes true.
	onChain            []bool
	steps              []chainStep
	nSteps, chainSize  int
	chainOK            bool
	lastK, lastL       int
	scalarSwap, endsOK bool
}

// chainStep is one inter-cluster step of the critical chain: a task of
// cluster clus starts when the message of weight w from its predecessor in
// cluster pred arrives.
type chainStep struct {
	clus, pred, w int32
}

// NewSwapSession evaluates a fully and returns a session committed to it.
// The assignment is copied; the caller's copy stays untouched. Construction
// is the only allocating step.
func (e *Evaluator) NewSwapSession(a *Assignment) *SwapSession {
	s := &SwapSession{
		e:       e,
		a:       a.Clone(),
		scratch: make([]int, len(e.size)),
		onChain: make([]bool, a.K()),
		steps:   make([]chainStep, a.K()),
		endsOK:  true, // filled just below
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

// Priced returns how many candidates the session has priced: one per
// TrySwap (TrySwapBatch lane) and TryAssign call. A trial resolved by a
// bound query is not counted.
func (s *SwapSession) Priced() int { return s.priced }

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
	s.scalarSwap, s.endsOK = true, false
	s.priced++
	return total
}

// TrySwapBatch prices SwapLanes candidate swaps of the incumbent, one
// TrySwap each: lane i is the incumbent with clusters ks[i] and ls[i]
// exchanged, and totals[i] receives its exact total time.
//
//mapcheck:noalloc
func (s *SwapSession) TrySwapBatch(ks, ls *[SwapLanes]int, totals *[SwapLanes]int) {
	for i := range totals {
		totals[i] = s.TrySwap(ks[i], ls[i])
	}
}

// TryAssign returns the exact total time of an arbitrary candidate
// assignment, without committing or touching the incumbent. The procOf
// slice is the candidate's cluster→processor vector; it is read, never
// retained. Allocation-free, like TrySwap.
//
//mapcheck:noalloc
func (s *SwapSession) TryAssign(procOf []int) int {
	s.scalarSwap, s.endsOK = false, false
	s.priced++
	return s.e.fillEnds(procOf, s.scratch)
}

// CommitSwap accepts the swap of clusters k and l whose exact total time
// the caller already knows from TrySwap, in O(1): it applies the swap to
// the incumbent and, unless k == l, invalidates the chain. When the most
// recent pricing call priced this swap, its end times become the new
// incumbent's, so the next bound query traces the chain without an
// evaluation pass.
//
//mapcheck:noalloc
func (s *SwapSession) CommitSwap(k, l, total int) {
	s.a.Swap(k, l)
	s.total = total
	if k == l {
		return
	}
	s.chainOK = false
	s.endsOK = s.scalarSwap && samePair(s.lastK, s.lastL, k, l)
	s.scalarSwap = false
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
	s.total = total
	s.chainOK, s.scalarSwap, s.endsOK = false, false, false
}

// SwapBound returns a lower bound on TrySwap(k, l): the incumbent's traced
// critical chain re-priced with clusters k and l exchanged. The chain is a
// path of tight predecessor steps t0 → t1 → … → tm, where t0 starts at
// time 0, each t(i+1) starts exactly when t(i)'s message arrives
// (end[t(i)] + w·dist), and tm ends at the total. Under any assignment,
// each task of a path ends no earlier than its predecessor's end plus the
// message time plus its own size, so the sum of the chain's task sizes and
// w·dist terms under the swapped processors bounds the swapped total from
// below. When neither cluster owns a chain task, that sum is the incumbent
// total itself, read from two mask loads.
//
// The bound holds for this evaluator's dataflow model only. The first
// query after a commit traces the chain: from the end times the accepted
// trial's own pricing left behind when no pricing call has run since, else
// from one scalar evaluation pass. Allocation-free.
//
//mapcheck:noalloc
func (s *SwapSession) SwapBound(k, l int) int {
	if !s.chainOK {
		s.traceChain()
	}
	if !s.onChain[k] && !s.onChain[l] {
		return s.total
	}
	s.a.Swap(k, l)
	bound := s.chainBound(s.a.ProcOf)
	s.a.Swap(k, l)
	return bound
}

// Certified reports that swapping clusters k and l provably cannot lower
// the committed total: SwapBound(k, l) reaches it. A certified trial has no
// exact total, only the bound "not below the incumbent". A refiner may
// resolve it without pricing only when its acceptance test is strict
// improvement and an equal total would not end the run (the total is above
// its lower bound, or termination is off); trials whose totals are
// recorded must be priced. Allocation-free.
//
//mapcheck:noalloc
func (s *SwapSession) Certified(k, l int) bool {
	return s.SwapBound(k, l) >= s.total
}

// CertifiedAssign is Certified for a whole candidate assignment: the
// traced chain re-priced under procOf reaches the committed total, so
// TryAssign(procOf) cannot lower it. Allocation-free.
//
//mapcheck:noalloc
func (s *SwapSession) CertifiedAssign(procOf []int) bool {
	if !s.chainOK {
		s.traceChain()
	}
	return s.chainBound(procOf) >= s.total
}

// chainBound prices the traced chain under procOf. A step dropped from
// steps only lowers the sum, since every w·dist term is non-negative.
//
//mapcheck:noalloc
func (s *SwapSession) chainBound(procOf []int) int {
	distT, ns := s.e.distT, s.e.ns
	bound := s.chainSize
	for _, st := range s.steps[:s.nSteps] {
		bound += int(st.w) * int(distT[procOf[st.clus]*ns+procOf[st.pred]])
	}
	return bound
}

// traceChain rebuilds the chain from the incumbent's end times: it starts
// at a task ending at the total, then steps back through tight
// predecessors until it reaches a task that starts at time 0, keeping at
// most K inter-cluster steps. End times that do not explain the committed
// total (a CommitSwap with an inexact total) mark every cluster and leave
// a bound of -1, so nothing is certified.
//
//mapcheck:noalloc
func (s *SwapSession) traceChain() {
	e, end, onChain := s.e, s.scratch, s.onChain
	if !s.endsOK {
		e.fillEnds(s.a.ProcOf, end)
	}
	s.scalarSwap, s.endsOK, s.chainOK = false, true, true
	clear(onChain)
	s.nSteps, s.chainSize = 0, 0
	t := len(end) - 1
	for t >= 0 && end[t] != s.total {
		t--
	}
	procOf, distT, ns := s.a.ProcOf, e.distT, e.ns
	for t >= 0 {
		c := e.clusOf[t]
		onChain[c] = true
		s.chainSize += int(e.size[t])
		start := end[t] - int(e.size[t])
		if start == 0 {
			return
		}
		base, next := procOf[c]*ns, -1
		for _, ce := range e.commEdges[e.commOff[t]:e.commOff[t+1]] {
			if end[ce.pred]+int(ce.w)*int(distT[base+procOf[ce.clus]]) == start {
				next = int(ce.pred)
				if ce.w > 0 && s.nSteps < len(s.steps) {
					s.steps[s.nSteps] = chainStep{clus: c, pred: ce.clus, w: ce.w}
					s.nSteps++
				}
				break
			}
		}
		t = next
	}
	for c := range onChain {
		onChain[c] = true
	}
	s.nSteps, s.chainSize = 0, -1
}
