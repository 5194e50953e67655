package schedule

// SwapLanes is the width of the batched trial kernels (SwapSession.
// TrySwapBatch, CardSession.TryCardBatch): how many candidate swaps one
// interleaved evaluation pass prices at once.
const SwapLanes = 8

// laneViews maintains the lane-major processor views shared by the batch
// kernels: procT[c*SwapLanes+l] is the processor of cluster c in lane l,
// where lane l is the committed incumbent with one candidate swap applied.
// Keeping all SwapLanes views interleaved means a kernel loads each cluster
// id once and reads the eight processors from one cache line.
type laneViews struct {
	a     *Assignment // committed incumbent (private copy)
	procT []int       // lane-major processor views: procT[c*SwapLanes+l]
	laneK [SwapLanes]int
	laneL [SwapLanes]int
	dirty bool // lane views no longer mirror the incumbent
}

func newLaneViews(a *Assignment) laneViews {
	return laneViews{
		a:     a.Clone(),
		procT: make([]int, a.K()*SwapLanes),
		dirty: true,
	}
}

// sync brings the lane views to "incumbent with swap (ks[l], ls[l]) applied
// in lane l": a full refresh when the incumbent changed, otherwise undoing
// each lane's previous swap (a swap is its own inverse) and applying the
// new one.
func (v *laneViews) sync(ks, ls *[SwapLanes]int) {
	procT := v.procT
	if v.dirty {
		for c, p := range v.a.ProcOf {
			row := procT[c*SwapLanes : c*SwapLanes+SwapLanes]
			for l := range row {
				row[l] = p
			}
		}
		v.dirty = false
	} else {
		for lane := 0; lane < SwapLanes; lane++ {
			ki, li := v.laneK[lane]*SwapLanes+lane, v.laneL[lane]*SwapLanes+lane
			procT[ki], procT[li] = procT[li], procT[ki]
		}
	}
	for lane := 0; lane < SwapLanes; lane++ {
		ki, li := ks[lane]*SwapLanes+lane, ls[lane]*SwapLanes+lane
		procT[ki], procT[li] = procT[li], procT[ki]
		v.laneK[lane], v.laneL[lane] = ks[lane], ls[lane]
	}
}

// commitSwap applies the swap of clusters k and l to the incumbent.
func (v *laneViews) commitSwap(k, l int) {
	v.a.Swap(k, l)
	v.dirty = true
}

// commitAssign replaces the incumbent with procOf (copied).
func (v *laneViews) commitAssign(procOf []int) {
	copy(v.a.ProcOf, procOf)
	v.dirty = true
}

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
// Both TrySwap and TrySwapBatch first consult the session's priced-pair
// table: a swap's exact total depends only on the pair and the committed
// incumbent, so totals priced since the last commit replay for free. A
// miss costs one full pass — scalar for TrySwap, the interleaved kernel
// for TrySwapBatch.
//
// Protocol: TrySwap/TrySwapBatch/TryAssign never change the committed
// state; Commit promotes the most recent TrySwap, CommitSwap accepts a swap
// whose exact total the caller already knows (e.g. a TrySwapBatch lane),
// and CommitAssign replaces the incumbent wholesale (full-reshuffle moves,
// annealing restarts, Bokhari jumps). The session caches no end times, so
// every commit is O(1) apart from CommitAssign's copy of the assignment. A
// session allocates only at construction; every Try/Commit method is
// allocation-free. Sessions share the Evaluator's read-only precomputation,
// so concurrent refinement chains may each run their own session against
// one Evaluator without locks.
type SwapSession struct {
	e *Evaluator

	total   int   // committed total time
	scratch []int // end times of the scalar full-evaluation passes

	lanes laneViews        // lane-major views of the batch kernel
	endB  [][SwapLanes]int // lane-interleaved end times of the batch pass

	// Priced-pair table, the KL-gain-table analogue for this metric: a
	// swap's exact total depends only on the pair (k, l) and the committed
	// incumbent, so totals priced since the last commit are reusable
	// verbatim. Sweep-style refiners re-price the same pairs many times
	// between rare accepts; those trials become one table load. memoStamp
	// entries equal to memoEpoch are valid; commits that change the
	// incumbent bump the epoch, invalidating the whole table in O(1).
	// nil (K past maxMemoPairs) disables memoisation.
	memoTotal []int
	memoStamp []uint32
	memoEpoch uint32

	lastK, lastL, lastTotal int
	pending                 bool
}

// maxMemoPairs bounds the priced-pair table: K² at most 2^16 pairs (K ≤
// 256, ~¾ MB per session). Larger instances skip the table rather than
// pay its memory; the paper-scale workloads sit far below the bound.
const maxMemoPairs = 1 << 16

// memoIdx maps the unordered pair (k, l) to its table slot.
func (s *SwapSession) memoIdx(k, l int) int {
	if k > l {
		k, l = l, k
	}
	return k*s.lanes.a.K() + l
}

// bumpEpoch invalidates every memoised pair total in O(1). The rare
// uint32 wraparound clears the stamps so ancient entries cannot alias.
func (s *SwapSession) bumpEpoch() {
	if s.memoTotal == nil {
		return
	}
	s.memoEpoch++
	if s.memoEpoch == 0 {
		for i := range s.memoStamp {
			s.memoStamp[i] = 0
		}
		s.memoEpoch = 1
	}
}

// NewSwapSession evaluates a fully and returns a session committed to it.
// The assignment is copied; the caller's copy stays untouched. Construction
// is the only allocating step.
func (e *Evaluator) NewSwapSession(a *Assignment) *SwapSession {
	n := len(e.size)
	s := &SwapSession{
		e:       e,
		scratch: make([]int, n),
		endB:    make([][SwapLanes]int, n),
		lanes:   newLaneViews(a),
	}
	if k := a.K(); k*k <= maxMemoPairs {
		s.memoTotal = make([]int, k*k)
		s.memoStamp = make([]uint32, k*k)
		s.memoEpoch = 1
	}
	s.total = e.fillEnds(s.lanes.a.ProcOf, s.scratch)
	return s
}

// TotalTime returns the committed incumbent's total time.
func (s *SwapSession) TotalTime() int { return s.total }

// ProcOf exposes the committed incumbent's cluster→processor vector. It is
// a live read-only view: callers must copy it before the next commit if
// they need a snapshot, and must never mutate it.
func (s *SwapSession) ProcOf() []int { return s.lanes.a.ProcOf }

// K returns the number of clusters (== processors).
func (s *SwapSession) K() int { return s.lanes.a.K() }

// Evaluator returns the evaluation handle the session was built from.
// Refiners use it for whole-assignment pricing beyond the session's own
// methods; a session and its evaluator belong to the same goroutine.
func (s *SwapSession) Evaluator() *Evaluator { return s.e }

// TrySwap returns the exact total time of the incumbent with clusters k and
// l exchanged, without committing. Call Commit to accept the trial.
// TrySwap(k, k) prices the incumbent itself. A pair not priced since the
// last commit costs one full scalar evaluation of the swapped incumbent.
//
//mapcheck:noalloc
func (s *SwapSession) TrySwap(k, l int) int {
	if s.memoTotal != nil {
		if i := s.memoIdx(k, l); s.memoStamp[i] == s.memoEpoch {
			total := s.memoTotal[i]
			s.lastK, s.lastL, s.lastTotal, s.pending = k, l, total, true
			return total
		}
	}
	a := s.lanes.a
	a.Swap(k, l)
	total := s.e.fillEnds(a.ProcOf, s.scratch)
	a.Swap(k, l)
	if s.memoTotal != nil {
		i := s.memoIdx(k, l)
		s.memoStamp[i] = s.memoEpoch
		s.memoTotal[i] = total
	}
	s.lastK, s.lastL, s.lastTotal, s.pending = k, l, total, true
	return total
}

// TryAssign returns the exact total time of an arbitrary candidate
// assignment, without committing or touching the incumbent. The procOf
// slice is the candidate's cluster→processor vector; it is read, never
// retained. Allocation-free, like TrySwap.
//
//mapcheck:noalloc
func (s *SwapSession) TryAssign(procOf []int) int {
	s.pending = false
	return s.e.fillEnds(procOf, s.scratch)
}

// Commit promotes the most recent TrySwap trial to committed state in
// O(1). It panics if no trial is pending. To accept a TrySwapBatch lane,
// use CommitSwap with the lane's clusters and total.
//
//mapcheck:noalloc
func (s *SwapSession) Commit() {
	if !s.pending {
		//mapcheck:allow panic string on the misuse error path, never on a successful trial
		panic("schedule: SwapSession.Commit without a pending TrySwap")
	}
	s.CommitSwap(s.lastK, s.lastL, s.lastTotal)
}

// CommitSwap accepts the swap of clusters k and l whose exact total time
// the caller already knows from a TrySwap or TrySwapBatch lane, in O(1): it
// applies the swap to the incumbent and, unless k == l, invalidates the
// priced-pair table.
//
//mapcheck:noalloc
func (s *SwapSession) CommitSwap(k, l, total int) {
	s.lanes.commitSwap(k, l)
	if k != l {
		s.bumpEpoch()
	}
	s.total = total
	s.pending = false
}

// CommitAssign replaces the committed incumbent with procOf (copied), whose
// exact total time the caller already knows from TryAssign. No evaluation
// pass runs. Allocation-free.
//
//mapcheck:noalloc
func (s *SwapSession) CommitAssign(procOf []int, total int) {
	s.lanes.commitAssign(procOf)
	s.total = total
	s.pending = false
	s.bumpEpoch()
}

// TrySwapBatch prices SwapLanes candidate swaps of the incumbent: lane i
// is the incumbent with clusters ks[i] and ls[i] exchanged, and totals[i]
// receives its exact total time. Lanes are independent — duplicates are
// fine, and ks[i] == ls[i] prices the unperturbed incumbent — and nothing
// is committed. A batch whose every pair is already priced against the
// current incumbent replays from the priced-pair table; otherwise one
// interleaved evaluation pass prices all lanes.
//
//mapcheck:noalloc
func (s *SwapSession) TrySwapBatch(ks, ls *[SwapLanes]int, totals *[SwapLanes]int) {
	if s.memoTotal != nil {
		hit := true
		for lane := 0; lane < SwapLanes; lane++ {
			i := s.memoIdx(ks[lane], ls[lane])
			if s.memoStamp[i] != s.memoEpoch {
				hit = false
				break
			}
			totals[lane] = s.memoTotal[i]
		}
		if hit {
			return
		}
	}
	s.lanes.sync(ks, ls)
	s.fullSwapBatch(totals)
	if s.memoTotal != nil {
		for lane := 0; lane < SwapLanes; lane++ {
			i := s.memoIdx(ks[lane], ls[lane])
			s.memoStamp[i] = s.memoEpoch
			s.memoTotal[i] = totals[lane]
		}
	}
}

// fullSwapBatch is the batch kernel: one interleaved topological pass pricing all SwapLanes lanes, each edge record loaded
// once for all eight. The lane views must be synced first.
//
//mapcheck:noalloc
func (s *SwapSession) fullSwapBatch(totals *[SwapLanes]int) {
	e := s.e
	procT := s.lanes.procT
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
				if v := pe[0] + w*distT[b0+pp[0]]; v > start[0] {
					start[0] = v
				}
				if v := pe[1] + w*distT[b1+pp[1]]; v > start[1] {
					start[1] = v
				}
				if v := pe[2] + w*distT[b2+pp[2]]; v > start[2] {
					start[2] = v
				}
				if v := pe[3] + w*distT[b3+pp[3]]; v > start[3] {
					start[3] = v
				}
				if v := pe[4] + w*distT[b4+pp[4]]; v > start[4] {
					start[4] = v
				}
				if v := pe[5] + w*distT[b5+pp[5]]; v > start[5] {
					start[5] = v
				}
				if v := pe[6] + w*distT[b6+pp[6]]; v > start[6] {
					start[6] = v
				}
				if v := pe[7] + w*distT[b7+pp[7]]; v > start[7] {
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

// CardSession is the cardinality twin of SwapSession: it prices single-swap
// perturbations of a committed incumbent under Bokhari's cardinality
// measure (clustered problem edges landing on directly linked processors),
// SwapLanes at a time in one interleaved edge scan. The cardinality
// searchers — baseline.Bokhari's pairwise ascent, MaxCardinality — hammer
// exactly this evaluation, so they ride the same lane-major batch machinery
// as the refinement kernel instead of re-walking the edge CSR per scalar
// trial. Construction is the only allocating step.
type CardSession struct {
	e     *Evaluator
	lanes laneViews
}

// NewCardSession returns a cardinality session committed to a. The
// assignment is copied; the caller's copy stays untouched.
func (e *Evaluator) NewCardSession(a *Assignment) *CardSession {
	return &CardSession{e: e, lanes: newLaneViews(a)}
}

// Cardinality returns the committed incumbent's cardinality.
func (s *CardSession) Cardinality() int { return s.e.Cardinality(s.lanes.a) }

// ProcOf exposes the committed incumbent's cluster→processor vector — a
// live read-only view, exactly like SwapSession.ProcOf.
func (s *CardSession) ProcOf() []int { return s.lanes.a.ProcOf }

// CommitSwap applies the swap of clusters k and l to the incumbent.
// Cardinality commits carry no cached metric, so any swap — priced or not —
// may be committed; Bokhari's probabilistic jumps commit blind swaps.
//
//mapcheck:noalloc
func (s *CardSession) CommitSwap(k, l int) { s.lanes.commitSwap(k, l) }

// CommitAssign replaces the committed incumbent with procOf (copied).
//
//mapcheck:noalloc
func (s *CardSession) CommitAssign(procOf []int) { s.lanes.commitAssign(procOf) }

// TryCardBatch prices SwapLanes candidate swaps of the incumbent in one
// interleaved edge scan: lane i is the incumbent with clusters ks[i] and
// ls[i] exchanged, and cards[i] receives its exact cardinality. Lanes are
// independent — duplicates are fine, and ks[i] == ls[i] prices the
// unperturbed incumbent — and nothing is committed.
//
//mapcheck:noalloc
func (s *CardSession) TryCardBatch(ks, ls *[SwapLanes]int, cards *[SwapLanes]int) {
	e := s.e
	s.lanes.sync(ks, ls)
	procT := s.lanes.procT
	var cardB [SwapLanes]int
	commOff, commEdges := e.commOff, e.commEdges
	clusOf, distT, ns := e.clusOf, e.distT, e.ns
	n := len(e.size)
	for t := 0; t < n; t++ {
		ces := commEdges[commOff[t]:commOff[t+1]]
		if len(ces) == 0 {
			continue
		}
		c := int(clusOf[t]) * SwapLanes
		pc := procT[c : c+SwapLanes]
		b0, b1, b2, b3 := pc[0]*ns, pc[1]*ns, pc[2]*ns, pc[3]*ns
		b4, b5, b6, b7 := pc[4]*ns, pc[5]*ns, pc[6]*ns, pc[7]*ns
		for i := range ces {
			ce := &ces[i]
			if ce.w == 0 {
				continue // intra-cluster precedence, not a clustered edge
			}
			cl := int(ce.clus) * SwapLanes
			pp := procT[cl : cl+SwapLanes]
			if distT[b0+pp[0]] == 1 {
				cardB[0]++
			}
			if distT[b1+pp[1]] == 1 {
				cardB[1]++
			}
			if distT[b2+pp[2]] == 1 {
				cardB[2]++
			}
			if distT[b3+pp[3]] == 1 {
				cardB[3]++
			}
			if distT[b4+pp[4]] == 1 {
				cardB[4]++
			}
			if distT[b5+pp[5]] == 1 {
				cardB[5]++
			}
			if distT[b6+pp[6]] == 1 {
				cardB[6]++
			}
			if distT[b7+pp[7]] == 1 {
				cardB[7]++
			}
		}
	}
	*cards = cardB
}
