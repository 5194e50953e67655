package schedule

import "math/bits"

// Incremental "cone" evaluation of candidate swaps.
//
// TrySwapBatch's full kernel re-prices the whole schedule per batch even
// though a swap of clusters (k, l) only perturbs the tasks downstream of
// the two touched processors: an edge's cost w × dist(proc(j), proc(i))
// changes only when one endpoint cluster is k or l, and a task's start
// time changes only when such an edge touches it or a predecessor's end
// time moved. The delta kernel therefore re-prices only that cone,
// seeded from the per-cluster affected lists precomputed by the
// evaluator and propagated through the successor CSR, reusing the
// committed incumbent's cached end times for everything outside it.
//
// The pass is one ascending scan over topological positions from the
// first seed t0: untouched positions cost a byte load, touched positions
// recompute their start for exactly the lanes whose cone reached them
// (the per-position lane bitmask), and a changed end time marks the
// task's successors. Because the scan is ascending, a touched
// predecessor has always been recomputed before its consumers read it.
// The exact new makespan of each lane combines three maxima: the prefix
// maximum of committed end times before t0 (maintained across commits),
// the committed ends of untouched positions at or after t0 (folded in
// during the same scan), and the lane's recomputed cone ends. Totals are
// therefore exact — bit-identical to the full kernel — so accept/reject
// decisions and every downstream byte of output are unchanged.
//
// Fallback rule: the cone of a swap that touches early, well-connected
// clusters can approach the whole schedule, at which point the scalar
// per-lane recomputation loses to the full kernel's 8-lane interleaved
// pass. The session bails out once the cone's edge visits exceed
// coneBudget (half of all predecessor edge records by default) and
// re-prices the batch with the full kernel instead; the partially
// marked positions are cheaply unmarked first. Commits that apply a
// swap update the cached end times through the same cone walk, unless a
// full pass priced that swap last and its ends can be adopted verbatim.
//
// A bail is not free: by the time the budget runs out the scan has
// usually crossed most of the schedule, so a bailed batch costs about
// two full passes. How often walks bail depends on the instance and on
// how many lanes a call perturbs. On wide-cone instances (random DAGs
// under random clustering, where every cluster has tasks near the top of
// the topological order) the union of eight lane cones almost always
// outgrows the budget while a single swap's cone — a scalar TrySwap —
// almost never does. The session therefore keeps one exponential
// back-off per perturbed-lane count: after a bail, the next 1, then 3,
// 7, 15, … calls of that width that would have walked go to the full
// kernel directly, and a walk that completes resets the back-off. On a
// wide-cone instance the bails over N calls grow as log2 N; on a
// narrow-cone instance walks keep completing and the back-off stays at
// zero. If cones narrow after a long wide phase, the next probe comes
// within as many calls as the phase lasted, so at most half of the delta
// path's benefit is lost — the usual doubling argument. The rule lives
// in tryDeltaBatch, so batch and scalar trials share it.

// defaultConeBudget bounds the predecessor-edge records one delta batch
// may visit before falling back to the full interleaved kernel: half of
// the edge stream. Past that point the union of the eight lane cones
// covers so much of the schedule that the full pass — which touches every
// edge record exactly once for all eight lanes — is the cheaper evaluator.
func defaultConeBudget(edges int) int { return edges / 2 }

// backoff is the cone-walk back-off of one call width: skip is how many
// more would-be walks go straight to the full kernel, length the skip the
// last bail granted (0, 1, 3, 7, …).
type backoff struct{ skip, length int }

// bail records a walk that outgrew the budget: double the back-off. The
// length stops growing at 2^30 only so that it cannot overflow.
func (b *backoff) bail() {
	if b.length < 1<<30 {
		b.length = 2*b.length + 1
	}
	b.skip = b.length
}

// kernelStats counts how a session's kernel calls were priced — cone walks
// started, walks that bailed out to the full kernel, and calls the full
// kernel priced (bails, back-off skips and pre-estimate rejections) — and
// how its swap commits updated the cached end times: by a cone walk, or by
// adopting the ends of a scalar or a batch pricing pass.
type kernelStats struct {
	deltaWalks, deltaBails, fullPasses int

	coneCommits, scalarAdoptions, batchAdoptions int
}

// seedCone marks, in s.mask, every topological position directly affected
// by the candidate swaps (bit i set for lane i), and returns the smallest
// marked position (len(endC) when no lane perturbs anything) together with
// the number of distinct marked positions — the scan's pending-mark count,
// which lets it stop at the last mark instead of walking to the end.
// Identity lanes (ks == ls) seed nothing: they price the incumbent itself.
//
//mapcheck:noalloc
func (s *SwapSession) seedCone(ks, ls *[SwapLanes]int) (int, int) {
	e := s.e
	mask := s.mask
	t0 := len(s.endC)
	pending := 0
	for lane := 0; lane < SwapLanes; lane++ {
		if ks[lane] == ls[lane] {
			continue
		}
		bit := uint8(1) << lane
		for _, c := range [2]int{ks[lane], ls[lane]} {
			aff := e.affTasks[e.affOff[c]:e.affOff[c+1]]
			if len(aff) == 0 {
				continue
			}
			if int(aff[0]) < t0 {
				t0 = int(aff[0])
			}
			for _, t := range aff {
				if mask[t] == 0 {
					pending++
				}
				mask[t] |= bit
			}
		}
	}
	return t0, pending
}

// tryDeltaBatch prices the batch by cone re-evaluation, writing the exact
// totals and reporting true, or reports false — with every mark cleared —
// when the cone outgrows the budget, or the back-off for this many
// perturbed lanes says to skip the walk, and the full kernel should price
// the batch instead. The lane views must be synced to (ks, ls) first; the
// committed end-time cache endC and its prefix and suffix maxima must
// mirror the incumbent.
//
//mapcheck:noalloc
func (s *SwapSession) tryDeltaBatch(ks, ls *[SwapLanes]int, totals *[SwapLanes]int) bool {
	e := s.e
	// Pre-estimate before marking anything: the summed direct (seed-level)
	// edge records of every lane's cone, from the per-cluster affCost
	// table. When even this floor — no propagation counted — exceeds the
	// budget, the batch goes straight to the full kernel with zero delta
	// overhead instead of seeding, scanning and unwinding first. Batches
	// of independent random pairs on well-connected instances land here;
	// localized swaps on sparse communication structures proceed.
	est, width := 0, 0
	for lane := 0; lane < SwapLanes; lane++ {
		if ks[lane] != ls[lane] {
			est += int(e.affCost[ks[lane]] + e.affCost[ls[lane]])
			width++
		}
	}
	if est > s.coneBudget {
		s.fullPasses++
		return false
	}
	bo := &s.backoff[width]
	if bo.skip > 0 {
		bo.skip--
		s.fullPasses++
		return false
	}
	n := len(s.endC)
	mask := s.mask
	t0, pending := s.seedCone(ks, ls)
	if t0 == n {
		// No communicating edge touches the swapped clusters in any lane:
		// every lane's schedule is the incumbent's.
		for lane := range totals {
			totals[lane] = s.total
		}
		return true
	}
	base := 0
	if t0 > 0 {
		base = s.prefMax[t0-1]
	}
	var totalB [SwapLanes]int
	for lane := range totalB {
		totalB[lane] = base
	}
	unmarked := 0 // max committed end over unmarked positions ≥ t0
	procT := s.lanes.procT
	endB, endC := s.endB, s.endC
	commOff, commEdges := e.commOff, e.commEdges
	clusOf, size, distT, ns := e.clusOf, e.size, e.distT, e.ns
	succOff, succs := e.succOff, e.succs
	visited := s.visited[:0]
	budget := s.coneBudget
	s.deltaWalks++
	for t := t0; t < n; t++ {
		m := mask[t]
		if m == 0 {
			if endC[t] > unmarked {
				unmarked = endC[t]
			}
			continue
		}
		ces := commEdges[commOff[t]:commOff[t+1]]
		budget -= len(ces)
		if budget < 0 {
			// Cone too large: unmark everything and let the full kernel
			// price the batch. Marks live only in [t0, n).
			for _, vt := range visited {
				mask[vt] = 0
			}
			for u := t; u < n; u++ {
				mask[u] = 0
			}
			s.visited = visited[:0]
			s.deltaBails++
			s.fullPasses++
			bo.bail()
			return false
		}
		visited = append(visited, int32(t))
		pending--
		oldEnd := endC[t]
		changed := uint8(0)
		cRow := int(clusOf[t]) * SwapLanes
		for rem := m; rem != 0; rem &= rem - 1 {
			lane := bits.TrailingZeros8(rem)
			b := procT[cRow+lane] * ns
			start := 0
			for i := range ces {
				ce := &ces[i]
				pe := endC[ce.pred]
				if mask[ce.pred]&(1<<lane) != 0 {
					pe = endB[ce.pred][lane]
				}
				if v := pe + int(ce.w)*distT[b+procT[int(ce.clus)*SwapLanes+lane]]; v > start {
					start = v
				}
			}
			v := start + int(size[t])
			endB[t][lane] = v
			if v != oldEnd {
				changed |= 1 << lane
			}
		}
		eb := &endB[t]
		for lane := 0; lane < SwapLanes; lane++ {
			v := oldEnd
			if m&(1<<lane) != 0 {
				v = eb[lane]
			}
			if v > totalB[lane] {
				totalB[lane] = v
			}
		}
		if changed != 0 {
			for _, sc := range succs[succOff[t]:succOff[t+1]] {
				if mask[sc] == 0 {
					pending++
				}
				mask[sc] |= changed
			}
		}
		if pending == 0 {
			// The cone is fully consumed: every position past t is
			// untouched, and the suffix-max cache holds their committed
			// maximum, so the scan stops here instead of folding them in
			// one by one to the end of the schedule.
			if t+1 < n && s.suffMax[t+1] > unmarked {
				unmarked = s.suffMax[t+1]
			}
			break
		}
	}
	for _, vt := range visited {
		mask[vt] = 0
	}
	s.visited = visited[:0]
	bo.length = 0
	for lane := 0; lane < SwapLanes; lane++ {
		v := totalB[lane]
		if unmarked > v {
			v = unmarked
		}
		totals[lane] = v
	}
	return true
}

// applyConeToCommitted re-evaluates, in place, the cone of the just-
// committed swap (k, l) in the committed end-time cache and refreshes the
// prefix and suffix maxima over the affected span. The incumbent
// (s.lanes.a) already carries the swap. In-place recomputation is sound
// because the scan is ascending: a predecessor's cached end is either
// already its new value (recomputed earlier in this walk) or unchanged.
// Unlike the trial pass this never bails out — the cache must end up
// mirroring the incumbent — but a cone is walked only once per accepted
// swap, and acceptances are a small fraction of trials. The walk stops at
// the last cascaded position: once no marks remain pending and the prefix
// maximum has stabilised, every later position's cached end and prefix
// maximum are provably unchanged, and the descending suffix-max refresh
// below similarly stops once it stabilises before the first seed.
//
//mapcheck:noalloc
func (s *SwapSession) applyConeToCommitted(k, l int) {
	e := s.e
	n := len(s.endC)
	mask := s.mask
	t0 := n
	pending := 0
	for _, c := range [2]int{k, l} {
		aff := e.affTasks[e.affOff[c]:e.affOff[c+1]]
		if len(aff) == 0 {
			continue
		}
		if int(aff[0]) < t0 {
			t0 = int(aff[0])
		}
		for _, t := range aff {
			if mask[t] == 0 {
				pending++
			}
			mask[t] = 1
		}
	}
	if t0 == n {
		return // nothing communicates with k or l; ends are unchanged
	}
	procOf := s.lanes.a.ProcOf
	endC, prefMax := s.endC, s.prefMax
	commOff, commEdges := e.commOff, e.commEdges
	clusOf, size, distT, ns := e.clusOf, e.size, e.distT, e.ns
	succOff, succs := e.succOff, e.succs
	lastChanged := -1
	for t := t0; t < n; t++ {
		if mask[t] != 0 {
			mask[t] = 0
			pending--
			ces := commEdges[commOff[t]:commOff[t+1]]
			b := procOf[clusOf[t]] * ns
			start := 0
			for i := range ces {
				ce := &ces[i]
				if v := endC[ce.pred] + int(ce.w)*distT[b+procOf[ce.clus]]; v > start {
					start = v
				}
			}
			if v := start + int(size[t]); v != endC[t] {
				endC[t] = v
				lastChanged = t
				for _, sc := range succs[succOff[t]:succOff[t+1]] {
					if mask[sc] == 0 {
						pending++
					}
					mask[sc] = 1
				}
			}
		}
		old := prefMax[t]
		m := endC[t]
		if t > 0 && prefMax[t-1] > m {
			m = prefMax[t-1]
		}
		prefMax[t] = m
		if pending == 0 && m == old {
			// No mark lies past t and prefMax[t] kept its value, so every
			// later cached end and prefix maximum is already correct.
			break
		}
	}
	// Refresh the suffix maxima over the changed span, descending from the
	// last position whose cached end moved. Below the first seed no end
	// changed, so the pass stops as soon as a suffix maximum keeps its
	// value there — everything earlier depends only on unchanged inputs.
	suffMax := s.suffMax
	for t := lastChanged; t >= 0; t-- {
		m := endC[t]
		if t+1 < n && suffMax[t+1] > m {
			m = suffMax[t+1]
		}
		if t < t0 && m == suffMax[t] {
			break
		}
		suffMax[t] = m
	}
}

// rebuildPrefMax recomputes the committed prefix maxima from position
// `from` on: prefMax[t] = max(endC[0..t]).
//
//mapcheck:noalloc
func (s *SwapSession) rebuildPrefMax(from int) {
	endC, prefMax := s.endC, s.prefMax
	for t := from; t < len(endC); t++ {
		m := endC[t]
		if t > 0 && prefMax[t-1] > m {
			m = prefMax[t-1]
		}
		prefMax[t] = m
	}
}

// rebuildSuffMax recomputes the committed suffix maxima over the whole
// schedule: suffMax[t] = max(endC[t..n-1]). The cache lets the delta scan
// (and the commit walk) stop at the last pending mark — the maximum over
// every untouched position past the stop is one lookup instead of a walk
// to the end of the array.
//
//mapcheck:noalloc
func (s *SwapSession) rebuildSuffMax() {
	endC, suffMax := s.endC, s.suffMax
	for t := len(endC) - 1; t >= 0; t-- {
		m := endC[t]
		if t+1 < len(endC) && suffMax[t+1] > m {
			m = suffMax[t+1]
		}
		suffMax[t] = m
	}
}
