package schedule

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mimdmap/internal/graph"
	"mimdmap/internal/paths"
	"mimdmap/internal/topology"
)

// referenceSchedule is Algorithms II–III of §4.3.4 read literally, as an
// independent oracle for the evaluator: it keeps a mark per task and
// repeatedly scans the problem's edges, marking every unmarked task whose
// predecessors are all marked, until every task is marked. A task starts
// when its last message arrives:
//
//	start[i] = max over edges j→i of (end[j] + clus_edge × shortest[proc(j)][proc(i)])
//
// with clus_edge the edge weight between two clusters and 0 inside one. It
// reads only graph.Problem edges, Clustering.Of and paths.Table.At — none
// of the evaluator's packed structures or its topological renumbering.
func referenceSchedule(p *graph.Problem, c *graph.Clustering, d *paths.Table, procOf []int) *Result {
	n := p.NumTasks()
	edges := p.EdgeList()
	res := &Result{Start: make([]int, n), End: make([]int, n)}
	marked := make([]bool, n)
	blocked := make([]bool, n)
	ready := make([]int, n)
	for left := n; left > 0; {
		for i := range ready {
			ready[i], blocked[i] = 0, false
		}
		for _, ed := range edges {
			j, i, w := ed[0], ed[1], ed[2]
			if marked[i] {
				continue
			}
			if !marked[j] {
				blocked[i] = true
				continue
			}
			comm := 0
			if c.Of[j] != c.Of[i] {
				comm = w * d.At(procOf[c.Of[j]], procOf[c.Of[i]])
			}
			if v := res.End[j] + comm; v > ready[i] {
				ready[i] = v
			}
		}
		progress := false
		for i := 0; i < n; i++ {
			if marked[i] || blocked[i] {
				continue
			}
			res.Start[i], res.End[i] = ready[i], ready[i]+p.Size[i]
			marked[i], progress = true, true
			left--
		}
		if !progress {
			panic("referenceSchedule: cyclic problem")
		}
	}
	for i := 0; i < n; i++ {
		if res.End[i] > res.TotalTime {
			res.TotalTime = res.End[i]
		}
	}
	for i := 0; i < n; i++ {
		if res.End[i] == res.TotalTime {
			res.LatestTasks = append(res.LatestTasks, i)
		}
	}
	return res
}

// referenceTotal prices procOf with referenceSchedule.
func referenceTotal(e *Evaluator, procOf []int) int {
	return referenceSchedule(e.Prob, e.Clus, e.Dist, procOf).TotalTime
}

// certInstance builds a random DAG of np tasks on sys: sizes in [0,7] (so
// about one task in eight takes no time), about three out-edges per task
// with weights in [1,6], task IDs in random order so the evaluator's
// topological renumbering is not the identity, every task dealt to a random
// cluster, and a random incumbent.
func certInstance(tb testing.TB, sys *graph.System, np int, rng *rand.Rand) (*Evaluator, *Assignment) {
	tb.Helper()
	k := sys.NumNodes()
	p := graph.NewProblem(np)
	c := graph.NewClustering(np, k)
	id := rng.Perm(np)
	for i := 0; i < np; i++ {
		p.Size[i] = rng.Intn(8)
		c.Of[i] = rng.Intn(k)
		for j := i + 1; j < np; j++ {
			if rng.Intn(np) < 3 {
				p.SetEdge(id[i], id[j], 1+rng.Intn(6))
			}
		}
	}
	e, err := NewEvaluator(p, c, paths.New(sys))
	if err != nil {
		tb.Fatal(err)
	}
	return e, FromPerm(rng.Perm(k))
}

// byNameMachines are the machine specs topology's TestByName builds.
var byNameMachines = []string{"hypercube-3", "mesh-3x4", "torus-2x5", "ring-7", "chain-4",
	"star-9", "complete-5", "btree-6", "random-11"}

// TestReferenceMatchesEvaluator pins the evaluator to the paper-literal
// marking loop on random DAGs and on every named machine: start and end of
// every task, the total and the latest tasks agree, and the reference's
// schedule passes CheckResult.
func TestReferenceMatchesEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, spec := range byNameMachines {
		sys, err := topology.ByName(spec, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, np := range []int{1, 7, 40} {
			e, a := certInstance(t, sys, np, rng)
			for round := 0; round < 5; round++ {
				want := referenceSchedule(e.Prob, e.Clus, e.Dist, a.ProcOf)
				if err := e.CheckResult(a, want); err != nil {
					t.Fatalf("%s np=%d: reference schedule fails CheckResult: %v", spec, np, err)
				}
				var got Result
				e.EvaluateInto(a, &got)
				if !slices.Equal(got.Start, want.Start) || !slices.Equal(got.End, want.End) ||
					got.TotalTime != want.TotalTime || !slices.Equal(got.LatestTasks, want.LatestTasks) {
					t.Fatalf("%s np=%d: evaluator schedule (total %d) differs from the reference (total %d)",
						spec, np, got.TotalTime, want.TotalTime)
				}
				a = FromPerm(rng.Perm(a.K()))
			}
		}
	}
}

// certChecker checks a session's critical-chain bound. For every pair, the
// swap bound must not exceed the reference total of the swapped incumbent,
// and a certified pair must price, by the reference, at no less than the
// incumbent total; so must an anneal-style rejection, a bound above the
// incumbent total. The assignment form must hold the same on random
// candidates. Bounds must agree with those traced by a fresh session of
// the same incumbent, and a trace must work from the incumbent's true end
// times, whether it reused them or ran a pass.
type certChecker struct {
	certified, above, pairs int
	assigns, assignsCert    int
	sources                 map[string]int // traces by end-time source
	rng                     *rand.Rand     // draws the assignment-form candidates
}

func newCertChecker(seed int64) *certChecker {
	return &certChecker{sources: map[string]int{}, rng: rand.New(rand.NewSource(seed))}
}

func (c *certChecker) check(e *Evaluator, s *SwapSession) error {
	if !s.chainOK {
		source := "pass"
		if s.endsOK {
			source = "scratch"
		}
		c.sources[source]++
		s.Certified(0, 0)
		fresh := make([]int, len(s.scratch))
		e.fillEnds(s.ProcOf(), fresh)
		if !slices.Equal(s.scratch, fresh) {
			return fmt.Errorf("chain traced from %s end times that differ from a fresh pass", source)
		}
	}
	ref := e.NewSwapSession(FromPerm(s.ProcOf()))
	trial := slices.Clone(s.ProcOf())
	for k := 0; k < s.K(); k++ {
		for l := k; l < s.K(); l++ {
			bound := s.SwapBound(k, l)
			if want := ref.SwapBound(k, l); bound != want {
				return fmt.Errorf("SwapBound(%d,%d) = %d, a fresh session of the incumbent says %d", k, l, bound, want)
			}
			cert := s.Certified(k, l)
			if cert != (bound >= s.TotalTime()) {
				return fmt.Errorf("Certified(%d,%d) = %v with bound %d and total %d", k, l, cert, bound, s.TotalTime())
			}
			c.pairs++
			trial[k], trial[l] = trial[l], trial[k]
			total := referenceTotal(e, trial)
			trial[k], trial[l] = trial[l], trial[k]
			if bound > total {
				return fmt.Errorf("swap (%d,%d): re-priced chain %d exceeds the exact total %d", k, l, bound, total)
			}
			if cert {
				c.certified++
				if total < s.TotalTime() {
					return fmt.Errorf("certified swap (%d,%d) prices %d, below the incumbent total %d", k, l, total, s.TotalTime())
				}
			}
			if bound > s.TotalTime() {
				c.above++ // an anneal rejection candidate
			}
		}
	}
	for n := 0; n < 4; n++ {
		copy(trial, s.ProcOf())
		for m := c.rng.Intn(1 + s.K()); m > 0; m-- {
			i, j := c.rng.Intn(s.K()), c.rng.Intn(s.K())
			trial[i], trial[j] = trial[j], trial[i]
		}
		total := referenceTotal(e, trial)
		if bound := s.chainBound(trial); bound > total {
			return fmt.Errorf("assignment %v: re-priced chain %d exceeds the exact total %d", trial, bound, total)
		}
		cert := s.CertifiedAssign(trial)
		if cert != ref.CertifiedAssign(trial) {
			return fmt.Errorf("CertifiedAssign(%v) = %v, a fresh session of the incumbent disagrees", trial, cert)
		}
		c.assigns++
		if cert {
			c.assignsCert++
			if total < s.TotalTime() {
				return fmt.Errorf("certified assignment %v prices %d, below the incumbent total %d", trial, total, s.TotalTime())
			}
		}
	}
	return nil
}

// TestCertificateSound is the chain bound's oracle over random sequences
// of TrySwap, TrySwapBatch, TryAssign and every kind of commit, with
// bound queries between them, on instances with zero-size tasks. On
// half of the runs every third cluster is pinned, as critical abstract
// nodes are, so swaps draw from the movable rest.
func TestCertificateSound(t *testing.T) {
	c := newCertChecker(5)
	for si, sys := range sessionTestSystems(23) {
		for _, seed := range []int64{3, 1991} {
			rng := rand.New(rand.NewSource(seed + int64(si)))
			e, a := certInstance(t, sys, 24+rng.Intn(40), rng)
			k := a.K()
			free := make([]int, 0, k)
			for i := 0; i < k; i++ {
				if seed == 3 || i%3 != 1 {
					free = append(free, i)
				}
			}
			draw := func() (int, int) {
				i, j := RandSwapPair(rng, len(free))
				return free[i], free[j]
			}
			s := e.NewSwapSession(a)
			var ks, ls, totals [SwapLanes]int
			perm := make([]int, k)
			for step := 0; step < 150; step++ {
				if rng.Intn(2) == 0 {
					if err := c.check(e, s); err != nil {
						t.Fatalf("%s seed %d step %d: %v", sys.Name, seed, step, err)
					}
				}
				commit := rng.Intn(2) == 0
				switch rng.Intn(5) {
				case 0, 1: // a batch, then maybe commit one lane
					for l := range ks {
						ks[l], ls[l] = draw()
					}
					ks[3], ls[3] = ks[2], ls[2] // duplicate lane
					s.TrySwapBatch(&ks, &ls, &totals)
					if commit {
						lane := rng.Intn(SwapLanes)
						s.CommitSwap(ks[lane], ls[lane], totals[lane])
					}
				case 2: // a single trial, then maybe commit it
					i, j := draw()
					total := s.TrySwap(i, j)
					if commit {
						s.CommitSwap(i, j, total)
					}
				case 3: // a whole-assignment trial, then maybe CommitAssign
					copy(perm, s.ProcOf())
					for n := rng.Intn(3); n >= 0; n-- {
						i, j := draw()
						perm[i], perm[j] = perm[j], perm[i]
					}
					total := s.TryAssign(perm)
					if commit {
						s.CommitAssign(perm, total)
					}
				case 4: // an identity commit, which keeps the certificate
					i, _ := draw()
					s.CommitSwap(i, i, s.TotalTime())
				}
			}
			if err := c.check(e, s); err != nil {
				t.Fatalf("%s seed %d final: %v", sys.Name, seed, err)
			}
		}
	}
	t.Logf("%d of %d pairs certified, %d bounded above the total; %d of %d assignments certified; traces by source %v",
		c.certified, c.pairs, c.above, c.assignsCert, c.assigns, c.sources)
	if c.certified == 0 || c.above == 0 || c.assignsCert == 0 {
		t.Fatal("some form of the bound never fired; the oracle checked nothing there")
	}
	for _, source := range []string{"scratch", "pass"} {
		if c.sources[source] == 0 {
			t.Errorf("no chain trace used %s end times", source)
		}
	}
}

// FuzzCertificate decodes a small instance and a sequence of session
// operations from the fuzz input and checks the chain bound (certChecker)
// after every check operation and at the end: no re-priced chain exceeds
// the exact total, certified candidates never price below the incumbent by
// the reference, and reused end times equal a fresh pass.
//
// Input layout: byte 0 picks the machine, byte 1 the task count (≤ 24);
// then per task its size, cluster and an edge mask to the next eight tasks
// (edge weights from the mask's bits); the rest are operations, three
// bytes each.
func FuzzCertificate(f *testing.F) {
	f.Add([]byte{0, 6, 1, 0, 3, 2, 1, 5, 0, 2, 9, 4, 3, 1, 0, 0, 2, 7, 3, 0, 0, 1, 2, 4, 0, 1, 2, 1, 3, 0, 2, 5, 1})
	f.Add([]byte{3, 23, 5, 4, 255, 0, 1, 17, 7, 2, 3, 1, 0, 0, 4, 5, 6, 2, 1, 8, 0, 3, 1, 2, 2, 2, 9, 9, 9})
	f.Add([]byte{5, 12, 0, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 0, 0, 1, 1, 0, 2, 2, 2, 2, 3, 3, 3})
	machines := []*graph.System{topology.Ring(3), topology.Mesh(2, 3), topology.Hypercube(3),
		topology.Star(5), topology.Chain(4), topology.Complete(4)}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sys := machines[int(data[0])%len(machines)]
		k := sys.NumNodes()
		np := 1 + int(data[1])%24
		data = data[2:]
		byteAt := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		p := graph.NewProblem(np)
		c := graph.NewClustering(np, k)
		for i := 0; i < np; i++ {
			p.Size[i] = byteAt(3*i) % 6
			c.Of[i] = byteAt(3*i+1) % k
			mask := byteAt(3*i + 2)
			for d := 1; d <= 8 && i+d < np; d++ {
				if mask&(1<<(d-1)) != 0 {
					p.SetEdge(i, i+d, 1+(mask>>d)%4)
				}
			}
		}
		if len(data) > 3*np {
			data = data[3*np:]
		} else {
			data = nil
		}
		e, err := NewEvaluator(p, c, paths.New(sys))
		if err != nil {
			t.Fatal(err)
		}
		s := e.NewSwapSession(NewAssignment(k))
		ch := newCertChecker(int64(len(data)))
		var ks, ls, totals [SwapLanes]int
		for ; len(data) >= 3; data = data[3:] {
			op, i, j := int(data[0]), int(data[1])%k, int(data[2])%k
			switch op % 4 {
			case 0: // a batch of the pair and its neighbours, committing lane op/4
				for l := range ks {
					ks[l], ls[l] = (i+l)%k, (j+2*l)%k
				}
				s.TrySwapBatch(&ks, &ls, &totals)
				if op&4 != 0 {
					lane := (op / 8) % SwapLanes
					s.CommitSwap(ks[lane], ls[lane], totals[lane])
				}
			case 1: // a single trial, committed on the op's high bit
				total := s.TrySwap(i, j)
				if op&4 != 0 {
					s.CommitSwap(i, j, total)
				}
			case 2: // a reversal of the incumbent between i and j
				perm := slices.Clone(s.ProcOf())
				lo, hi := min(i, j), max(i, j)
				slices.Reverse(perm[lo : hi+1])
				s.CommitAssign(perm, s.TryAssign(perm))
			case 3:
				if err := ch.check(e, s); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := ch.check(e, s); err != nil {
			t.Fatal(err)
		}
	})
}
