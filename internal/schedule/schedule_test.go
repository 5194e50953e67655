package schedule

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mimdmap/internal/graph"
	"mimdmap/internal/ideal"
	"mimdmap/internal/paths"
	"mimdmap/internal/topology"
)

// runningInstance is the repo's 11-task running example on the 4-ring.
func runningInstance() (*graph.Problem, *graph.Clustering, *graph.System) {
	p := graph.NewProblem(11)
	p.Size = []int{2, 1, 1, 1, 2, 1, 2, 1, 1, 2, 2}
	p.SetEdge(0, 1, 1)
	p.SetEdge(1, 2, 1)
	p.SetEdge(3, 4, 1)
	p.SetEdge(4, 5, 1)
	p.SetEdge(6, 7, 1)
	p.SetEdge(7, 8, 1)
	p.SetEdge(2, 3, 2)
	p.SetEdge(5, 6, 2)
	p.SetEdge(8, 9, 3)
	p.SetEdge(2, 10, 1)
	p.SetEdge(5, 10, 1)
	c := graph.NewClustering(11, 4)
	c.Of = []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3}
	return p, c, topology.Ring(4)
}

func newEval(t *testing.T) *Evaluator {
	t.Helper()
	p, c, s := runningInstance()
	e, err := NewEvaluator(p, c, paths.New(s))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAssignmentBasics(t *testing.T) {
	a := NewAssignment(4)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := a.ClusterOn(); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("ClusterOn = %v", got)
	}
	a.Swap(0, 2)
	if !reflect.DeepEqual(a.ProcOf, []int{2, 1, 0, 3}) {
		t.Fatalf("after swap ProcOf = %v", a.ProcOf)
	}
	if got := a.ClusterOn(); !reflect.DeepEqual(got, []int{2, 1, 0, 3}) {
		t.Fatalf("ClusterOn after swap = %v", got)
	}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Swap(1, 3)
	if a.Equal(b) {
		t.Fatal("Equal missed difference")
	}
	if a.Equal(NewAssignment(3)) {
		t.Fatal("different K compared equal")
	}
}

func TestAssignmentValidateRejects(t *testing.T) {
	a := FromPerm([]int{0, 0, 2})
	if err := a.Validate(); err == nil {
		t.Fatal("duplicate processor accepted")
	}
	a = FromPerm([]int{0, 5, 1})
	if err := a.Validate(); err == nil {
		t.Fatal("out-of-range processor accepted")
	}
}

func TestClusterOnPanicsOnNonBijection(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ClusterOn on non-bijection did not panic")
		}
	}()
	FromPerm([]int{0, 0}).ClusterOn()
}

func TestNewEvaluatorRejectsMismatch(t *testing.T) {
	p, c, s := runningInstance()
	bad := graph.NewClustering(5, 4)
	if _, err := NewEvaluator(p, bad, paths.New(s)); err == nil {
		t.Fatal("task-count mismatch accepted")
	}
	c2 := c.Clone()
	c2.K = 3 // fewer clusters than processors
	if _, err := NewEvaluator(p, c2, paths.New(s)); err == nil {
		t.Fatal("cluster/processor mismatch accepted")
	}
	cyc := graph.NewProblem(11)
	cyc.SetEdge(0, 1, 1)
	cyc.SetEdge(1, 0, 1)
	if _, err := NewEvaluator(cyc, c, paths.New(s)); err == nil {
		t.Fatal("cyclic problem accepted")
	}
}

func TestEvaluateRunningExampleOptimalPlacement(t *testing.T) {
	e := newEval(t)
	// A→2, B→3, C→0, D→1 puts every communicating cluster pair except B–D
	// on a single ring link: total time equals the ideal bound 21.
	a := FromPerm([]int{2, 3, 0, 1})
	res := e.Evaluate(a)
	if res.TotalTime != 21 {
		t.Fatalf("TotalTime = %d, want 21", res.TotalTime)
	}
	if !reflect.DeepEqual(res.LatestTasks, []int{9}) {
		t.Fatalf("LatestTasks = %v", res.LatestTasks)
	}
	if res.Start[9] != 19 || res.End[9] != 21 {
		t.Fatalf("task 9 start/end = %d/%d, want 19/21", res.Start[9], res.End[9])
	}
	// B–D at distance 2 stretches 5→10 to cost 2: task 10 starts at 12.
	if res.Start[10] != 12 {
		t.Fatalf("task 10 start = %d, want 12", res.Start[10])
	}
	if got := e.TotalTime(a); got != res.TotalTime {
		t.Fatalf("TotalTime fast path = %d, want %d", got, res.TotalTime)
	}
}

func TestEvaluateIdentityPlacement(t *testing.T) {
	e := newEval(t)
	// Identity: A→0, B→1, C→2, D→3. All chain hops adjacent (0-1,1-2,2-3);
	// A–D adjacent via the ring closure (3-0); B–D at distance 2.
	res := e.Evaluate(NewAssignment(4))
	if res.TotalTime != 21 {
		t.Fatalf("TotalTime = %d, want 21", res.TotalTime)
	}
}

func TestEvaluateBadPlacementStretchesCriticalEdge(t *testing.T) {
	e := newEval(t)
	// C→0, D→2 puts the critical edge 8→9 at distance 2 (+3 time units).
	a := FromPerm([]int{1, 3, 0, 2})
	res := e.Evaluate(a)
	if res.TotalTime <= 21 {
		t.Fatalf("TotalTime = %d, want > 21 (critical edge stretched)", res.TotalTime)
	}
}

// TestTraceMessageCosts checks the paper's comm[j][i] = clus_edge[j][i] ×
// shortest[proc(j)][proc(i)] (Algorithm I of §4.3.4) on the messages of a
// trace: their cost is weight × distance, and an intra-cluster precedence
// or a missing edge carries no message at all.
func TestTraceMessageCosts(t *testing.T) {
	e := newEval(t)
	a := FromPerm([]int{2, 3, 0, 1})
	msgs := map[[2]int]Message{}
	for _, m := range e.Trace(a, e.Evaluate(a)) {
		msgs[[2]int{m.Src, m.Dst}] = m
	}
	for _, tc := range []struct {
		src, dst, weight, dist int
	}{
		{8, 9, 3, 1},  // inter-cluster at distance 1: weight unchanged
		{5, 10, 1, 2}, // B (proc 3) to D (proc 1): ring distance 2
	} {
		m, ok := msgs[[2]int{tc.src, tc.dst}]
		if !ok {
			t.Fatalf("no message %d→%d", tc.src, tc.dst)
		}
		if m.Weight != tc.weight || m.Distance != tc.dist || m.Arrival-m.Departure != tc.weight*tc.dist {
			t.Fatalf("message %d→%d = %+v, want weight %d × distance %d", tc.src, tc.dst, m, tc.weight, tc.dist)
		}
	}
	// Intra-cluster edge, and no edge at all: no message.
	for _, pair := range [][2]int{{0, 1}, {0, 9}} {
		if m, ok := msgs[pair]; ok {
			t.Fatalf("unexpected message %d→%d: %+v", pair[0], pair[1], m)
		}
	}
}

func TestCardinality(t *testing.T) {
	e := newEval(t)
	// Optimal placement: inter-cluster edges 2→3 (A-B), 5→6 (B-C),
	// 8→9 (C-D), 2→10 (A-D) at distance 1; 5→10 (B-D) at 2 → cardinality 4.
	if got := e.Cardinality(FromPerm([]int{2, 3, 0, 1})); got != 4 {
		t.Fatalf("Cardinality = %d, want 4", got)
	}
}

func TestEvaluateOnClosureEqualsIdeal(t *testing.T) {
	// Property: evaluating any assignment on the closure reproduces the
	// ideal graph's start/end times and lower bound (this is the paper's
	// definition of the ideal graph).
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, c := randomClusteredInstance(rng, 25)
		g, err := ideal.Derive(p, c)
		if err != nil {
			return false
		}
		closure := topology.Complete(c.K)
		e, err := NewEvaluator(p, c, paths.New(closure))
		if err != nil {
			return false
		}
		a := FromPerm(rng.Perm(c.K))
		res := e.Evaluate(a)
		if res.TotalTime != g.LowerBound {
			return false
		}
		for i := range res.Start {
			if res.Start[i] != g.Start[i] || res.End[i] != g.End[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalTimeNeverBelowLowerBound(t *testing.T) {
	// Theorem 3's premise: no assignment onto any machine beats the ideal
	// bound.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, c := randomClusteredInstance(rng, 25)
		g, err := ideal.Derive(p, c)
		if err != nil {
			return false
		}
		sys := topology.Random(c.K, rng.Float64()*0.4, rng)
		e, err := NewEvaluator(p, c, paths.New(sys))
		if err != nil {
			return false
		}
		for trial := 0; trial < 5; trial++ {
			a := FromPerm(rng.Perm(c.K))
			if e.TotalTime(a) < g.LowerBound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateMatchesTotalTimeProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, c := randomClusteredInstance(rng, 25)
		sys := topology.Random(c.K, 0.2, rng)
		e, err := NewEvaluator(p, c, paths.New(sys))
		if err != nil {
			return false
		}
		a := FromPerm(rng.Perm(c.K))
		return e.Evaluate(a).TotalTime == e.TotalTime(a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// randomClusteredInstance generates a random problem + clustering pair with
// K ≥ 1 clusters, every cluster non-empty.
func randomClusteredInstance(rng *rand.Rand, maxN int) (*graph.Problem, *graph.Clustering) {
	n := 2 + rng.Intn(maxN-1)
	p := graph.NewProblem(n)
	for i := range p.Size {
		p.Size[i] = rng.Intn(8)
	}
	perm := rng.Perm(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < 0.3 {
				p.SetEdge(perm[a], perm[b], 1+rng.Intn(6))
			}
		}
	}
	k := 1 + rng.Intn(n)
	c := graph.NewClustering(n, k)
	dealt := rng.Perm(n)
	for i, task := range dealt {
		if i < k {
			c.Of[task] = i
		} else {
			c.Of[task] = rng.Intn(k)
		}
	}
	return p, c
}
