package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// diamond returns the 4-task diamond DAG 0→{1,2}→3 with distinct weights.
func diamond() *Problem {
	p := NewProblem(4)
	p.Size = []int{2, 1, 3, 1}
	p.SetEdge(0, 1, 1)
	p.SetEdge(0, 2, 2)
	p.SetEdge(1, 3, 4)
	p.SetEdge(2, 3, 1)
	return p
}

func TestNewProblemEmpty(t *testing.T) {
	p := NewProblem(3)
	if got := p.NumTasks(); got != 3 {
		t.Fatalf("NumTasks = %d, want 3", got)
	}
	if got := p.NumEdges(); got != 0 {
		t.Fatalf("NumEdges = %d, want 0", got)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("empty problem should validate: %v", err)
	}
}

func TestProblemEdgesAndDegrees(t *testing.T) {
	v := diamond().View()
	if v.Find(0, 1) < 0 || v.Find(1, 0) >= 0 {
		t.Fatalf("edge direction wrong")
	}
	if got := v.NumEdges(); got != 4 {
		t.Fatalf("NumEdges = %d, want 4", got)
	}
	var preds, succs []int
	for _, e := range v.In(3) {
		preds = append(preds, v.Arcs()[e].From)
	}
	lo, hi := v.Out(0)
	for _, a := range v.Arcs()[lo:hi] {
		succs = append(succs, a.To)
	}
	if !reflect.DeepEqual(preds, []int{1, 2}) {
		t.Fatalf("preds of 3 = %v, want [1 2]", preds)
	}
	if !reflect.DeepEqual(succs, []int{1, 2}) {
		t.Fatalf("succs of 0 = %v, want [1 2]", succs)
	}
	if got := v.InDegree(3); got != 2 {
		t.Fatalf("InDegree(3) = %d, want 2", got)
	}
	if got := v.OutDegree(0); got != 2 {
		t.Fatalf("OutDegree(0) = %d, want 2", got)
	}
	if got := v.InDegree(0); got != 0 {
		t.Fatalf("InDegree(0) = %d, want 0", got)
	}
}

func TestProblemTotals(t *testing.T) {
	p := diamond()
	if got := p.TotalWork(); got != 7 {
		t.Fatalf("TotalWork = %d, want 7", got)
	}
	if got := p.TotalComm(); got != 8 {
		t.Fatalf("TotalComm = %d, want 8", got)
	}
}

func TestProblemSourcesSinks(t *testing.T) {
	p := diamond()
	if got := p.Sources(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("Sources = %v, want [0]", got)
	}
	if got := p.Sinks(); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("Sinks = %v, want [3]", got)
	}
}

func TestTopoOrderDiamond(t *testing.T) {
	p := diamond()
	order, err := p.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Fatalf("TopoOrder = %v, want [0 1 2 3]", order)
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	p := NewProblem(3)
	p.SetEdge(0, 1, 1)
	p.SetEdge(1, 2, 1)
	p.SetEdge(2, 0, 1)
	if _, err := p.TopoOrder(); err != ErrCyclic {
		t.Fatalf("TopoOrder error = %v, want ErrCyclic", err)
	}
	if err := p.Validate(); err != ErrCyclic {
		t.Fatalf("Validate error = %v, want ErrCyclic", err)
	}
}

func TestValidateRejectsNegativeTaskSize(t *testing.T) {
	p := NewProblem(2)
	p.Size[1] = -3
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted negative task size")
	}
}

func TestValidateRejectsNegativeEdge(t *testing.T) {
	p := NewProblem(2)
	p.SetEdge(0, 1, -1)
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted negative edge weight")
	}
}

func TestValidateRejectsSelfLoop(t *testing.T) {
	p := NewProblem(2)
	p.SetEdge(1, 1, 2)
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted self-loop")
	}
}

func TestValidateRejectsEdgeBeyondSize(t *testing.T) {
	p := NewProblem(3)
	p.SetEdge(0, 2, 1)
	p.Size = p.Size[:2]
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted an edge to a task that no longer exists")
	}
}

func TestSetEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetEdge out of range did not panic")
		}
	}()
	NewProblem(2).SetEdge(0, 2, 1)
}

func TestCloneIsDeep(t *testing.T) {
	p := diamond()
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone not equal to original")
	}
	q.SetEdge(0, 3, 9)
	q.Size[0] = 99
	if p.View().Find(0, 3) >= 0 || p.Size[0] != 2 {
		t.Fatal("mutating clone changed original")
	}
	if p.Equal(q) {
		t.Fatal("Equal missed a difference")
	}
}

func TestEqualDifferentSizes(t *testing.T) {
	if NewProblem(2).Equal(NewProblem(3)) {
		t.Fatal("problems of different sizes compared equal")
	}
}

func TestCriticalPathLengthDiamond(t *testing.T) {
	// Longest path: 0(2) →w1→ 1(1) →w4→ 3(1): 2+1+1+4+1 = 9.
	if got := diamond().CriticalPathLength(); got != 9 {
		t.Fatalf("CriticalPathLength = %d, want 9", got)
	}
}

func TestCriticalPathLengthChain(t *testing.T) {
	p := NewProblem(3)
	p.Size = []int{1, 2, 3}
	p.SetEdge(0, 1, 5)
	p.SetEdge(1, 2, 7)
	if got := p.CriticalPathLength(); got != 1+5+2+7+3 {
		t.Fatalf("CriticalPathLength = %d, want 18", got)
	}
}

func TestCriticalPathLengthNoEdges(t *testing.T) {
	p := NewProblem(3)
	p.Size = []int{4, 9, 2}
	if got := p.CriticalPathLength(); got != 9 {
		t.Fatalf("CriticalPathLength = %d, want 9 (largest task)", got)
	}
}

// randomDAG builds a random DAG for property tests: edges only from lower
// to higher IDs of a random permutation, so it is always acyclic.
func randomDAG(rng *rand.Rand, maxN int) *Problem {
	n := 1 + rng.Intn(maxN)
	p := NewProblem(n)
	for i := range p.Size {
		p.Size[i] = rng.Intn(10)
	}
	perm := rng.Perm(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < 0.3 {
				p.SetEdge(perm[a], perm[b], 1+rng.Intn(9))
			}
		}
	}
	return p
}

func TestTopoOrderPropertyRespectsEdges(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomDAG(rng, 30)
		order, err := p.TopoOrder()
		if err != nil {
			return false
		}
		pos := make([]int, p.NumTasks())
		for rank, task := range order {
			pos[task] = rank
		}
		for _, a := range p.View().Arcs() {
			if pos[a.From] >= pos[a.To] {
				return false
			}
		}
		return len(order) == p.NumTasks()
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestValidatePropertyRandomDAGs(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		return randomDAG(rng, 25).Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCriticalPathPropertyAtLeastLargestTask(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomDAG(rng, 25)
		cp := p.CriticalPathLength()
		for _, s := range p.Size {
			if cp < s {
				return false
			}
		}
		return cp <= p.TotalWork()+p.TotalComm()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeListSortedAndComplete(t *testing.T) {
	p := diamond()
	es := p.EdgeList()
	if len(es) != p.NumEdges() {
		t.Fatalf("EdgeList has %d entries, want %d", len(es), p.NumEdges())
	}
	want := [][3]int{{0, 1, 1}, {0, 2, 2}, {1, 3, 4}, {2, 3, 1}}
	if !reflect.DeepEqual(es, want) {
		t.Fatalf("EdgeList = %v, want %v", es, want)
	}
}
