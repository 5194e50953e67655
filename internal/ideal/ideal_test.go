package ideal

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mimdmap/internal/graph"
)

// runningInstance is the repo's 11-task running example (see
// internal/experiment): clusters A={0,1,2}, B={3,4,5}, C={6,7,8}, D={9,10}.
func runningInstance() (*graph.Problem, *graph.Clustering) {
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
	return p, c
}

func TestDeriveRunningExample(t *testing.T) {
	p, c := runningInstance()
	g, err := Derive(p, c)
	if err != nil {
		t.Fatal(err)
	}
	wantStart := []int{0, 2, 3, 6, 7, 9, 12, 14, 15, 19, 11}
	wantEnd := []int{2, 3, 4, 7, 9, 10, 14, 15, 16, 21, 13}
	if !reflect.DeepEqual(g.Start, wantStart) {
		t.Fatalf("Start = %v, want %v", g.Start, wantStart)
	}
	if !reflect.DeepEqual(g.End, wantEnd) {
		t.Fatalf("End = %v, want %v", g.End, wantEnd)
	}
	if g.LowerBound != 21 {
		t.Fatalf("LowerBound = %d, want 21", g.LowerBound)
	}
	if !reflect.DeepEqual(g.LatestTasks, []int{9}) {
		t.Fatalf("LatestTasks = %v, want [9]", g.LatestTasks)
	}
	if err := g.Validate(p); err != nil {
		t.Fatal(err)
	}
}

func TestIdealEdgesRunningExample(t *testing.T) {
	p, c := runningInstance()
	g, err := Derive(p, c)
	if err != nil {
		t.Fatal(err)
	}
	// Inter-cluster edges with their ideal weights:
	//   2→3: start3 − end2 = 6−4 = 2 (tight: clus weight 2)
	//   5→6: 12−10 = 2 (tight)
	//   8→9: 19−16 = 3 (tight)
	//   2→10: 11−4 = 7 (slack 6 over weight 1)
	//   5→10: 11−10 = 1 (tight)
	cases := []struct{ j, i, weight, slack int }{
		{2, 3, 2, 0},
		{5, 6, 2, 0},
		{8, 9, 3, 0},
		{2, 10, 7, 6},
		{5, 10, 1, 0},
	}
	v := p.View()
	for _, tc := range cases {
		if got := g.Edge[v.Find(tc.j, tc.i)]; got != tc.weight {
			t.Errorf("i_edge[%d][%d] = %d, want %d", tc.j, tc.i, got, tc.weight)
		}
		if got := g.Slack(tc.j, tc.i); got != tc.slack {
			t.Errorf("Slack(%d,%d) = %d, want %d", tc.j, tc.i, got, tc.slack)
		}
	}
	// Intra-cluster edge: not in the clustered graph.
	if got := g.Edge[v.Find(0, 1)]; got != 0 {
		t.Errorf("intra-cluster ideal edge = %d, want 0", got)
	}
	if g.Slack(0, 1) != -1 {
		t.Errorf("Slack of intra-cluster edge = %d, want -1", g.Slack(0, 1))
	}
}

func TestIsLatest(t *testing.T) {
	p, c := runningInstance()
	g, _ := Derive(p, c)
	if !g.IsLatest(9) || g.IsLatest(10) {
		t.Fatal("IsLatest wrong")
	}
}

func TestDeriveIdentityClusteringEqualsCriticalPath(t *testing.T) {
	// With every task its own cluster, the ideal lower bound equals the
	// DAG's critical path length (node + edge weights).
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomDAG(rng, 25)
		n := p.NumTasks()
		c := graph.NewClustering(n, n)
		for i := range c.Of {
			c.Of[i] = i
		}
		g, err := Derive(p, c)
		if err != nil {
			return false
		}
		return g.LowerBound == p.CriticalPathLength()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveSingleClusterEqualsNothingButDependencies(t *testing.T) {
	// With all tasks in one cluster every edge weight is zeroed: the bound
	// is the longest node-weight-only path.
	p := graph.NewProblem(3)
	p.Size = []int{2, 3, 4}
	p.SetEdge(0, 1, 100)
	p.SetEdge(1, 2, 100)
	c := graph.NewClustering(3, 1)
	g, err := Derive(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if g.LowerBound != 9 {
		t.Fatalf("LowerBound = %d, want 9 (communication all intra-cluster)", g.LowerBound)
	}
}

func TestDeriveMismatchedClustering(t *testing.T) {
	p := graph.NewProblem(3)
	c := graph.NewClustering(2, 1)
	if _, err := Derive(p, c); err == nil {
		t.Fatal("mismatched clustering accepted")
	}
}

func TestDeriveCyclicRejected(t *testing.T) {
	p := graph.NewProblem(2)
	p.SetEdge(0, 1, 1)
	p.SetEdge(1, 0, 1)
	c := graph.NewClustering(2, 2)
	c.Of = []int{0, 1}
	if _, err := Derive(p, c); err != graph.ErrCyclic {
		t.Fatalf("error = %v, want ErrCyclic", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	p, c := runningInstance()
	g, _ := Derive(p, c)
	g.Start[3] = 0 // violates dataflow
	if err := g.Validate(p); err == nil {
		t.Fatal("Validate accepted corrupted start time")
	}
	g, _ = Derive(p, c)
	g.LowerBound = 5
	if err := g.Validate(p); err == nil {
		t.Fatal("Validate accepted wrong lower bound")
	}
	g, _ = Derive(p, c)
	g.End[0] = 17
	if err := g.Validate(p); err == nil {
		t.Fatal("Validate accepted end ≠ start+size")
	}
}

func TestDerivedInvariantsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomDAG(rng, 30)
		n := p.NumTasks()
		k := 1 + rng.Intn(n)
		c := graph.NewClustering(n, k)
		for i := range c.Of {
			c.Of[i] = rng.Intn(k)
		}
		g, err := Derive(p, c)
		if err != nil {
			return false
		}
		return g.Validate(p) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// randomDAG builds a random acyclic problem graph for property tests.
func randomDAG(rng *rand.Rand, maxN int) *graph.Problem {
	n := 1 + rng.Intn(maxN)
	p := graph.NewProblem(n)
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
