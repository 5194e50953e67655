package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// runningClustering is the 11-task, 4-cluster split used across the repo's
// worked examples: A={0,1,2}, B={3,4,5}, C={6,7,8}, D={9,10}.
func runningClustering() *Clustering {
	c := NewClustering(11, 4)
	c.Of = []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3}
	return c
}

func TestClusteringValidate(t *testing.T) {
	c := runningClustering()
	if err := c.Validate(); err != nil {
		t.Fatalf("valid clustering rejected: %v", err)
	}
	c.Of[0] = 7 // out of range
	if err := c.Validate(); err == nil {
		t.Fatal("out-of-range cluster accepted")
	}
	c = NewClustering(3, 2) // cluster 1 empty
	if err := c.Validate(); err == nil {
		t.Fatal("empty cluster accepted")
	}
	c = &Clustering{Of: []int{0}, K: 0}
	if err := c.Validate(); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestClusteringMembersAndSizes(t *testing.T) {
	c := runningClustering()
	if got := c.Members(1); !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Fatalf("Members(1) = %v", got)
	}
	if got := c.Members(3); !reflect.DeepEqual(got, []int{9, 10}) {
		t.Fatalf("Members(3) = %v", got)
	}
	if got := c.Sizes(); !reflect.DeepEqual(got, []int{3, 3, 3, 2}) {
		t.Fatalf("Sizes = %v", got)
	}
}

func TestClusteringLoads(t *testing.T) {
	p := NewProblem(4)
	p.Size = []int{5, 1, 2, 7}
	c := NewClustering(4, 2)
	c.Of = []int{0, 1, 0, 1}
	if got := c.Loads(p); !reflect.DeepEqual(got, []int{7, 8}) {
		t.Fatalf("Loads = %v, want [7 8]", got)
	}
}

func TestClusteringCloneSameClusterCanonical(t *testing.T) {
	c := runningClustering()
	d := c.Clone()
	d.Of[0] = 3
	if c.Of[0] != 0 {
		t.Fatal("mutating clone changed original")
	}
	if !c.SameCluster(0, 2) || c.SameCluster(0, 3) {
		t.Fatal("SameCluster wrong")
	}
	// Canonical: relabel {2,2,0,0,1} → {0,0,1,1,2}.
	e := NewClustering(5, 3)
	e.Of = []int{2, 2, 0, 0, 1}
	canon := e.Canonical()
	if !reflect.DeepEqual(canon.Of, []int{0, 0, 1, 1, 2}) {
		t.Fatalf("Canonical = %v", canon.Of)
	}
}

func TestClusteredEdgesRemovesIntraCluster(t *testing.T) {
	p := NewProblem(4)
	p.SetEdge(0, 1, 5) // intra (both cluster 0)
	p.SetEdge(1, 2, 3) // inter
	p.SetEdge(2, 3, 2) // intra (both cluster 1)
	c := NewClustering(4, 2)
	c.Of = []int{0, 0, 1, 1}
	v := p.View()
	cw := ClusteredWeights(v, c)
	if cw[v.Find(0, 1)] != 0 || cw[v.Find(2, 3)] != 0 {
		t.Fatal("intra-cluster edges not removed")
	}
	if got := cw[v.Find(1, 2)]; got != 3 {
		t.Fatalf("inter-cluster edge = %d, want 3", got)
	}
}

func TestBuildAbstractWeightsAndMCA(t *testing.T) {
	p := NewProblem(5)
	p.SetEdge(0, 2, 4) // cluster 0 → 1
	p.SetEdge(1, 2, 1) // cluster 0 → 1
	p.SetEdge(2, 4, 2) // cluster 1 → 2
	p.SetEdge(0, 1, 9) // intra cluster 0
	c := NewClustering(5, 3)
	c.Of = []int{0, 0, 1, 2, 2}
	a := BuildAbstract(p, c)
	want := [][]AbsArc{
		{{To: 1, W: 5}},
		{{To: 0, W: 5}, {To: 2, W: 2}},
		{{To: 1, W: 2}},
	}
	for k, row := range want {
		if got := a.Row(k); !reflect.DeepEqual(got, row) {
			t.Fatalf("Row(%d) = %v, want %v", k, got, row)
		}
	}
	if got := a.MCA(); !reflect.DeepEqual(got, []int{5, 7, 2}) {
		t.Fatalf("MCA = %v, want [5 7 2]", got)
	}
	if got := a.NumEdges(); got != 2 {
		t.Fatalf("NumEdges = %d, want 2", got)
	}
}

// denseFold is the dense oracle for FoldAbstract: the paper's K×K
// abs_edge weights, each arc between two clusters added in both
// directions.
func denseFold(c *Clustering, arcs []Arc) [][]int {
	want := make([][]int, c.K)
	for k := range want {
		want[k] = make([]int, c.K)
	}
	for _, e := range arcs {
		if k, l := c.Of[e.From], c.Of[e.To]; e.W > 0 && k != l {
			want[k][l] += e.W
			want[l][k] += e.W
		}
	}
	return want
}

// matchesDense reports whether a's sparse rows hold exactly the nonzero
// entries of want, each row strictly ascending in To (so parallel edges
// are merged), and whether MCA and NumEdges agree with the rows.
func matchesDense(a *Abstract, want [][]int) error {
	if a.K != len(want) {
		return fmt.Errorf("K = %d, want %d", a.K, len(want))
	}
	entries := 0
	for k := 0; k < a.K; k++ {
		row, sum, n := a.Row(k), 0, 0
		for x, e := range row {
			if x > 0 && row[x-1].To >= e.To {
				return fmt.Errorf("Row(%d) = %v not strictly ascending", k, row)
			}
			if e.W <= 0 || e.W != want[k][e.To] {
				return fmt.Errorf("Row(%d) entry %v, want weight %d", k, e, want[k][e.To])
			}
			sum += e.W
		}
		for _, w := range want[k] {
			if w > 0 {
				n++
			}
		}
		if n != len(row) {
			return fmt.Errorf("Row(%d) has %d entries, want %d", k, len(row), n)
		}
		if a.MCA()[k] != sum {
			return fmt.Errorf("MCA[%d] = %d, want row sum %d", k, a.MCA()[k], sum)
		}
		entries += n
	}
	if a.NumEdges()*2 != entries {
		return fmt.Errorf("NumEdges = %d, want %d", a.NumEdges(), entries/2)
	}
	return nil
}

func TestAbstractPropertySymmetricAndConsistent(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomDAG(rng, 20)
		n := p.NumTasks()
		k := 1 + rng.Intn(n)
		c := NewClustering(n, k)
		for i := range c.Of {
			c.Of[i] = rng.Intn(k)
		}
		a := BuildAbstract(p, c)
		want := denseFold(c, p.View().Arcs())
		if err := matchesDense(a, want); err != nil {
			t.Log(err)
			return false
		}
		// The oracle is symmetric with a zero diagonal, and its total
		// counts each inter-cluster edge twice.
		inter, sum := 0, 0
		for _, e := range p.View().Arcs() {
			if c.Of[e.From] != c.Of[e.To] {
				inter += e.W
			}
		}
		for x := 0; x < k; x++ {
			if want[x][x] != 0 {
				return false
			}
			for y := 0; y < k; y++ {
				if want[x][y] != want[y][x] {
					return false
				}
				sum += want[x][y]
			}
		}
		return sum == 2*inter
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestFoldAbstractMatchesDenseOracle folds raw arc lists, which unlike a
// problem's view may repeat a task pair, carry zero weights, stay inside
// a cluster or leave clusters without any edge, and compares the rows
// with the dense fold.
func TestFoldAbstractMatchesDenseOracle(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		k := 1 + rng.Intn(n+4) // clusters beyond the tasks stay isolated
		c := NewClustering(n, k)
		for i := range c.Of {
			c.Of[i] = rng.Intn(k)
		}
		arcs := make([]Arc, rng.Intn(4*n+1))
		for x := range arcs {
			if x > 0 && rng.Intn(4) == 0 {
				arcs[x] = arcs[rng.Intn(x)] // a parallel arc
				arcs[x].W = rng.Intn(6)
				continue
			}
			arcs[x] = Arc{From: rng.Intn(n), To: rng.Intn(n), W: rng.Intn(6)}
		}
		if err := matchesDense(FoldAbstract(c, arcs), denseFold(c, arcs)); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClusteredEdgesPropertySubsetOfProblem(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomDAG(rng, 20)
		n := p.NumTasks()
		k := 1 + rng.Intn(n)
		c := NewClustering(n, k)
		for i := range c.Of {
			c.Of[i] = rng.Intn(k)
		}
		v := p.View()
		cw := ClusteredWeights(v, c)
		for e, a := range v.Arcs() {
			switch {
			case cw[e] != 0 && cw[e] != a.W:
				return false // weight must be preserved
			case cw[e] != 0 && c.Of[a.From] == c.Of[a.To]:
				return false // intra-cluster must be dropped
			case c.Of[a.From] != c.Of[a.To] && cw[e] == 0:
				return false // inter-cluster must be kept
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
