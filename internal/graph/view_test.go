package graph_test

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
)

// The sparse-vs-dense oracle: every query the frozen View answers must
// equal the dense-matrix scan it replaced, kept here as the reference.

// denseTopo is the dense Kahn's algorithm the View replaced: a full
// matrix scan for in-degrees and a linear minimum search over the ready
// set.
func denseTopo(p *graph.Problem) ([]int, error) {
	n := p.NumTasks()
	indeg := make([]int, n)
	for i := range p.Edge {
		for j := range p.Edge[i] {
			if p.Edge[i][j] > 0 {
				indeg[j]++
			}
		}
	}
	var order, ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		min := 0
		for k := range ready {
			if ready[k] < ready[min] {
				min = k
			}
		}
		v := ready[min]
		ready[min] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, v)
		for j := range p.Edge[v] {
			if p.Edge[v][j] > 0 {
				if indeg[j]--; indeg[j] == 0 {
					ready = append(ready, j)
				}
			}
		}
	}
	if len(order) != n {
		return nil, graph.ErrCyclic
	}
	return order, nil
}

// checkAgainstDense compares every view-backed query of a frozen p with the
// dense reference, and the per-edge clustered weights of c with the dense
// clus_edge cells.
func checkAgainstDense(t *testing.T, p *graph.Problem, c *graph.Clustering) {
	t.Helper()
	n := p.NumTasks()
	wantOrder, wantErr := denseTopo(p)
	edges, comm := 0, 0
	var succs, preds [][]int
	for i := 0; i < n; i++ {
		var s, q []int
		for j := 0; j < n; j++ {
			if p.Edge[i][j] > 0 {
				s = append(s, j)
				edges++
				comm += p.Edge[i][j]
			}
			if p.Edge[j][i] > 0 {
				q = append(q, j)
			}
		}
		succs, preds = append(succs, s), append(preds, q)
	}

	v := p.View() // freeze; every query below reads the view
	order, err := p.TopoOrder()
	if !errors.Is(err, wantErr) || !reflect.DeepEqual(order, wantOrder) {
		t.Fatalf("TopoOrder = %v, %v; dense %v, %v", order, err, wantOrder, wantErr)
	}
	if got := p.NumEdges(); got != edges {
		t.Fatalf("NumEdges = %d, dense %d", got, edges)
	}
	if got := p.TotalComm(); got != comm {
		t.Fatalf("TotalComm = %d, dense %d", got, comm)
	}
	arcs := v.Arcs()
	for i := 0; i < n; i++ {
		var out, in []int
		lo, hi := v.Out(i)
		for _, a := range arcs[lo:hi] {
			if a.From != i {
				t.Fatalf("Out(%d) holds %+v", i, a)
			}
			out = append(out, a.To)
		}
		for _, e := range v.In(i) {
			if arcs[e].To != i {
				t.Fatalf("In(%d) holds %+v", i, arcs[e])
			}
			in = append(in, arcs[e].From)
		}
		if !reflect.DeepEqual(out, succs[i]) || !reflect.DeepEqual(in, preds[i]) {
			t.Fatalf("task %d: view succs %v preds %v, dense %v %v", i, out, in, succs[i], preds[i])
		}
		if v.InDegree(i) != len(preds[i]) || v.OutDegree(i) != len(succs[i]) {
			t.Fatalf("degrees of %d = %d/%d, dense %d/%d", i, v.InDegree(i), v.OutDegree(i), len(preds[i]), len(succs[i]))
		}
	}
	cw := graph.ClusteredWeights(v, c)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cell := 0 // the dense clus_edge cell
			if p.Edge[i][j] > 0 && c.Of[i] != c.Of[j] {
				cell = p.Edge[i][j]
			}
			e := v.Find(i, j)
			if (e >= 0) != (p.Edge[i][j] > 0) {
				t.Fatalf("Find(%d,%d) = %d with dense weight %d", i, j, e, p.Edge[i][j])
			}
			if e >= 0 && (cw[e] != cell || arcs[e].W != p.Edge[i][j]) {
				t.Fatalf("edge %d→%d: clustered %d weight %d, dense %d/%d", i, j, cw[e], arcs[e].W, cell, p.Edge[i][j])
			}
		}
	}
}

func randomClustering(rng *rand.Rand, n int) *graph.Clustering {
	k := 1 + rng.Intn(n)
	c := graph.NewClustering(n, k)
	for i := range c.Of {
		c.Of[i] = rng.Intn(k)
	}
	return c
}

func TestViewMatchesDenseGenerators(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		random, err := gen.Random(gen.RandomConfig{
			Tasks: 1 + rng.Intn(60), EdgeProb: rng.Float64() * 0.4, Connected: rng.Intn(2) == 0,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		layered, err := gen.Layered(gen.LayeredConfig{
			Layers: 1 + rng.Intn(6), Width: 1 + rng.Intn(6), EdgeProb: rng.Float64() * 0.6,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*graph.Problem{random, layered} {
			checkAgainstDense(t, p, randomClustering(rng, p.NumTasks()))
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestViewMatchesDenseFuzzCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, in := range graph.FuzzSeedProblems() {
		p, err := graph.ReadProblem(strings.NewReader(in))
		if err != nil {
			t.Fatalf("seed does not parse: %v", err)
		}
		checkAgainstDense(t, p.Clone(), randomClustering(rng, p.NumTasks()))
	}
}

func TestViewCyclicInputs(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, err := gen.Random(gen.RandomConfig{Tasks: 2 + rng.Intn(30), EdgeProb: 0.3, Connected: true}, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Close a cycle through a topologically later task.
		order, _ := p.TopoOrder()
		q := p.Clone()
		a, b := order[0], order[1+rng.Intn(len(order)-1)]
		if q.Edge[a][b] == 0 {
			q.SetEdge(a, b, 1)
		}
		q.SetEdge(b, a, 1)
		checkAgainstDense(t, q, randomClustering(rng, q.NumTasks()))
		return errors.Is(q.Validate(), graph.ErrCyclic) && q.View().Err() == graph.ErrCyclic
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSetEdgeAfterFreezePanics(t *testing.T) {
	p := graph.NewProblem(3)
	p.SetEdge(0, 1, 2)
	if p.InDegree(1) != 1 || p.OutDegree(0) != 1 {
		t.Fatal("dense degree queries wrong")
	}
	p.SetEdge(1, 2, 3) // degree queries must not freeze
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetEdge on a frozen problem did not panic")
		}
	}()
	p.SetEdge(0, 2, 1)
}

// TestConcurrentFirstFreeze races first View calls (run it under -race):
// every caller must get the one stored view.
func TestConcurrentFirstFreeze(t *testing.T) {
	p, err := gen.Random(gen.RandomConfig{Tasks: 200, EdgeProb: 0.05, Connected: true}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	views := make([]*graph.View, callers)
	fps := make([]graph.Fingerprint, callers)
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if k%2 == 0 {
				views[k] = p.View()
			} else {
				fps[k] = p.Fingerprint()
				views[k] = p.View()
			}
		}(k)
	}
	wg.Wait()
	for k := 1; k < callers; k++ {
		if views[k] != views[0] {
			t.Fatalf("caller %d got a different view", k)
		}
		if k%2 == 1 && fps[k] != p.Fingerprint() {
			t.Fatalf("caller %d got a different fingerprint", k)
		}
	}
	if !reflect.DeepEqual(views[0], p.Clone().View()) {
		t.Fatal("the stored view differs from a fresh build")
	}
}
