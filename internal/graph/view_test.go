package graph_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
)

// The sparse-vs-dense oracle: every query the frozen View answers must
// equal a scan of the np×np matrix (the paper's prob_edge) the problem was
// built from. The matrix lives only here, as the reference.

// dense is a problem graph in matrix form: w[i][j] is the weight of edge
// i→j, 0 for none. Negative weights, self-loops and cycles are allowed, so
// the reference can also pin the first error Validate reports.
type dense struct {
	size []int
	w    [][]int
}

func newDense(n int) *dense {
	d := &dense{size: make([]int, n), w: make([][]int, n)}
	for i := range d.w {
		d.w[i] = make([]int, n)
	}
	return d
}

// randomDense draws a random DAG and, each with probability 1/5, a negative
// task size, a negative edge weight, a self-loop and a back edge that may
// close a cycle, so several faults often meet in one graph.
func randomDense(rng *rand.Rand, maxN int) *dense {
	n := 1 + rng.Intn(maxN)
	d := newDense(n)
	for i := range d.size {
		d.size[i] = rng.Intn(10)
	}
	perm := rng.Perm(n)
	density := rng.Float64() * 0.4
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < density {
				d.w[perm[a]][perm[b]] = 1 + rng.Intn(9)
			}
		}
	}
	if rng.Intn(5) == 0 {
		d.size[rng.Intn(n)] = -1 - rng.Intn(3)
	}
	if rng.Intn(5) == 0 {
		d.w[rng.Intn(n)][rng.Intn(n)] = -1 - rng.Intn(3)
	}
	if rng.Intn(5) == 0 {
		i := rng.Intn(n)
		d.w[i][i] = 1 + rng.Intn(5)
	}
	if rng.Intn(5) == 0 && n > 1 {
		a := rng.Intn(n - 1)
		b := a + 1 + rng.Intn(n-a-1)
		d.w[perm[b]][perm[a]] = 1 + rng.Intn(5)
	}
	return d
}

// denseOf reads a problem's settled edges back into matrix form.
func denseOf(p *graph.Problem) *dense {
	d := newDense(p.NumTasks())
	copy(d.size, p.Size)
	for _, a := range p.View().Arcs() {
		d.w[a.From][a.To] = a.W
	}
	return d
}

// build applies d to a fresh problem through SetEdge. Every non-zero cell,
// and some empty ones, receives up to three stale writes (zero and
// negative weights among them) before its final weight; all writes are
// interleaved in random order, so the log holds duplicates, deletions of
// edges that existed for a while, and pairs that end deleted.
func (d *dense) build(rng *rand.Rand) *graph.Problem {
	n := len(d.size)
	p := graph.NewProblem(n)
	copy(p.Size, d.size)
	var writes []int // cell i*n+j, once per write
	left := make(map[int]int)
	for c := 0; c < n*n; c++ {
		if d.w[c/n][c%n] == 0 && rng.Intn(6) != 0 {
			continue
		}
		k := 1 + rng.Intn(4)
		left[c] = k
		for ; k > 0; k-- {
			writes = append(writes, c)
		}
	}
	rng.Shuffle(len(writes), func(a, b int) { writes[a], writes[b] = writes[b], writes[a] })
	for _, c := range writes {
		i, j := c/n, c%n
		w := rng.Intn(12) - 3 // stale
		if left[c]--; left[c] == 0 {
			w = d.w[i][j]
		}
		p.SetEdge(i, j, w)
	}
	return p
}

// topo is the dense Kahn's algorithm the View replaced: a full matrix scan
// for in-degrees and a linear minimum search over the ready set.
func (d *dense) topo() ([]int, error) {
	n := len(d.size)
	indeg := make([]int, n)
	for i := range d.w {
		for j := range d.w[i] {
			if d.w[i][j] > 0 {
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
		for j := range d.w[v] {
			if d.w[v][j] > 0 {
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

// validate is the dense Validate: task sizes, then the cells row-major,
// then acyclicity.
func (d *dense) validate() error {
	for i, s := range d.size {
		if s < 0 {
			return fmt.Errorf("graph: task %d has negative size %d", i, s)
		}
	}
	for i, row := range d.w {
		for j, w := range row {
			switch {
			case w < 0:
				return fmt.Errorf("graph: edge %d→%d has negative weight %d", i, j, w)
			case w > 0 && i == j:
				return fmt.Errorf("graph: task %d has a self-loop", i)
			}
		}
	}
	_, err := d.topo()
	return err
}

// fingerprint is the dense mimdmap/problem/v1 encoding: sizes, edge count,
// then every cell of weight > 0 row-major.
func (d *dense) fingerprint() graph.Fingerprint {
	h := graph.NewHasher("mimdmap/problem/v1")
	h.Ints(d.size)
	edges := 0
	for _, row := range d.w {
		for _, w := range row {
			if w > 0 {
				edges++
			}
		}
	}
	h.Int(edges)
	for i, row := range d.w {
		for j, w := range row {
			if w > 0 {
				h.Int(i)
				h.Int(j)
				h.Int(w)
			}
		}
	}
	return h.Sum()
}

// checkAgainstDense compares every view-backed query of p with the dense
// reference d, and the per-edge clustered weights of c with the dense
// clus_edge cells.
func checkAgainstDense(t *testing.T, p *graph.Problem, d *dense, c *graph.Clustering) {
	t.Helper()
	n := len(d.size)
	wantOrder, wantTopoErr := d.topo()
	edges, comm := 0, 0
	var succs, preds [][]int
	for i := 0; i < n; i++ {
		var s, q []int
		for j := 0; j < n; j++ {
			if d.w[i][j] > 0 {
				s = append(s, j)
				edges++
				comm += d.w[i][j]
			}
			if d.w[j][i] > 0 {
				q = append(q, j)
			}
		}
		succs, preds = append(succs, s), append(preds, q)
	}

	v := p.View() // freeze; every query below reads the view
	if got, want := fmt.Sprint(p.Validate()), fmt.Sprint(d.validate()); got != want {
		t.Fatalf("Validate = %s; dense %s", got, want)
	}
	if got, want := fmt.Sprint(v.Err()), fmt.Sprint(d.validate()); got != want {
		t.Fatalf("Err = %s; dense %s", got, want)
	}
	order, err := p.TopoOrder()
	if !errors.Is(err, wantTopoErr) || !reflect.DeepEqual(order, wantOrder) {
		t.Fatalf("TopoOrder = %v, %v; dense %v, %v", order, err, wantOrder, wantTopoErr)
	}
	if vo, verr := v.Order(); verr != err || (verr == nil && !reflect.DeepEqual(vo, order)) {
		t.Fatalf("View.Order = %v, %v; TopoOrder %v, %v", vo, verr, order, err)
	}
	if got := p.NumEdges(); got != edges {
		t.Fatalf("NumEdges = %d, dense %d", got, edges)
	}
	if got := p.TotalComm(); got != comm {
		t.Fatalf("TotalComm = %d, dense %d", got, comm)
	}
	if got, want := p.Fingerprint(), d.fingerprint(); got != want {
		t.Fatalf("Fingerprint = %v, dense %v", got, want)
	}
	arcs := v.Arcs()
	var wantArcs []graph.Arc
	for i := 0; i < n; i++ {
		for _, j := range succs[i] {
			wantArcs = append(wantArcs, graph.Arc{From: i, To: j, W: d.w[i][j]})
		}
	}
	if !slices.Equal(arcs, wantArcs) {
		t.Fatalf("Arcs = %v, dense %v", arcs, wantArcs)
	}
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
			w := max(d.w[i][j], 0)
			cell := 0 // the dense clus_edge cell
			if w > 0 && c.Of[i] != c.Of[j] {
				cell = w
			}
			e := v.Find(i, j)
			if (e >= 0) != (w > 0) {
				t.Fatalf("Find(%d,%d) = %d with dense weight %d", i, j, e, w)
			}
			if e >= 0 && (cw[e] != cell || arcs[e].W != w) {
				t.Fatalf("edge %d→%d: clustered %d weight %d, dense %d/%d", i, j, cw[e], arcs[e].W, cell, w)
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

// TestViewMatchesDenseRandom applies random matrices, faults included,
// through noisy SetEdge logs and checks the view, the verdict and the
// fingerprint against the matrix. Two logs of one matrix are Equal.
func TestViewMatchesDenseRandom(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDense(rng, 40)
		p, q := d.build(rng), d.build(rng)
		if !p.Equal(q) {
			t.Fatalf("two logs of one matrix differ")
		}
		checkAgainstDense(t, p, d, randomClustering(rng, len(d.size)))
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestViewMatchesDenseGenerators rebuilds generator outputs through noisy
// SetEdge logs: the rebuilt problem must match the matrix and the original.
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
			d := denseOf(p)
			q := d.build(rng)
			checkAgainstDense(t, q, d, randomClustering(rng, p.NumTasks()))
			if !q.Equal(p) || q.Fingerprint() != p.Fingerprint() {
				t.Fatal("rebuilt problem differs from the generator's")
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// parseDense reads the text format straight into a matrix, later lines
// overwriting earlier ones, as the dense parser did.
func parseDense(t *testing.T, in string) *dense {
	t.Helper()
	var d *dense
	for _, line := range strings.Split(in, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		nums := make([]int, len(f)-1)
		for k := range nums {
			var err error
			if nums[k], err = strconv.Atoi(f[k+1]); err != nil {
				t.Fatalf("seed line %q: %v", line, err)
			}
		}
		switch f[0] {
		case "problem":
			d = newDense(nums[0])
		case "task":
			d.size[nums[0]] = nums[1]
		case "edge":
			d.w[nums[0]][nums[1]] = nums[2]
		}
	}
	return d
}

func TestViewMatchesDenseFuzzCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, in := range graph.FuzzSeedProblems() {
		p, err := graph.ReadProblem(strings.NewReader(in))
		if err != nil {
			t.Fatalf("seed does not parse: %v", err)
		}
		checkAgainstDense(t, p, parseDense(t, in), randomClustering(rng, p.NumTasks()))
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
		d := denseOf(p)
		a, b := order[0], order[1+rng.Intn(len(order)-1)]
		if d.w[a][b] == 0 {
			d.w[a][b] = 1
		}
		d.w[b][a] = 1
		q := d.build(rng)
		checkAgainstDense(t, q, d, randomClustering(rng, q.NumTasks()))
		return errors.Is(q.Validate(), graph.ErrCyclic) && q.View().Err() == graph.ErrCyclic
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSetEdgeAfterFreezePanics(t *testing.T) {
	p := graph.NewProblem(3)
	p.SetEdge(0, 1, 2)
	p.SetEdge(1, 2, 3)
	if q := p.Clone(); !p.Equal(q) { // Clone and Equal must not freeze
		t.Fatal("clone differs")
	}
	p.SetEdge(0, 2, 4)
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
