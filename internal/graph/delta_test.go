package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// deltaPair builds a small base instance for diffing: a 4-task diamond DAG
// on a 4-node ring.
func deltaPair() (*Problem, *System) {
	p := NewProblem(4)
	p.Size = []int{2, 1, 1, 2}
	p.SetEdge(0, 1, 3)
	p.SetEdge(0, 2, 1)
	p.SetEdge(1, 3, 2)
	p.SetEdge(2, 3, 4)
	s := NewSystem(4)
	s.AddLink(0, 1)
	s.AddLink(1, 2)
	s.AddLink(2, 3)
	s.AddLink(3, 0)
	return p, s
}

func TestDiffZero(t *testing.T) {
	p, s := deltaPair()
	d := Diff(p, p.Clone(), s, s.Clone())
	if !d.Zero() {
		t.Fatalf("identical instances diff non-zero: %v", d)
	}
	if got := d.Similarity(); got != 1 {
		t.Fatalf("zero delta similarity = %v, want 1", got)
	}
	if d.SystemChanged() {
		t.Fatal("zero delta reports a changed system")
	}
	if d.OldElems != d.NewElems || d.OldElems != 4+4+4+4 {
		t.Fatalf("element counts = %d/%d, want 16/16", d.OldElems, d.NewElems)
	}
}

func TestDiffProblemChanges(t *testing.T) {
	p, s := deltaPair()
	// Grow one task with one incoming edge, resize one, reweight one edge.
	grown := NewProblem(5)
	copy(grown.Size, p.Size)
	for _, a := range p.EdgeList() {
		grown.SetEdge(a[0], a[1], a[2])
	}
	grown.Size[4] = 7
	grown.SetEdge(3, 4, 2)
	grown.Size[0] = 9      // resized
	grown.SetEdge(0, 1, 5) // reweighted
	grown.SetEdge(0, 2, 0) // removed
	d := Diff(p, grown, s, s)
	if !reflect.DeepEqual(d.TasksAdded, []int{4}) || d.TasksRemoved != nil {
		t.Fatalf("tasks added/removed = %v/%v, want [4]/[]", d.TasksAdded, d.TasksRemoved)
	}
	if d.TasksResized != 1 {
		t.Fatalf("TasksResized = %d, want 1", d.TasksResized)
	}
	if d.EdgesAdded != 1 || d.EdgesRemoved != 1 || d.EdgesReweighted != 1 {
		t.Fatalf("edge delta +%d -%d ~%d, want +1 -1 ~1", d.EdgesAdded, d.EdgesRemoved, d.EdgesReweighted)
	}
	if d.SystemChanged() {
		t.Fatal("problem-only delta reports a changed system")
	}
	if got := d.Changes(); got != 5 {
		t.Fatalf("Changes = %d, want 5", got)
	}
	if sim := d.Similarity(); sim <= 0 || sim >= 1 {
		t.Fatalf("similarity = %v, want strictly inside (0,1)", sim)
	}
}

func TestDiffSystemChanges(t *testing.T) {
	p, s := deltaPair()
	// Lose processor 3 (and its two ring links), gain nothing.
	small := NewSystem(3)
	small.AddLink(0, 1)
	small.AddLink(1, 2)
	small.AddLink(2, 0) // new link closing the smaller ring
	d := Diff(p, p, s, small)
	if !reflect.DeepEqual(d.ProcsLost, []int{3}) || d.ProcsGained != nil {
		t.Fatalf("procs lost/gained = %v/%v, want [3]/[]", d.ProcsLost, d.ProcsGained)
	}
	if d.LinksRemoved != 2 || d.LinksAdded != 1 {
		t.Fatalf("links +%d -%d, want +1 -2", d.LinksAdded, d.LinksRemoved)
	}
	if !d.SystemChanged() {
		t.Fatal("system delta not reported")
	}
	// Diffing the other way swaps the roles symmetrically.
	rev := Diff(p, p, small, s)
	if !reflect.DeepEqual(rev.ProcsGained, []int{3}) || rev.LinksAdded != 2 || rev.LinksRemoved != 1 {
		t.Fatalf("reverse delta procs/links = %v +%d -%d", rev.ProcsGained, rev.LinksAdded, rev.LinksRemoved)
	}
	if d.Similarity() != rev.Similarity() {
		t.Fatalf("similarity asymmetric: %v vs %v", d.Similarity(), rev.Similarity())
	}
}

func TestDiffTotalChangeSimilarityZero(t *testing.T) {
	p, s := deltaPair()
	q := NewProblem(8) // everything added, everything removed
	for i := range q.Size {
		q.Size[i] = 1
	}
	other := NewSystem(2)
	other.AddLink(0, 1)
	d := Diff(p, q, s, other)
	if sim := d.Similarity(); sim >= 0.5 {
		t.Fatalf("similarity of unrelated instances = %v, want low", sim)
	}
}

// denseDiff is the reference Diff: task and system fields from Diff on
// edge-free copies, edge fields from the O(np²) scan of the two matrices
// that Diff made before problems stopped being dense. Cells ≤ 0 are no
// edge.
func denseDiff(oldSize, newSize []int, oldW, newW [][]int, oldS, newS *System) Delta {
	oldP, newP := NewProblem(len(oldSize)), NewProblem(len(newSize))
	copy(oldP.Size, oldSize)
	copy(newP.Size, newSize)
	d := Diff(oldP, newP, oldS, newS)
	common := min(len(oldW), len(newW))
	for i := range oldW {
		for j, ow := range oldW[i] {
			if ow <= 0 {
				continue
			}
			d.OldElems++
			if i >= common || j >= common || newW[i][j] <= 0 {
				d.EdgesRemoved++
			}
		}
	}
	for i := range newW {
		for j, nw := range newW[i] {
			if nw <= 0 {
				continue
			}
			d.NewElems++
			switch {
			case i >= common || j >= common || oldW[i][j] <= 0:
				d.EdgesAdded++
			case oldW[i][j] != nw:
				d.EdgesReweighted++
			}
		}
	}
	return d
}

// matrixProblem builds a problem from sizes and a weight matrix, setting
// the cells in random order.
func matrixProblem(rng *rand.Rand, size []int, w [][]int) *Problem {
	n := len(size)
	p := NewProblem(n)
	copy(p.Size, size)
	for _, c := range rng.Perm(n * n) {
		if w[c/n][c%n] != 0 {
			p.SetEdge(c/n, c%n, w[c/n][c%n])
		}
	}
	return p
}

// TestDiffMatchesDense diffs random index-aligned pairs — grown or shrunk,
// resized, with edges added, removed, reweighted and some negative — and
// demands the Delta of the dense reference.
func TestDiffMatchesDense(t *testing.T) {
	_, s := deltaPair()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cell := func(density float64) int {
			if rng.Float64() >= density {
				return 0
			}
			return rng.Intn(8) - 1
		}
		oldN := 1 + rng.Intn(20)
		newN := max(1, oldN+rng.Intn(7)-3)
		oldSize, newSize := make([]int, oldN), make([]int, newN)
		oldW, newW := make([][]int, oldN), make([][]int, newN)
		for i := range oldW {
			oldSize[i] = rng.Intn(5)
			oldW[i] = make([]int, oldN)
			for j := range oldW[i] {
				oldW[i][j] = cell(0.3)
			}
		}
		for i := range newW {
			newSize[i] = rng.Intn(5)
			if i < oldN && rng.Intn(3) != 0 {
				newSize[i] = oldSize[i]
			}
			newW[i] = make([]int, newN)
			for j := range newW[i] {
				newW[i][j] = cell(0.3)
				if i < oldN && j < oldN && rng.Intn(5) != 0 {
					newW[i][j] = oldW[i][j]
				}
			}
		}
		got := Diff(matrixProblem(rng, oldSize, oldW), matrixProblem(rng, newSize, newW), s, s)
		want := denseDiff(oldSize, newSize, oldW, newW, s, s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Diff = %+v, dense %+v", got, want)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProjectAssignmentIdentityAndLoss(t *testing.T) {
	// Same size: a clean permutation survives untouched.
	out, st, err := ProjectAssignment([]int{2, 0, 3, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []int{2, 0, 3, 1}) || st.Kept != 4 || st.Evicted != 0 || st.Fresh != 0 {
		t.Fatalf("identity projection = %v %+v", out, st)
	}
	// One processor lost: cluster 2 sat on the dead processor 3 and is
	// re-seated on the only free one; cluster 3 disappears with its seat.
	out, st, err = ProjectAssignment([]int{2, 0, 3, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []int{2, 0, 1}) || st.Kept != 2 || st.Evicted != 1 || st.Fresh != 0 {
		t.Fatalf("loss projection = %v %+v", out, st)
	}
	assertBijection(t, out, 3)
}

// TestProjectAssignmentProcessorsGained is the regression test for the
// cluster-count invariant: when the machine gains processors, K exceeds the
// old NS, and a naive prefix copy of the old assignment under-covers the
// new machine (clusters 4 and 5 would have no seat — or, zero-filled,
// collide with cluster 0 on processor 0). The projection must seat the
// fresh clusters on exactly the gained processors and stay a bijection.
func TestProjectAssignmentProcessorsGained(t *testing.T) {
	old := []int{2, 0, 3, 1} // NS=4 machine
	out, st, err := ProjectAssignment(old, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []int{2, 0, 3, 1, 4, 5}) {
		t.Fatalf("gain projection = %v, want [2 0 3 1 4 5]", out)
	}
	if st.Kept != 4 || st.Evicted != 0 || st.Fresh != 2 {
		t.Fatalf("gain stats = %+v, want kept 4, fresh 2", st)
	}
	assertBijection(t, out, 6)

	// The naive copy really is invalid: it is shorter than K, and padding
	// it with zeros double-books processor 0.
	naive := make([]int, 6)
	copy(naive, old)
	seen := make(map[int]bool)
	valid := true
	for _, p := range naive {
		if seen[p] {
			valid = false
		}
		seen[p] = true
	}
	if valid {
		t.Fatal("naive zero-padded copy unexpectedly formed a bijection")
	}
}

func TestProjectAssignmentGarbageInput(t *testing.T) {
	// Out-of-range and duplicate seats are evicted, never propagated: the
	// output is a bijection no matter how broken the input was.
	out, st, err := ProjectAssignment([]int{9, -1, 2, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertBijection(t, out, 4)
	if st.Kept != 1 || st.Evicted != 3 {
		t.Fatalf("garbage stats = %+v, want kept 1, evicted 3", st)
	}
	if _, _, err := ProjectAssignment([]int{0}, 0); err == nil {
		t.Fatal("projection onto zero clusters must fail")
	}
}

func TestProjectAssignmentDeterministic(t *testing.T) {
	a, _, err := ProjectAssignment([]int{5, 1, 7, 3}, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ProjectAssignment([]int{5, 1, 7, 3}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("projection not deterministic: %v vs %v", a, b)
	}
}

func assertBijection(t *testing.T, procOf []int, k int) {
	t.Helper()
	if len(procOf) != k {
		t.Fatalf("projection covers %d clusters, want %d", len(procOf), k)
	}
	used := make([]bool, k)
	for c, p := range procOf {
		if p < 0 || p >= k {
			t.Fatalf("cluster %d seated on processor %d outside [0,%d)", c, p, k)
		}
		if used[p] {
			t.Fatalf("processor %d seated twice", p)
		}
		used[p] = true
	}
}
