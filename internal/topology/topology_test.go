package topology

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"mimdmap/internal/graph"
)

func mustValidate(t *testing.T, s *graph.System) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
}

func TestHypercube(t *testing.T) {
	for dim := 0; dim <= 6; dim++ {
		s := Hypercube(dim)
		mustValidate(t, s)
		n := 1 << uint(dim)
		if s.NumNodes() != n {
			t.Fatalf("dim %d: %d nodes, want %d", dim, s.NumNodes(), n)
		}
		if want := dim * n / 2; s.NumLinks() != want {
			t.Fatalf("dim %d: %d links, want %d", dim, s.NumLinks(), want)
		}
		for v := 0; v < n; v++ {
			if s.Degree(v) != dim {
				t.Fatalf("dim %d: node %d degree %d, want %d", dim, v, s.Degree(v), dim)
			}
		}
	}
}

func TestHypercubePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Hypercube(-1) did not panic")
		}
	}()
	Hypercube(-1)
}

func TestMesh(t *testing.T) {
	s := Mesh(3, 4)
	mustValidate(t, s)
	if s.NumNodes() != 12 {
		t.Fatalf("nodes = %d, want 12", s.NumNodes())
	}
	// Links: 3 rows × 3 horizontal + 2×4 vertical = 9+8 = 17.
	if s.NumLinks() != 17 {
		t.Fatalf("links = %d, want 17", s.NumLinks())
	}
	// Corner degree 2, edge degree 3, interior degree 4.
	if s.Degree(0) != 2 || s.Degree(1) != 3 || s.Degree(5) != 4 {
		t.Fatalf("degrees = %d,%d,%d; want 2,3,4", s.Degree(0), s.Degree(1), s.Degree(5))
	}
}

func TestMesh1xN(t *testing.T) {
	s := Mesh(1, 5)
	mustValidate(t, s)
	if s.NumLinks() != 4 {
		t.Fatalf("1x5 mesh links = %d, want 4", s.NumLinks())
	}
}

func TestTorus(t *testing.T) {
	s := Torus(3, 4)
	mustValidate(t, s)
	if s.NumNodes() != 12 {
		t.Fatalf("nodes = %d", s.NumNodes())
	}
	// Every node in a ≥3×≥3 torus has degree 4.
	for v := 0; v < 12; v++ {
		if s.Degree(v) != 4 {
			t.Fatalf("node %d degree %d, want 4", v, s.Degree(v))
		}
	}
	if s.NumLinks() != 24 {
		t.Fatalf("links = %d, want 24", s.NumLinks())
	}
}

func TestTorusDegenerate(t *testing.T) {
	// 1×n torus collapses to a ring; 2×n merges the double wrap links.
	s := Torus(1, 5)
	mustValidate(t, s)
	if s.NumLinks() != 5 {
		t.Fatalf("1x5 torus links = %d, want 5 (ring)", s.NumLinks())
	}
	s = Torus(2, 2)
	mustValidate(t, s)
	if s.NumLinks() != 4 {
		t.Fatalf("2x2 torus links = %d, want 4", s.NumLinks())
	}
}

func TestRingChainStarCompleteTree(t *testing.T) {
	r := Ring(6)
	mustValidate(t, r)
	if r.NumLinks() != 6 {
		t.Fatalf("ring links = %d", r.NumLinks())
	}
	c := Chain(6)
	mustValidate(t, c)
	if c.NumLinks() != 5 {
		t.Fatalf("chain links = %d", c.NumLinks())
	}
	st := Star(6)
	mustValidate(t, st)
	if st.NumLinks() != 5 || st.Degree(0) != 5 {
		t.Fatalf("star wrong: links %d centre degree %d", st.NumLinks(), st.Degree(0))
	}
	k := Complete(6)
	mustValidate(t, k)
	if k.NumLinks() != 15 {
		t.Fatalf("complete links = %d, want 15", k.NumLinks())
	}
	bt := BinaryTree(7)
	mustValidate(t, bt)
	if bt.NumLinks() != 6 {
		t.Fatalf("tree links = %d, want 6", bt.NumLinks())
	}
	if bt.Degree(0) != 2 || bt.Degree(1) != 3 || bt.Degree(3) != 1 {
		t.Fatal("tree degrees wrong")
	}
}

func TestRingSmall(t *testing.T) {
	mustValidate(t, Ring(1))
	s := Ring(2)
	mustValidate(t, s)
	if s.NumLinks() != 1 {
		t.Fatalf("ring-2 links = %d, want 1", s.NumLinks())
	}
}

func TestRandomConnectedProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		extra := rng.Float64() * 0.5
		s := Random(n, extra, rng)
		if s.Validate() != nil {
			return false
		}
		return s.NumLinks() >= n-1 // at least the spanning tree
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a := Random(20, 0.2, rand.New(rand.NewSource(42)))
	b := Random(20, 0.2, rand.New(rand.NewSource(42)))
	if !a.Equal(b) {
		t.Fatal("same seed produced different random topologies")
	}
	c := Random(20, 0.2, rand.New(rand.NewSource(43)))
	if a.Equal(c) {
		t.Fatal("different seeds produced identical topologies (suspicious)")
	}
}

// TestByNameRejectsOversizeSpecs covers specs past graph.MaxTextNodes
// nodes, and complete and random specs that may pass graph.MaxTextLinks
// links: a system costs 16 bytes per link, so each must be rejected from
// its name alone, allocating well under a megabyte.
func TestByNameRejectsOversizeSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, spec := range []string{
		"hypercube-15", "hypercube-20", "ccc-11", "ccc-16", "debruijn-15", "debruijn-20",
		"ring-16385", "ring-1000000", "chain-99999999", "star-20000", "complete-1000000",
		"btree-16385", "random-1000000", "mesh-128x129", "torus-1000000x1000000",
		"mesh-4611686018427387904x4", "torus-3037000500x3037000500",
		"complete-2897", "random-2897",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ByName(spec, rng)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("ByName accepted %q", spec)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("ByName(%q) allocated %d bytes before rejecting it", spec, got)
		}
	}
}

func TestByName(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	good := map[string]int{ // spec → expected node count
		"hypercube-3": 8,
		"mesh-3x4":    12,
		"torus-2x5":   10,
		"ring-7":      7,
		"chain-4":     4,
		"star-9":      9,
		"complete-5":  5,
		"btree-6":     6,
		"random-11":   11,
	}
	for spec, want := range good {
		s, err := ByName(spec, rng)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if s.NumNodes() != want {
			t.Errorf("%s: %d nodes, want %d", spec, s.NumNodes(), want)
		}
	}
	bad := []string{"", "mesh", "mesh-3", "mesh-0x4", "hypercube-99", "ring-0",
		"frobnicate-3", "mesh-3x4x5", "random--1", "mesh-ax4"}
	for _, spec := range bad {
		if _, err := ByName(spec, rng); err == nil {
			t.Errorf("ByName accepted %q", spec)
		}
	}
	if _, err := ByName("random-5", nil); err == nil {
		t.Error("random topology without RNG accepted")
	}
}
