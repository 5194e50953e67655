package paths

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"mimdmap/internal/graph"
	"mimdmap/internal/topology"
)

func TestHypercubeDistancesAreHamming(t *testing.T) {
	s := topology.Hypercube(4)
	tab := New(s)
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			want := bits.OnesCount(uint(a ^ b))
			if got := tab.At(a, b); got != want {
				t.Fatalf("dist(%d,%d) = %d, want hamming %d", a, b, got, want)
			}
		}
	}
}

func TestMeshDistancesAreManhattan(t *testing.T) {
	rows, cols := 3, 5
	s := topology.Mesh(rows, cols)
	tab := New(s)
	abs := func(x int) int {
		if x < 0 {
			return -x
		}
		return x
	}
	for a := 0; a < rows*cols; a++ {
		for b := 0; b < rows*cols; b++ {
			want := abs(a/cols-b/cols) + abs(a%cols-b%cols)
			if got := tab.At(a, b); got != want {
				t.Fatalf("dist(%d,%d) = %d, want manhattan %d", a, b, got, want)
			}
		}
	}
}

func TestRingDistances(t *testing.T) {
	n := 7
	tab := New(topology.Ring(n))
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			d := a - b
			if d < 0 {
				d = -d
			}
			want := d
			if n-d < want {
				want = n - d
			}
			if got := tab.At(a, b); got != want {
				t.Fatalf("ring dist(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestCompleteDiameterOne(t *testing.T) {
	tab := New(topology.Complete(6))
	if got := tab.Diameter(); got != 1 {
		t.Fatalf("complete diameter = %d, want 1", got)
	}
}

func TestChainDiameterAndEccentricity(t *testing.T) {
	tab := New(topology.Chain(5))
	if got := tab.Diameter(); got != 4 {
		t.Fatalf("chain-5 diameter = %d, want 4", got)
	}
	if got := tab.Eccentricity(0); got != 4 {
		t.Fatalf("ecc(0) = %d, want 4", got)
	}
	if got := tab.Eccentricity(2); got != 2 {
		t.Fatalf("ecc(2) = %d, want 2", got)
	}
}

func TestMeanDistanceRing4(t *testing.T) {
	tab := New(topology.Ring(4))
	// Distances from each node: 1,2,1 → mean 4/3.
	want := 4.0 / 3.0
	if got := tab.MeanDistance(); got != want {
		t.Fatalf("mean distance = %v, want %v", got, want)
	}
}

func TestMeanDistancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MeanDistance on 1 node did not panic")
		}
	}()
	New(topology.Ring(1)).MeanDistance()
}

func TestUnreachableOnDisconnected(t *testing.T) {
	s := graph.NewSystem(3)
	s.AddLink(0, 1)
	tab := New(s)
	if tab.At(0, 2) != Unreachable {
		t.Fatalf("dist to isolated node = %d, want Unreachable", tab.At(0, 2))
	}
	if tab.Diameter() != Unreachable {
		t.Fatal("diameter of disconnected graph should be Unreachable")
	}
}

func TestValidateAcceptsRealTables(t *testing.T) {
	for _, s := range []*graph.System{
		topology.Hypercube(3), topology.Mesh(4, 4), topology.Ring(9),
		topology.Star(6), topology.BinaryTree(10), topology.Torus(3, 4),
	} {
		tab := New(s)
		if err := tab.Validate(s); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	for _, tc := range []struct {
		name  string
		s     *graph.System
		cells [][3]int // from, to, corrupted distance
	}{
		{"linked pair off distance 1", topology.Ring(5), [][3]int{{1, 2, 3}}},
		{"non-zero diagonal", topology.Ring(5), [][3]int{{0, 0, 1}}},
		{"asymmetric entry", topology.Ring(5), [][3]int{{0, 2, 1}}},
		// Symmetric corruptions that a one-direction link check misses:
		// a non-link at distance 1, and a wrong distance between
		// non-adjacent nodes (ring-8's antipodes are 4 apart).
		{"symmetric non-link at 1", topology.Ring(5), [][3]int{{0, 2, 1}, {2, 0, 1}}},
		{"symmetric short antipode", topology.Ring(8), [][3]int{{0, 4, 3}, {4, 0, 3}}},
	} {
		tab := New(tc.s)
		for _, c := range tc.cells {
			tab.d[c[1]*tab.n+c[0]] = int32(c[2])
		}
		if err := tab.Validate(tc.s); err == nil {
			t.Errorf("%s: Validate accepted the corrupted table", tc.name)
		}
	}
}

func TestBFSMatchesFloydWarshallProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		s := topology.Random(n, 0.2, rng)
		bfs := New(s)
		fw := FloydWarshall(s)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if bfs.At(i, j) != fw.At(i, j) {
					return false
				}
			}
		}
		return bfs.Validate(s) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestBFSMatchesFloydWarshallOnNamedTopologies checks the BFS table
// against the Floyd–Warshall oracle on every topology family the
// specification strings name.
func TestBFSMatchesFloydWarshallOnNamedTopologies(t *testing.T) {
	specs := []string{"hypercube-5", "mesh-5x8", "mesh-8x16", "torus-4x6", "ring-9", "chain-7",
		"star-10", "complete-8", "btree-15", "ccc-3", "debruijn-5", "petersen", "random-40"}
	for _, spec := range specs {
		s, err := topology.ByName(spec, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		bfs, fw := New(s), FloydWarshall(s)
		for i := 0; i < s.NumNodes(); i++ {
			for j := 0; j < s.NumNodes(); j++ {
				if bfs.At(i, j) != fw.At(i, j) {
					t.Fatalf("%s: BFS distance %d→%d is %d, Floyd–Warshall says %d", spec, i, j, bfs.At(i, j), fw.At(i, j))
				}
			}
		}
	}
}

func TestClosureDistancesAllOne(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		s := topology.Random(n, 0.1, rng)
		tab := New(s.Closure())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 1
				if i == j {
					want = 0
				}
				if tab.At(i, j) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
