package paths

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mimdmap/internal/graph"
	"mimdmap/internal/topology"
)

func TestWeightedUnitDelaysMatchBFS(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		s := topology.Random(n, 0.25, rng)
		w, err := NewWeighted(s, NewLinkDelays(n))
		if err != nil {
			return false
		}
		b := New(s)
		for a := 0; a < n; a++ {
			for c := 0; c < n; c++ {
				if w.At(a, c) != b.At(a, c) {
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

func TestWeightedDetour(t *testing.T) {
	// Triangle 0-1-2 where the direct link 0—2 is slow (delay 5): the
	// two-hop route through 1 (1+1 = 2) must win.
	s := graph.NewSystem(3)
	s.AddLink(0, 1)
	s.AddLink(1, 2)
	s.AddLink(0, 2)
	d := NewLinkDelays(3)
	d.Set(0, 2, 5)
	tab, err := NewWeighted(s, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.At(0, 2); got != 2 {
		t.Fatalf("weighted dist(0,2) = %d, want 2 (detour)", got)
	}
	if got := tab.At(0, 1); got != 1 {
		t.Fatalf("weighted dist(0,1) = %d, want 1", got)
	}
}

func TestWeightedChainAccumulates(t *testing.T) {
	s := topology.Chain(4)
	d := NewLinkDelays(4)
	d.Set(0, 1, 2)
	d.Set(1, 2, 3)
	d.Set(2, 3, 4)
	tab, err := NewWeighted(s, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.At(0, 3); got != 9 {
		t.Fatalf("dist(0,3) = %d, want 9", got)
	}
	if got := tab.At(3, 0); got != 9 {
		t.Fatalf("dist(3,0) = %d, want 9 (symmetric)", got)
	}
}

// TestWeightedCellLimit: a distance at or past the int32 cell limit is
// refused, while a costly link that no shortest route needs is fine.
func TestWeightedCellLimit(t *testing.T) {
	s := topology.Ring(3)
	d := NewLinkDelays(3)
	d.Set(0, 1, unreachableCell-2)
	tab, err := NewWeighted(s, d)
	if err != nil {
		t.Fatalf("rejected a bypassed costly link: %v", err)
	}
	if got := tab.At(0, 1); got != 2 {
		t.Fatalf("dist(0,1) = %d, want 2 around the ring", got)
	}
	d.Set(1, 2, unreachableCell-2)
	d.Set(2, 0, unreachableCell-2)
	if tab, err = NewWeighted(s, d); err != nil {
		t.Fatalf("rejected distances below the limit: %v", err)
	}
	if got := tab.At(0, 1); got != unreachableCell-2 {
		t.Fatalf("dist(0,1) = %d, want %d", got, unreachableCell-2)
	}
	d.Set(0, 1, unreachableCell)
	d.Set(2, 0, 2)
	if _, err := NewWeighted(s, d); err == nil {
		t.Fatal("accepted a distance past the int32 cell limit")
	}
}

func TestWeightedRejectsBadDelays(t *testing.T) {
	s := topology.Ring(4)
	d := NewLinkDelays(4)
	d.Set(0, 1, 0) // on a link: invalid
	if _, err := NewWeighted(s, d); err == nil {
		t.Fatal("accepted zero delay on a link")
	}
	d = NewLinkDelays(3) // wrong size
	if _, err := NewWeighted(s, d); err == nil {
		t.Fatal("accepted wrong-size delays")
	}
	// Zero delay off-link is fine.
	d = NewLinkDelays(4)
	d.Set(0, 2, 0)
	if _, err := NewWeighted(s, d); err != nil {
		t.Fatalf("rejected harmless off-link delay: %v", err)
	}
}

func TestWeightedTriangleInequalityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		s := topology.Random(n, 0.3, rng)
		d := NewLinkDelays(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if s.HasLink(a, b) {
					d.Set(a, b, 1+rng.Intn(5))
				}
			}
		}
		tab, err := NewWeighted(s, d)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if tab.At(i, i) != 0 {
				return false
			}
			for j := 0; j < n; j++ {
				if tab.At(i, j) != tab.At(j, i) {
					return false
				}
				for k := 0; k < n; k++ {
					if tab.At(i, j) > tab.At(i, k)+tab.At(k, j) {
						return false
					}
				}
				// Distance at least the unweighted hop count, at most
				// hops × max delay.
				if tab.At(i, j) < New(s).At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
