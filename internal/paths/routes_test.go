package paths

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mimdmap/internal/graph"
	"mimdmap/internal/topology"
)

func TestRoutesOnChain(t *testing.T) {
	s := topology.Chain(4)
	r := NewRoutes(s, New(s))
	if got := r.Path(0, 3); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("Path(0,3) = %v", got)
	}
	if got := r.Path(2, 2); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("Path(2,2) = %v", got)
	}
	links := r.Links(0, 2)
	want := []int{LinkID(0, 1, 4), LinkID(1, 2, 4)}
	if !reflect.DeepEqual(links, want) {
		t.Fatalf("Links(0,2) = %v, want %v", links, want)
	}
	if r.Links(1, 1) != nil {
		t.Fatal("Links to self should be nil")
	}
}

func TestRoutesDeterministicLowestNeighbour(t *testing.T) {
	// On a ring both directions tie for opposite nodes; the canonical
	// route must take the lowest-numbered neighbour.
	s := topology.Ring(4)
	r := NewRoutes(s, New(s))
	// 0 → 2: neighbours 1 and 3 both on shortest routes; pick 1.
	if got := r.Path(0, 2); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("Path(0,2) = %v, want via node 1", got)
	}
}

func TestLinkIDSymmetric(t *testing.T) {
	if LinkID(3, 7, 10) != LinkID(7, 3, 10) {
		t.Fatal("LinkID not direction-independent")
	}
	if LinkID(1, 2, 10) == LinkID(2, 3, 10) {
		t.Fatal("distinct links collided")
	}
}

func TestRoutesUnreachable(t *testing.T) {
	s := graph.NewSystem(3)
	s.AddLink(0, 1)
	r := NewRoutes(s, New(s))
	if r.Path(0, 2) != nil {
		t.Fatal("route to unreachable node should be nil")
	}
	if err := r.Validate(s); err != nil {
		t.Fatal(err)
	}
}

func TestRoutesValidateProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		s := topology.Random(n, rng.Float64()*0.4, rng)
		r := NewRoutes(s, New(s))
		return r.Validate(s) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRoutesValidateCatchesCorruption(t *testing.T) {
	s := topology.Ring(5)
	r := NewRoutes(s, New(s))
	r.first[2*r.n+0] = 3 // wrong direction: route becomes longer
	if err := r.Validate(s); err == nil {
		t.Fatal("Validate accepted corrupted route")
	}
}
