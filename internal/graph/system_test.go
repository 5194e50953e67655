package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// square returns the 4-cycle system graph (the paper's Fig. 5-a machine).
func square() *System {
	s := NewSystem(4)
	s.AddLink(0, 1)
	s.AddLink(1, 2)
	s.AddLink(2, 3)
	s.AddLink(3, 0)
	return s
}

func TestSystemBasics(t *testing.T) {
	s := square()
	if got := s.NumNodes(); got != 4 {
		t.Fatalf("NumNodes = %d, want 4", got)
	}
	if got := s.NumLinks(); got != 4 {
		t.Fatalf("NumLinks = %d, want 4", got)
	}
	if !s.HasLink(0, 1) || !s.HasLink(1, 0) {
		t.Fatal("links must be symmetric")
	}
	if s.HasLink(0, 2) {
		t.Fatal("diagonal must be absent")
	}
	if got := s.Degree(0); got != 2 {
		t.Fatalf("Degree(0) = %d, want 2", got)
	}
	if got := s.Degrees(); !reflect.DeepEqual(got, []int{2, 2, 2, 2}) {
		t.Fatalf("Degrees = %v", got)
	}
	if got := s.Neighbors(0); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("Neighbors(0) = %v, want [1 3]", got)
	}
}

func TestAddLinkIgnoresSelf(t *testing.T) {
	s := NewSystem(2)
	s.AddLink(1, 1)
	if s.HasLink(1, 1) || s.NumLinks() != 0 {
		t.Fatal("self-link recorded")
	}
}

func TestClosureFullyConnected(t *testing.T) {
	c := square().Closure()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := i != j
			if c.HasLink(i, j) != want {
				t.Fatalf("closure HasLink(%d, %d) = %v, want %v", i, j, c.HasLink(i, j), want)
			}
		}
	}
	if got := c.NumLinks(); got != 6 {
		t.Fatalf("closure links = %d, want 6", got)
	}
}

func TestIsConnected(t *testing.T) {
	if !square().IsConnected() {
		t.Fatal("square should be connected")
	}
	s := NewSystem(4)
	s.AddLink(0, 1)
	s.AddLink(2, 3)
	if s.IsConnected() {
		t.Fatal("two components reported connected")
	}
	if NewSystem(0).IsConnected() != true {
		t.Fatal("empty graph should count as connected")
	}
	if !NewSystem(1).IsConnected() {
		t.Fatal("singleton should be connected")
	}
}

func TestSystemValidate(t *testing.T) {
	if err := square().Validate(); err != nil {
		t.Fatalf("square should validate: %v", err)
	}
	s := NewSystem(3)
	s.AddLink(0, 1)
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted disconnected machine")
	}
}

func TestSystemCloneAndEqual(t *testing.T) {
	s := square()
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone differs")
	}
	c.AddLink(0, 2)
	if s.Equal(c) {
		t.Fatal("Equal missed new link")
	}
	if s.HasLink(0, 2) || s.NumLinks() != 4 {
		t.Fatal("mutating clone changed original")
	}
	if s.Equal(NewSystem(5)) {
		t.Fatal("different sizes compared equal")
	}
}

func TestClosurePropertyConnectedAndRegular(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		s := NewSystem(n)
		// Random spanning tree + noise links.
		for v := 1; v < n; v++ {
			s.AddLink(v, rng.Intn(v))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.2 {
					s.AddLink(i, j)
				}
			}
		}
		c := s.Closure()
		if c.Validate() != nil && n > 1 {
			return false
		}
		for i := 0; i < n; i++ {
			if c.Degree(i) != n-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAddLinkMatchesDenseModel drives random AddLink sequences, repeats and
// self-links included, against the paper's dense sys_edge matrix kept here
// as the reference, and checks every query and the text form against it.
func TestAddLinkMatchesDenseModel(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		s := NewSystem(n)
		model := make([][]bool, n)
		for i := range model {
			model[i] = make([]bool, n)
		}
		for step := rng.Intn(4 * n * n); step > 0; step-- {
			a, b := rng.Intn(n), rng.Intn(n)
			s.AddLink(a, b)
			if a != b {
				model[a][b], model[b][a] = true, true
			}
		}
		c := s.Clone()
		if !s.Equal(c) || !c.Equal(s) {
			return false
		}
		var want bytes.Buffer
		fmt.Fprintf(&want, "system %d\n", n)
		links := 0
		for i := 0; i < n; i++ {
			var nbrs []int
			for j := 0; j < n; j++ {
				if s.HasLink(i, j) != model[i][j] {
					return false
				}
				if model[i][j] {
					nbrs = append(nbrs, j)
					if j > i {
						links++
						fmt.Fprintf(&want, "link %d %d\n", i, j)
					}
				}
			}
			if !slices.Equal(s.Neighbors(i), nbrs) || s.Degree(i) != len(nbrs) {
				return false
			}
		}
		var got bytes.Buffer
		if err := WriteSystem(&got, s); err != nil || got.String() != want.String() {
			return false
		}
		if s.NumLinks() != links || c.NumLinks() != links {
			return false
		}
		// The clone is independent: a new link on it leaves s unchanged.
		if n > 1 && links < n*(n-1)/2 {
			a, b := 0, 1
			for model[a][b] {
				if b++; b == n {
					a++
					b = a + 1
				}
			}
			c.AddLink(a, b)
			if s.HasLink(a, b) || s.NumLinks() != links || s.Equal(c) || !c.HasLink(b, a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
