package graph

import (
	"fmt"
	"slices"
)

// System is a system graph Gs: the undirected interconnection topology of a
// MIMD machine with ns homogeneous processing elements. The paper describes
// it by the dense boolean matrix sys_edge; System stores the same relation
// as sorted neighbour lists, which is what every consumer walks.
type System struct {
	// Name is an optional human-readable topology label such as
	// "hypercube-4" or "mesh-3x4"; it does not affect any algorithm.
	Name string

	// adj[i] lists the neighbours of processor i in ascending order, with
	// no self-links or repeats; j ∈ adj[i] ⇔ i ∈ adj[j]. links counts the
	// undirected links. AddLink is the only mutator.
	adj   [][]int
	links int

	// fp memoizes Fingerprint; see the freeze-point contract in
	// fingerprint.go. It also makes System no-copy (vet: copylocks).
	fp fpMemo
}

// NewSystem returns a system graph with n processors and no links.
func NewSystem(n int) *System { return &System{adj: make([][]int, n)} }

// NumNodes returns ns, the number of processors.
func (s *System) NumNodes() int { return len(s.adj) }

// AddLink records the bidirectional link a—b, inserting each endpoint in
// the other's neighbour list at its sorted position (O(degree)). Self-links
// and repeats are ignored. It panics if a or b is out of range. Like every
// structural change it must precede the first Fingerprint (fingerprint.go).
func (s *System) AddLink(a, b int) {
	if a == b {
		return
	}
	i, found := slices.BinarySearch(s.adj[a], b)
	if found {
		return
	}
	j, _ := slices.BinarySearch(s.adj[b], a)
	s.adj[a] = slices.Insert(s.adj[a], i, b)
	s.adj[b] = slices.Insert(s.adj[b], j, a)
	s.links++
}

// HasLink reports whether processors a and b are directly connected.
func (s *System) HasLink(a, b int) bool {
	_, found := slices.BinarySearch(s.adj[a], b)
	return found
}

// Degree returns the number of direct neighbours of processor i
// (matrix deg of the paper).
func (s *System) Degree(i int) int { return len(s.adj[i]) }

// Degrees returns the degree of every processor.
func (s *System) Degrees() []int {
	deg := make([]int, s.NumNodes())
	for i := range deg {
		deg[i] = s.Degree(i)
	}
	return deg
}

// NumLinks returns the number of undirected links.
func (s *System) NumLinks() int { return s.links }

// Neighbors returns the direct neighbours of processor i in ascending order.
// The slice is the system's own row, shared with every caller and returned
// without allocating: it is read-only.
func (s *System) Neighbors(i int) []int { return s.adj[i] }

// Clone returns a deep copy of the system graph. The copy is not frozen.
func (s *System) Clone() *System {
	t := &System{Name: s.Name, adj: make([][]int, len(s.adj)), links: s.links}
	cells := make([]int, 2*s.links)
	for i, row := range s.adj {
		t.adj[i], cells = cells[:len(row):len(row)], cells[len(row):]
		copy(t.adj[i], row)
	}
	return t
}

// Closure returns the system graph closure: the fully connected graph on the
// same processors (Fig. 5-b of the paper). Mapping onto the closure yields
// the ideal graph and the lower bound on total time.
func (s *System) Closure() *System {
	n := s.NumNodes()
	c := NewSystem(n)
	c.Name = s.Name + "-closure"
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c.AddLink(i, j)
		}
	}
	return c
}

// IsConnected reports whether every processor can reach every other
// processor. The empty graph and the single-node graph are connected.
func (s *System) IsConnected() bool {
	n := s.NumNodes()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, j := range s.adj[v] {
			if !seen[j] {
				seen[j] = true
				count++
				stack = append(stack, j)
			}
		}
	}
	return count == n
}

// Validate checks that the machine is connected: a disconnected machine
// cannot host a communicating program. The neighbour lists cannot express
// a self-link or an asymmetric link, so there is nothing else to check.
func (s *System) Validate() error {
	if !s.IsConnected() {
		return fmt.Errorf("graph: system graph %q is not connected", s.Name)
	}
	return nil
}

// Equal reports whether two system graphs have identical links (names are
// ignored).
func (s *System) Equal(t *System) bool {
	if s.NumNodes() != t.NumNodes() || s.links != t.links {
		return false
	}
	for i, row := range s.adj {
		if !slices.Equal(row, t.adj[i]) {
			return false
		}
	}
	return true
}
