package paths

import (
	"fmt"

	"mimdmap/internal/graph"
)

// Routes holds deterministic shortest-path routing for a system graph:
// every (source, destination) pair is assigned one canonical shortest path
// (always taking the lowest-numbered neighbour that stays on a shortest
// route). The link-contention evaluator uses these fixed routes, the way a
// 1991 message-passing machine with oblivious routing would.
type Routes struct {
	// Next[a][b] is the first hop on the canonical route a→b, or -1 when
	// a == b or b is unreachable from a.
	Next [][]int
	dist *Table
}

// NewRoutes derives canonical routes from a system graph and its distance
// table.
func NewRoutes(s *graph.System, t *Table) *Routes {
	n := s.NumNodes()
	r := &Routes{Next: make([][]int, n), dist: t}
	cells := make([]int, n*n)
	for i := range r.Next {
		r.Next[i], cells = cells[:n:n], cells[n:]
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			r.Next[a][b] = -1
			if a == b || t.Dist[a][b] == Unreachable {
				continue
			}
			for _, v := range s.Neighbors(a) {
				if t.Dist[v][b] == t.Dist[a][b]-1 {
					r.Next[a][b] = v
					break
				}
			}
		}
	}
	return r
}

// Path returns the canonical node sequence from a to b, inclusive of both
// endpoints; Path(a, a) is [a]. It returns nil when b is unreachable.
func (r *Routes) Path(a, b int) []int {
	if a == b {
		return []int{a}
	}
	if r.Next[a][b] == -1 {
		return nil
	}
	path := []int{a}
	for v := a; v != b; {
		v = r.Next[v][b]
		path = append(path, v)
	}
	return path
}

// Links returns the canonical route as a sequence of canonical link IDs
// (see LinkID). It returns nil for a == b or unreachable pairs.
func (r *Routes) Links(a, b int) []int {
	path := r.Path(a, b)
	if len(path) < 2 {
		return nil
	}
	links := make([]int, 0, len(path)-1)
	n := len(r.Next)
	for i := 0; i+1 < len(path); i++ {
		links = append(links, LinkID(path[i], path[i+1], n))
	}
	return links
}

// LinkID maps an undirected link {a,b} of an n-node machine to a canonical
// integer, treating both directions as the same shared resource.
func LinkID(a, b, n int) int {
	if a > b {
		a, b = b, a
	}
	return a*n + b
}

// Validate checks that every canonical route exists exactly where the
// distance table says it should, walks only real links, and has length
// equal to the shortest distance.
func (r *Routes) Validate(s *graph.System) error {
	n := s.NumNodes()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			path := r.Path(a, b)
			switch {
			case a == b:
				if len(path) != 1 {
					return fmt.Errorf("paths: route %d→%d should be trivial", a, b)
				}
			case r.dist.Dist[a][b] == Unreachable:
				if path != nil {
					return fmt.Errorf("paths: route exists for unreachable pair %d→%d", a, b)
				}
			default:
				if len(path)-1 != r.dist.Dist[a][b] {
					return fmt.Errorf("paths: route %d→%d has %d hops, want %d", a, b, len(path)-1, r.dist.Dist[a][b])
				}
				for i := 0; i+1 < len(path); i++ {
					if !s.HasLink(path[i], path[i+1]) {
						return fmt.Errorf("paths: route %d→%d uses missing link %d—%d", a, b, path[i], path[i+1])
					}
				}
			}
		}
	}
	return nil
}
