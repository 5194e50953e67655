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
	n int
	// first[b*n+a] is the first hop on the canonical route a→b, or -1 when
	// a == b or b is unreachable from a.
	first []int
	dist  *Table
}

// NewRoutes derives canonical routes from a system graph and its distance
// table.
func NewRoutes(s *graph.System, t *Table) *Routes {
	n := s.NumNodes()
	r := &Routes{n: n, first: square(n, -1), dist: t}
	for b := 0; b < n; b++ {
		for a := 0; a < n; a++ {
			d := t.At(a, b)
			if a == b || d == Unreachable {
				continue
			}
			for _, v := range s.Neighbors(a) {
				if t.At(v, b) == d-1 {
					r.first[b*n+a] = v
					break
				}
			}
		}
	}
	return r
}

// next returns the first hop on the canonical route a→b, or -1 when a == b
// or b is unreachable from a.
func (r *Routes) next(a, b int) int { return r.first[b*r.n+a] }

// Path returns the canonical node sequence from a to b, inclusive of both
// endpoints; Path(a, a) is [a]. It returns nil when b is unreachable.
func (r *Routes) Path(a, b int) []int {
	if a == b {
		return []int{a}
	}
	if r.next(a, b) == -1 {
		return nil
	}
	path := []int{a}
	for v := a; v != b; {
		v = r.next(v, b)
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
	for i := 0; i+1 < len(path); i++ {
		links = append(links, LinkID(path[i], path[i+1], r.n))
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
			case r.dist.At(a, b) == Unreachable:
				if path != nil {
					return fmt.Errorf("paths: route exists for unreachable pair %d→%d", a, b)
				}
			default:
				if len(path)-1 != r.dist.At(a, b) {
					return fmt.Errorf("paths: route %d→%d has %d hops, want %d", a, b, len(path)-1, r.dist.At(a, b))
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
