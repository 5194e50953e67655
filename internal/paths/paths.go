package paths

import (
	"fmt"

	"mimdmap/internal/graph"
)

// Unreachable is the distance reported between processors with no connecting
// route. Validated system graphs are connected, so it only appears when
// analysing a system that was never validated.
const Unreachable = int(^uint(0) >> 1) // max int

// Table is the all-pairs shortest path matrix of a system graph.
type Table struct {
	// Dist[a][b] is the minimum number of links on a route a→b;
	// Dist[a][a] == 0.
	Dist [][]int
}

// New computes the shortest-path table of s by BFS from every node over its
// neighbour lists, so each BFS visits every node and link once.
// Complexity O(ns·(ns+links)).
func New(s *graph.System) *Table {
	n := s.NumNodes()
	t := &Table{Dist: make([][]int, n)}
	cells := make([]int, n*n)
	for i := range t.Dist {
		t.Dist[i], cells = cells[:n:n], cells[n:]
	}
	queue := make([]int, 0, n)
	for src := 0; src < n; src++ {
		row := t.Dist[src]
		for j := range row {
			row[j] = Unreachable
		}
		row[src] = 0
		queue = queue[:0]
		queue = append(queue, src)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range s.Neighbors(v) {
				if row[w] == Unreachable {
					row[w] = row[v] + 1
					queue = append(queue, w)
				}
			}
		}
	}
	return t
}

// FloydWarshall computes the same table with the O(ns³) Floyd–Warshall
// recurrence. It exists as an independent oracle for tests.
func FloydWarshall(s *graph.System) *Table {
	n := s.NumNodes()
	t := &Table{Dist: make([][]int, n)}
	cells := make([]int, n*n)
	for i := range t.Dist {
		t.Dist[i], cells = cells[:n:n], cells[n:]
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			t.Dist[i][j] = Unreachable
		}
		t.Dist[i][i] = 0
		for _, j := range s.Neighbors(i) {
			t.Dist[i][j] = 1
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := t.Dist[i][k]
			if dik == Unreachable {
				continue
			}
			for j := 0; j < n; j++ {
				if t.Dist[k][j] == Unreachable {
					continue
				}
				if d := dik + t.Dist[k][j]; d < t.Dist[i][j] {
					t.Dist[i][j] = d
				}
			}
		}
	}
	return t
}

// NumNodes returns the number of processors covered by the table.
func (t *Table) NumNodes() int { return len(t.Dist) }

// At returns the shortest distance between processors a and b.
func (t *Table) At(a, b int) int { return t.Dist[a][b] }

// Diameter returns the largest finite distance in the table, or Unreachable
// if some pair is disconnected.
func (t *Table) Diameter() int {
	d := 0
	for i := range t.Dist {
		for j := range t.Dist[i] {
			if t.Dist[i][j] == Unreachable {
				return Unreachable
			}
			if t.Dist[i][j] > d {
				d = t.Dist[i][j]
			}
		}
	}
	return d
}

// Eccentricity returns the largest distance from node v to any other node.
func (t *Table) Eccentricity(v int) int {
	e := 0
	for _, d := range t.Dist[v] {
		if d > e {
			e = d
		}
	}
	return e
}

// MeanDistance returns the average distance over all ordered pairs of
// distinct nodes. It panics if the table covers fewer than two nodes or any
// pair is unreachable.
func (t *Table) MeanDistance() float64 {
	n := t.NumNodes()
	if n < 2 {
		panic("paths: mean distance needs at least two nodes")
	}
	sum := 0
	for i := range t.Dist {
		for j := range t.Dist[i] {
			if i == j {
				continue
			}
			if t.Dist[i][j] == Unreachable {
				panic("paths: mean distance over disconnected graph")
			}
			sum += t.Dist[i][j]
		}
	}
	return float64(sum) / float64(n*(n-1))
}

// Validate checks the metric-space invariants of the table against the
// system graph it was computed from: zero diagonal, symmetry, distance 1
// exactly on links, and the triangle inequality.
func (t *Table) Validate(s *graph.System) error {
	n := t.NumNodes()
	if n != s.NumNodes() {
		return fmt.Errorf("paths: table covers %d nodes, system has %d", n, s.NumNodes())
	}
	for i := 0; i < n; i++ {
		if t.Dist[i][i] != 0 {
			return fmt.Errorf("paths: Dist[%d][%d] = %d, want 0", i, i, t.Dist[i][i])
		}
		for j := 0; j < n; j++ {
			if t.Dist[i][j] != t.Dist[j][i] {
				return fmt.Errorf("paths: asymmetric distance %d—%d", i, j)
			}
			if t.Dist[i][j] != 1 && s.HasLink(i, j) {
				return fmt.Errorf("paths: linked pair %d—%d at distance %d", i, j, t.Dist[i][j])
			}
			if i != j && t.Dist[i][j] == 0 {
				return fmt.Errorf("paths: distinct pair %d—%d at distance 0", i, j)
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if t.Dist[i][k] == Unreachable || t.Dist[k][j] == Unreachable {
					continue
				}
				if t.Dist[i][j] > t.Dist[i][k]+t.Dist[k][j] {
					return fmt.Errorf("paths: triangle inequality violated at (%d,%d,%d)", i, k, j)
				}
			}
		}
	}
	return nil
}
