package paths

import (
	"fmt"
	"math"

	"mimdmap/internal/graph"
)

// Unreachable is the distance reported between processors with no connecting
// route. Validated system graphs are connected, so it only appears when
// analysing a system that was never validated.
const Unreachable = int(^uint(0) >> 1) // max int

// unreachableCell is how an Unreachable distance is stored in a table's
// int32 cells (Table.ToMajor); At reports it as Unreachable.
const unreachableCell = math.MaxInt32

// Table is the all-pairs shortest path matrix of a system graph.
type Table struct {
	n int
	// d[to*n+from] is the minimum number of links on a route from→to; the
	// diagonal is 0. To-major order keeps the distances from every
	// processor into one destination contiguous, which is the order the
	// evaluator reads them in. Cells are int32, half the memory of int
	// cells: every finite distance is below unreachableCell.
	d []int32
}

// square returns the n×n cells of a pairwise table, every one set to fill.
// It is the one allocation behind Routes and LinkDelays.
func square(n, fill int) []int {
	cells := make([]int, n*n)
	for i := range cells {
		cells[i] = fill
	}
	return cells
}

// newTable returns an n-node table with every pair Unreachable.
func newTable(n int) *Table {
	cells := make([]int32, n*n)
	for i := range cells {
		cells[i] = unreachableCell
	}
	return &Table{n: n, d: cells}
}

// New computes the shortest-path table of s by BFS from every node over its
// neighbour lists, so each BFS visits every node and link once. Links are
// undirected, so the search outward from a destination finds every
// processor's distance into it and fills one contiguous to-row.
// Complexity O(ns·(ns+links)).
func New(s *graph.System) *Table {
	n := s.NumNodes()
	t := newTable(n)
	queue := make([]int, 0, n)
	for to := 0; to < n; to++ {
		into := t.d[to*n : to*n+n]
		into[to] = 0
		queue = append(queue[:0], to)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range s.Neighbors(v) {
				if into[w] == unreachableCell {
					into[w] = into[v] + 1
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
	t := newTable(n)
	set := func(from, to, d int) { t.d[to*n+from] = int32(d) }
	for i := 0; i < n; i++ {
		set(i, i, 0)
		for _, j := range s.Neighbors(i) {
			set(i, j, 1)
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := t.At(i, k)
			if dik == Unreachable {
				continue
			}
			for j := 0; j < n; j++ {
				if t.At(k, j) == Unreachable {
					continue
				}
				if d := dik + t.At(k, j); d < t.At(i, j) {
					set(i, j, d)
				}
			}
		}
	}
	return t
}

// NumNodes returns the number of processors covered by the table.
func (t *Table) NumNodes() int { return t.n }

// At returns the shortest distance from processor from to processor to.
func (t *Table) At(from, to int) int {
	if d := t.d[to*t.n+from]; d != unreachableCell {
		return int(d)
	}
	return Unreachable
}

// ToMajor returns the table's cells in to-major order,
// ToMajor()[to*n+from] == At(from, to) for every reachable pair, and
// math.MaxInt32 for the others, for hot loops that index distances
// directly. The slice is the table's own storage, shared with every caller
// and returned without allocating: it is read-only.
func (t *Table) ToMajor() []int32 { return t.d }

// Diameter returns the largest finite distance in the table, or Unreachable
// if some pair is disconnected.
func (t *Table) Diameter() int {
	d := 0
	for _, x := range t.d {
		if x == unreachableCell {
			return Unreachable
		}
		if int(x) > d {
			d = int(x)
		}
	}
	return d
}

// Eccentricity returns the largest distance from node v to any other node.
func (t *Table) Eccentricity(v int) int {
	e := 0
	for to := 0; to < t.n; to++ {
		if d := t.At(v, to); d > e {
			e = d
		}
	}
	return e
}

// MeanDistance returns the average distance over all ordered pairs of
// distinct nodes. It panics if the table covers fewer than two nodes or any
// pair is unreachable.
func (t *Table) MeanDistance() float64 {
	n := t.n
	if n < 2 {
		panic("paths: mean distance needs at least two nodes")
	}
	sum := 0
	for _, d := range t.d {
		if d == unreachableCell {
			panic("paths: mean distance over disconnected graph")
		}
		sum += int(d) // the diagonal adds 0
	}
	return float64(sum) / float64(n*(n-1))
}

// Validate checks that the table is exactly the hop-count table of the
// system graph: it is symmetric, d(a,a) = 0, and for a ≠ b
// d(a,b) = 1 + min over neighbours v of a of d(v,b), or Unreachable when no
// neighbour of a reaches b. Only the true shortest-path table satisfies
// this recurrence, so a wrong distance anywhere — on a link or not — is
// reported. Complexity O(ns·(ns+links)).
func (t *Table) Validate(s *graph.System) error {
	n := t.n
	if n != s.NumNodes() {
		return fmt.Errorf("paths: table covers %d nodes, system has %d", n, s.NumNodes())
	}
	for b := 0; b < n; b++ {
		for a := 0; a < n; a++ {
			d := t.At(a, b)
			if d != t.At(b, a) {
				return fmt.Errorf("paths: asymmetric distance %d—%d", a, b)
			}
			want := 0
			if a != b {
				want = Unreachable
				for _, v := range s.Neighbors(a) {
					if dv := t.At(v, b); dv != Unreachable && dv+1 < want {
						want = dv + 1
					}
				}
			}
			if d != want {
				return fmt.Errorf("paths: distance %d→%d is %d, want %d", a, b, d, want)
			}
		}
	}
	return nil
}
