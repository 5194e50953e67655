package paths

import (
	"container/heap"
	"fmt"

	"mimdmap/internal/graph"
)

// Weighted distances — an extension beyond the paper, which assumes every
// link costs one time unit per weight unit. Real interconnects have slower
// and faster links (off-board vs on-board, serial vs parallel); assigning
// each link an integer delay factor ≥ 1 and running Dijkstra yields a
// distance table that plugs into the unchanged evaluator and mapper: a
// message of weight w between processors at weighted distance d still costs
// w·d. All delays ≥ 1 keep the ideal graph (closure, distance 1) a valid
// lower bound.

// LinkDelays assigns every link of a machine an integer delay factor.
type LinkDelays struct {
	// Delay[a][b] is the per-weight-unit cost of link a—b (symmetric,
	// ≥ 1); entries for non-links are ignored.
	Delay [][]int
}

// NewLinkDelays returns unit delays for an n-node machine.
func NewLinkDelays(n int) *LinkDelays {
	d := &LinkDelays{Delay: make([][]int, n)}
	cells := make([]int, n*n)
	for i := range d.Delay {
		d.Delay[i], cells = cells[:n:n], cells[n:]
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			d.Delay[a][b] = 1
		}
	}
	return d
}

// Set records the symmetric delay of link a—b.
func (d *LinkDelays) Set(a, b, delay int) {
	d.Delay[a][b] = delay
	d.Delay[b][a] = delay
}

// Validate checks the delays against a machine: square, symmetric, and ≥ 1
// on every existing link.
func (d *LinkDelays) Validate(s *graph.System) error {
	n := s.NumNodes()
	if len(d.Delay) != n {
		return fmt.Errorf("paths: delays cover %d nodes, machine has %d", len(d.Delay), n)
	}
	for a := 0; a < n; a++ {
		if len(d.Delay[a]) != n {
			return fmt.Errorf("paths: delay row %d has %d columns, want %d", a, len(d.Delay[a]), n)
		}
		for _, b := range s.Neighbors(a) {
			if d.Delay[a][b] < 1 {
				return fmt.Errorf("paths: link %d—%d has delay %d, want ≥ 1", a, b, d.Delay[a][b])
			}
			if d.Delay[a][b] != d.Delay[b][a] {
				return fmt.Errorf("paths: asymmetric delay on link %d—%d", a, b)
			}
		}
	}
	return nil
}

// dijkstraItem is a priority-queue entry.
type dijkstraItem struct {
	node, dist int
}

type dijkstraQueue []dijkstraItem

func (q dijkstraQueue) Len() int { return len(q) }
func (q dijkstraQueue) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].node < q[j].node
}
func (q dijkstraQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *dijkstraQueue) Push(x any)   { *q = append(*q, x.(dijkstraItem)) }
func (q *dijkstraQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// NewWeighted computes the all-pairs weighted shortest-path table of s
// under the given link delays, by Dijkstra from every node. With unit
// delays it equals New(s).
func NewWeighted(s *graph.System, delays *LinkDelays) (*Table, error) {
	if err := delays.Validate(s); err != nil {
		return nil, err
	}
	n := s.NumNodes()
	t := &Table{Dist: make([][]int, n)}
	cells := make([]int, n*n)
	for i := range t.Dist {
		t.Dist[i], cells = cells[:n:n], cells[n:]
	}
	for src := 0; src < n; src++ {
		row := t.Dist[src]
		for i := range row {
			row[i] = Unreachable
		}
		row[src] = 0
		q := dijkstraQueue{{src, 0}}
		for q.Len() > 0 {
			it := heap.Pop(&q).(dijkstraItem)
			if it.dist > row[it.node] {
				continue // stale entry
			}
			for _, v := range s.Neighbors(it.node) {
				if nd := it.dist + delays.Delay[it.node][v]; nd < row[v] {
					row[v] = nd
					heap.Push(&q, dijkstraItem{v, nd})
				}
			}
		}
	}
	return t, nil
}
