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
	n int
	// delay[a*n+b] is the per-weight-unit cost of link a—b (symmetric,
	// ≥ 1); entries for non-links are ignored.
	delay []int
}

// NewLinkDelays returns unit delays for an n-node machine.
func NewLinkDelays(n int) *LinkDelays { return &LinkDelays{n: n, delay: square(n, 1)} }

// NumNodes returns the number of processors the delays cover.
func (d *LinkDelays) NumNodes() int { return d.n }

// Set records the symmetric delay of link a—b. It is the only writer, so
// delays are symmetric by construction.
func (d *LinkDelays) Set(a, b, delay int) {
	d.delay[a*d.n+b] = delay
	d.delay[b*d.n+a] = delay
}

// At returns the delay of link a—b.
func (d *LinkDelays) At(a, b int) int { return d.delay[a*d.n+b] }

// Validate checks the delays against a machine: they cover its nodes and
// are ≥ 1 on every existing link.
func (d *LinkDelays) Validate(s *graph.System) error {
	n := s.NumNodes()
	if d.n != n {
		return fmt.Errorf("paths: delays cover %d nodes, machine has %d", d.n, n)
	}
	for a := 0; a < n; a++ {
		for _, b := range s.Neighbors(a) {
			if d.At(a, b) < 1 {
				return fmt.Errorf("paths: link %d—%d has delay %d, want ≥ 1", a, b, d.At(a, b))
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
// under the given link delays, by Dijkstra from every node. Links and
// their delays are undirected, so the search outward from a destination
// finds every processor's distance into it. With unit delays it equals
// New(s). It rejects delays under which a distance would not fit the
// table's int32 cells.
func NewWeighted(s *graph.System, delays *LinkDelays) (*Table, error) {
	if err := delays.Validate(s); err != nil {
		return nil, err
	}
	n := s.NumNodes()
	t := newTable(n)
	into := make([]int, n) // distances into one destination, before narrowing
	for to := 0; to < n; to++ {
		for v := range into {
			into[v] = Unreachable
		}
		into[to] = 0
		q := dijkstraQueue{{to, 0}}
		for q.Len() > 0 {
			it := heap.Pop(&q).(dijkstraItem)
			if it.dist > into[it.node] {
				continue // stale entry
			}
			for _, v := range s.Neighbors(it.node) {
				if nd := it.dist + delays.At(v, it.node); nd < into[v] {
					into[v] = nd
					heap.Push(&q, dijkstraItem{v, nd})
				}
			}
		}
		cells := t.d[to*n : to*n+n]
		for v, d := range into {
			switch {
			case d == Unreachable:
			case d >= unreachableCell:
				return nil, fmt.Errorf("paths: weighted distance %d→%d is %d, beyond the table's limit %d", v, to, d, unreachableCell-1)
			default:
				cells[v] = int32(d)
			}
		}
	}
	return t, nil
}
