package gen

import (
	"fmt"
	"math/rand"

	"mimdmap/internal/cluster"
	"mimdmap/internal/graph"
)

// Structured workload families. Each returns a validated problem DAG with
// the given uniform task size and communication weight; these model the
// regular parallel programs — pipelines, reductions, transforms, solvers —
// that motivate static task mapping.

// Pipeline returns a linear chain of stages tasks:
// 0 → 1 → … → stages-1.
func Pipeline(stages, taskSize, commWeight int) (*graph.Problem, error) {
	if stages <= 0 {
		return nil, fmt.Errorf("gen: pipeline needs stages > 0, got %d", stages)
	}
	if err := checkWeights(taskSize, commWeight); err != nil {
		return nil, err
	}
	p := graph.NewProblem(stages)
	for i := range p.Size {
		p.Size[i] = taskSize
	}
	for i := 0; i+1 < stages; i++ {
		p.SetEdge(i, i+1, commWeight)
	}
	return p, nil
}

// ForkJoin returns a fork-join DAG: a source task fans out to width parallel
// workers per stage, which join into a barrier task, repeated stages times.
// Total tasks: stages*(width+1) + 1.
func ForkJoin(stages, width, taskSize, commWeight int) (*graph.Problem, error) {
	if stages <= 0 || width <= 0 {
		return nil, fmt.Errorf("gen: fork-join needs positive stages and width, got %d×%d", stages, width)
	}
	if err := checkWeights(taskSize, commWeight); err != nil {
		return nil, err
	}
	n := stages*(width+1) + 1
	p := graph.NewProblem(n)
	for i := range p.Size {
		p.Size[i] = taskSize
	}
	// Task layout: join(s) at s*(width+1); workers of stage s at
	// s*(width+1)+1 … s*(width+1)+width; join(s+1) follows.
	for s := 0; s < stages; s++ {
		join := s * (width + 1)
		next := (s + 1) * (width + 1)
		for w := 1; w <= width; w++ {
			p.SetEdge(join, join+w, commWeight)
			p.SetEdge(join+w, next, commWeight)
		}
	}
	return p, nil
}

// Butterfly returns the FFT butterfly DAG on 2^logN points: logN+1 ranks of
// 2^logN tasks; task (r+1,i) depends on (r,i) and (r,i XOR 2^r).
func Butterfly(logN, taskSize, commWeight int) (*graph.Problem, error) {
	if logN < 1 || logN > 16 {
		return nil, fmt.Errorf("gen: butterfly needs logN in [1,16], got %d", logN)
	}
	if err := checkWeights(taskSize, commWeight); err != nil {
		return nil, err
	}
	points := 1 << uint(logN)
	n := (logN + 1) * points
	p := graph.NewProblem(n)
	for i := range p.Size {
		p.Size[i] = taskSize
	}
	id := func(rank, i int) int { return rank*points + i }
	for r := 0; r < logN; r++ {
		for i := 0; i < points; i++ {
			p.SetEdge(id(r, i), id(r+1, i), commWeight)
			p.SetEdge(id(r, i), id(r+1, i^(1<<uint(r))), commWeight)
		}
	}
	return p, nil
}

// GaussianElimination returns the task DAG of column-oriented Gaussian
// elimination on an n×n matrix (ref [11] of the paper): pivot task P(k)
// followed by update tasks U(k,j) for j>k; U(k,j) depends on P(k) and on
// U(k-1,j); P(k) depends on U(k-1,k). Pivot tasks get pivotSize, updates
// updateSize.
func GaussianElimination(n, pivotSize, updateSize, commWeight int) (*graph.Problem, error) {
	if n < 2 {
		return nil, fmt.Errorf("gen: gaussian elimination needs n ≥ 2, got %d", n)
	}
	if pivotSize <= 0 || updateSize <= 0 || commWeight <= 0 {
		return nil, fmt.Errorf("gen: gaussian elimination needs positive weights")
	}
	// Task numbering: for each k in [0,n-1): pivot P(k), then updates
	// U(k,j) for j in (k, n).
	idx := make(map[[2]int]int)
	total := 0
	for k := 0; k+1 < n; k++ {
		idx[[2]int{k, k}] = total // pivot stored as (k,k)
		total++
		for j := k + 1; j < n; j++ {
			idx[[2]int{k, j}] = total
			total++
		}
	}
	p := graph.NewProblem(total)
	for k := 0; k+1 < n; k++ {
		p.Size[idx[[2]int{k, k}]] = pivotSize
		for j := k + 1; j < n; j++ {
			p.Size[idx[[2]int{k, j}]] = updateSize
		}
	}
	for k := 0; k+1 < n; k++ {
		pk := idx[[2]int{k, k}]
		for j := k + 1; j < n; j++ {
			ukj := idx[[2]int{k, j}]
			p.SetEdge(pk, ukj, commWeight)
			if k > 0 {
				p.SetEdge(idx[[2]int{k - 1, j}], ukj, commWeight)
			}
		}
		if k > 0 {
			p.SetEdge(idx[[2]int{k - 1, k}], pk, commWeight)
		}
	}
	return p, nil
}

// Wavefront returns the 2-D wavefront (stencil sweep) DAG on a rows×cols
// grid: task (i,j) depends on (i-1,j) and (i,j-1).
func Wavefront(rows, cols, taskSize, commWeight int) (*graph.Problem, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("gen: wavefront needs positive grid, got %d×%d", rows, cols)
	}
	if err := checkWeights(taskSize, commWeight); err != nil {
		return nil, err
	}
	p := graph.NewProblem(rows * cols)
	for i := range p.Size {
		p.Size[i] = taskSize
	}
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r > 0 {
				p.SetEdge(id(r-1, c), id(r, c), commWeight)
			}
			if c > 0 {
				p.SetEdge(id(r, c-1), id(r, c), commWeight)
			}
		}
	}
	return p, nil
}

// DivideConquer returns a divide-and-conquer DAG of the given depth: a
// complete binary out-tree (divide) glued to a mirrored in-tree (combine).
// Tasks: 2^(depth+1)-1 divide nodes + 2^depth … combine nodes; leaves are
// shared. depth 0 yields a single task.
func DivideConquer(depth, taskSize, commWeight int) (*graph.Problem, error) {
	if depth < 0 || depth > 16 {
		return nil, fmt.Errorf("gen: divide-and-conquer depth %d outside [0,16]", depth)
	}
	if err := checkWeights(taskSize, commWeight); err != nil {
		return nil, err
	}
	divide := 1<<uint(depth+1) - 1 // complete binary tree nodes
	combine := divide - (1 << uint(depth))
	n := divide + combine
	p := graph.NewProblem(n)
	for i := range p.Size {
		p.Size[i] = taskSize
	}
	// Divide phase: heap-ordered tree 0..divide-1, edges v → 2v+1, 2v+2.
	for v := 0; v < divide; v++ {
		if l := 2*v + 1; l < divide {
			p.SetEdge(v, l, commWeight)
			p.SetEdge(v, 2*v+2, commWeight)
		}
	}
	// Combine phase: mirrored tree. Combine node c (0-based, heap order,
	// same shape as the divide tree minus its leaf level) is task divide+c.
	// Leaves of the divide tree feed the lowest combine level; combine
	// children feed their parents (reversed edges).
	comb := func(c int) int { return divide + c }
	for c := 0; c < combine; c++ {
		l, r := 2*c+1, 2*c+2
		if l < combine {
			p.SetEdge(comb(l), comb(c), commWeight)
			p.SetEdge(comb(r), comb(c), commWeight)
		} else {
			// Children are divide-tree leaves: combine node c mirrors
			// divide node c, whose children are divide nodes 2c+1, 2c+2.
			p.SetEdge(2*c+1, comb(c), commWeight)
			p.SetEdge(2*c+2, comb(c), commWeight)
		}
	}
	return p, nil
}

func checkWeights(taskSize, commWeight int) error {
	if taskSize <= 0 {
		return fmt.Errorf("gen: task size must be positive, got %d", taskSize)
	}
	if commWeight <= 0 {
		return fmt.Errorf("gen: communication weight must be positive, got %d", commWeight)
	}
	return nil
}

// TableInstance generates one Table 1–3 style benchmark workload for a
// machine (§5 of the paper): a connected random DAG with the tables'
// default density and weights (edge factor 3, task sizes [1,20], edge
// weights [1,5]), sized np = 4·ns clamped to the paper's [30,300] range,
// randomly clustered onto the machine's ns processors. Deterministic for a
// seed; the refinement-kernel and refiner benchmarks in internal/schedule
// and internal/search draw their workloads from it.
func TableInstance(ns int, seed int64) (*graph.Problem, *graph.Clustering, error) {
	rng := rand.New(rand.NewSource(seed))
	np := 4 * ns
	if np < 30 {
		np = 30
	}
	if np > 300 {
		np = 300
	}
	prob, err := Random(RandomConfig{
		Tasks:         np,
		EdgeProb:      3.0 / float64(np),
		MinTaskSize:   1,
		MaxTaskSize:   20,
		MinEdgeWeight: 1,
		MaxEdgeWeight: 5,
		Connected:     true,
	}, rng)
	if err != nil {
		return nil, nil, err
	}
	clus, err := (&cluster.Random{Rand: rng}).Cluster(prob, ns)
	if err != nil {
		return nil, nil, err
	}
	return prob, clus, nil
}
