// Package topology builds the system graphs used in the paper's experiments
// — hypercubes, 2-D meshes, and random connected graphs — plus several
// further interconnection families (torus, ring, chain, star, complete
// graph, balanced binary tree) that are useful as additional test machines.
//
// Every constructor returns a validated, connected *graph.System with a
// descriptive Name.
package topology

import (
	"fmt"
	"math/rand"

	"mimdmap/internal/graph"
)

// Hypercube returns the dim-dimensional binary hypercube with 2^dim
// processors; node i links to every node differing in exactly one bit.
// It panics if dim is negative or produces more than 1<<20 nodes.
func Hypercube(dim int) *graph.System {
	if dim < 0 || dim > 20 {
		panic(fmt.Sprintf("topology: hypercube dimension %d out of range [0,20]", dim))
	}
	n := 1 << uint(dim)
	s := graph.NewSystem(n)
	s.Name = fmt.Sprintf("hypercube-%d", dim)
	for v := 0; v < n; v++ {
		for b := 0; b < dim; b++ {
			s.AddLink(v, v^(1<<uint(b)))
		}
	}
	return s
}

// Mesh returns the rows×cols 2-D mesh (grid) with 4-neighbour links and no
// wraparound. It panics on non-positive dimensions.
func Mesh(rows, cols int) *graph.System {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("topology: mesh %dx%d has non-positive dimension", rows, cols))
	}
	s := graph.NewSystem(rows * cols)
	s.Name = fmt.Sprintf("mesh-%dx%d", rows, cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				s.AddLink(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				s.AddLink(id(r, c), id(r+1, c))
			}
		}
	}
	return s
}

// Torus returns the rows×cols 2-D torus: a mesh with wraparound links in
// both dimensions. Dimensions of 1 or 2 collapse duplicate links naturally.
func Torus(rows, cols int) *graph.System {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("topology: torus %dx%d has non-positive dimension", rows, cols))
	}
	s := graph.NewSystem(rows * cols)
	s.Name = fmt.Sprintf("torus-%dx%d", rows, cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			s.AddLink(id(r, c), id(r, (c+1)%cols))
			s.AddLink(id(r, c), id((r+1)%rows, c))
		}
	}
	return s
}

// Ring returns the n-node cycle. It panics for n < 1.
func Ring(n int) *graph.System {
	if n < 1 {
		panic(fmt.Sprintf("topology: ring size %d < 1", n))
	}
	s := graph.NewSystem(n)
	s.Name = fmt.Sprintf("ring-%d", n)
	for v := 0; v < n; v++ {
		s.AddLink(v, (v+1)%n)
	}
	return s
}

// Chain returns the n-node linear array (path graph). It panics for n < 1.
func Chain(n int) *graph.System {
	if n < 1 {
		panic(fmt.Sprintf("topology: chain size %d < 1", n))
	}
	s := graph.NewSystem(n)
	s.Name = fmt.Sprintf("chain-%d", n)
	for v := 0; v+1 < n; v++ {
		s.AddLink(v, v+1)
	}
	return s
}

// Star returns the n-node star with node 0 at the centre. It panics for n < 1.
func Star(n int) *graph.System {
	if n < 1 {
		panic(fmt.Sprintf("topology: star size %d < 1", n))
	}
	s := graph.NewSystem(n)
	s.Name = fmt.Sprintf("star-%d", n)
	for v := 1; v < n; v++ {
		s.AddLink(0, v)
	}
	return s
}

// Complete returns the fully connected graph on n processors — the closure
// topology the paper uses to derive the ideal graph. It panics for n < 1.
func Complete(n int) *graph.System {
	if n < 1 {
		panic(fmt.Sprintf("topology: complete size %d < 1", n))
	}
	s := graph.NewSystem(n)
	s.Name = fmt.Sprintf("complete-%d", n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			s.AddLink(a, b)
		}
	}
	return s
}

// BinaryTree returns the balanced binary tree with n nodes in heap order:
// node v links to 2v+1 and 2v+2 when they exist. It panics for n < 1.
func BinaryTree(n int) *graph.System {
	if n < 1 {
		panic(fmt.Sprintf("topology: tree size %d < 1", n))
	}
	s := graph.NewSystem(n)
	s.Name = fmt.Sprintf("btree-%d", n)
	for v := 0; v < n; v++ {
		if l := 2*v + 1; l < n {
			s.AddLink(v, l)
		}
		if r := 2*v + 2; r < n {
			s.AddLink(v, r)
		}
	}
	return s
}

// Random returns a random connected graph on n processors, as used for the
// paper's "randomly produced topologies" (Table 3). It first builds a random
// spanning tree (guaranteeing connectivity), then adds each remaining pair
// as a link with probability extra in [0,1]. The construction is
// deterministic given rng. It panics for n < 1 or extra outside [0,1].
func Random(n int, extra float64, rng *rand.Rand) *graph.System {
	if n < 1 {
		panic(fmt.Sprintf("topology: random size %d < 1", n))
	}
	if extra < 0 || extra > 1 {
		panic(fmt.Sprintf("topology: extra-link probability %v outside [0,1]", extra))
	}
	s := graph.NewSystem(n)
	s.Name = fmt.Sprintf("random-%d", n)
	// Random spanning tree: connect each node v>0 to a uniformly random
	// earlier node over a random permutation of IDs.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		s.AddLink(perm[i], perm[rng.Intn(i)])
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !s.HasLink(a, b) && rng.Float64() < extra {
				s.AddLink(a, b)
			}
		}
	}
	return s
}

// ByName constructs a topology from a compact specification string, for the
// command-line tools:
//
//	hypercube-<dim>      e.g. hypercube-4
//	mesh-<rows>x<cols>   e.g. mesh-4x8
//	torus-<rows>x<cols>
//	ring-<n> | chain-<n> | star-<n> | complete-<n> | btree-<n>
//	random-<n>           (needs rng; extra-link probability 0.15)
//
// A spec naming more than graph.MaxTextNodes processors, or a complete or
// random machine on enough of them to exceed graph.MaxTextLinks links (the
// limits text systems share), is rejected before anything is allocated.
func ByName(spec string, rng *rand.Rand) (*graph.System, error) {
	var a, b int
	rows, cols := 1, 1 // the node count is rows×cols
	dense := false     // may link every pair of nodes
	var build func() *graph.System
	switch {
	case matchSpec(spec, "hypercube-%d", &a):
		if a < 0 || a > 20 {
			return nil, fmt.Errorf("topology: hypercube dimension %d out of range", a)
		}
		rows, build = 1<<a, func() *graph.System { return Hypercube(a) }
	case matchSpec2(spec, "mesh-%dx%d", &a, &b):
		if a <= 0 || b <= 0 {
			return nil, fmt.Errorf("topology: bad mesh %q", spec)
		}
		rows, cols, build = a, b, func() *graph.System { return Mesh(a, b) }
	case matchSpec2(spec, "torus-%dx%d", &a, &b):
		if a <= 0 || b <= 0 {
			return nil, fmt.Errorf("topology: bad torus %q", spec)
		}
		rows, cols, build = a, b, func() *graph.System { return Torus(a, b) }
	case matchSpec(spec, "ring-%d", &a):
		if a < 1 {
			return nil, fmt.Errorf("topology: bad ring %q", spec)
		}
		rows, build = a, func() *graph.System { return Ring(a) }
	case matchSpec(spec, "chain-%d", &a):
		if a < 1 {
			return nil, fmt.Errorf("topology: bad chain %q", spec)
		}
		rows, build = a, func() *graph.System { return Chain(a) }
	case matchSpec(spec, "star-%d", &a):
		if a < 1 {
			return nil, fmt.Errorf("topology: bad star %q", spec)
		}
		rows, build = a, func() *graph.System { return Star(a) }
	case matchSpec(spec, "complete-%d", &a):
		if a < 1 {
			return nil, fmt.Errorf("topology: bad complete %q", spec)
		}
		rows, dense, build = a, true, func() *graph.System { return Complete(a) }
	case matchSpec(spec, "btree-%d", &a):
		if a < 1 {
			return nil, fmt.Errorf("topology: bad btree %q", spec)
		}
		rows, build = a, func() *graph.System { return BinaryTree(a) }
	case matchSpec(spec, "ccc-%d", &a):
		if a < 1 || a > 16 {
			return nil, fmt.Errorf("topology: bad ccc %q", spec)
		}
		rows, cols, build = a, 1<<a, func() *graph.System { return CCC(a) }
	case matchSpec(spec, "debruijn-%d", &a):
		if a < 1 || a > 20 {
			return nil, fmt.Errorf("topology: bad debruijn %q", spec)
		}
		rows, build = 1<<a, func() *graph.System { return DeBruijn(a) }
	case spec == "petersen":
		build = Petersen
	case matchSpec(spec, "random-%d", &a):
		if a < 1 {
			return nil, fmt.Errorf("topology: bad random %q", spec)
		}
		if rng == nil {
			return nil, fmt.Errorf("topology: random topology %q needs a seeded RNG", spec)
		}
		rows, dense, build = a, true, func() *graph.System { return Random(a, 0.15, rng) }
	default:
		return nil, fmt.Errorf("topology: unknown specification %q", spec)
	}
	if rows > graph.MaxTextNodes/cols { // rows×cols > MaxTextNodes, without overflow
		return nil, fmt.Errorf("topology: %q has more than %d nodes", spec, graph.MaxTextNodes)
	}
	if dense && rows*(rows-1)/2 > graph.MaxTextLinks {
		return nil, fmt.Errorf("topology: %q may have more than %d links", spec, graph.MaxTextLinks)
	}
	return build(), nil
}

func matchSpec(s, format string, a *int) bool {
	n, err := fmt.Sscanf(s, format, a)
	return err == nil && n == 1 && s == fmt.Sprintf(format, *a)
}

func matchSpec2(s, format string, a, b *int) bool {
	n, err := fmt.Sscanf(s, format, a, b)
	return err == nil && n == 2 && s == fmt.Sprintf(format, *a, *b)
}
