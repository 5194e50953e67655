package gen

import (
	"fmt"
	"math/rand"
	"slices"

	"mimdmap/internal/graph"
)

// The perturbation generator. Online-remapping traffic is near-identical
// requests — evolving instances, not fresh ones — and testing a warm-start
// path needs a controlled way to produce them: Perturb applies seeded,
// deterministic structural mutations to a (Problem, System) instance,
// following the same index-aligned identity convention graph.Diff matches
// instances by (growth appends IDs, shrinkage drops them from the tail).
// Same instance + same spec + same seed ⇒ byte-identical mutant, so
// perturbed corpora regenerate bit-for-bit in tests and benchmarks.

// Instance pairs one problem DAG with the machine it maps onto — the unit
// the delta layer diffs and the remapping service warm-starts across.
type Instance struct {
	Problem *graph.Problem
	System  *graph.System
}

// PerturbSpec selects the structural mutations Perturb applies. The zero
// value mutates nothing (Perturb then returns a plain deep copy).
type PerturbSpec struct {
	// GrowTasks appends this many tasks to the problem graph; each new
	// task draws a size from the task-size range and 1..MaxNewEdges
	// precedence edges from distinct existing tasks (appended tasks sit at
	// the end of every topological order, so the graph stays a DAG).
	GrowTasks int
	// ShrinkTasks removes this many tasks from the top of the ID range,
	// with every edge touching them. At least one task must survive.
	ShrinkTasks int
	// ResizeTasks is the fraction of surviving tasks whose execution time
	// is re-drawn from the task-size range. Must be in [0,1].
	ResizeTasks float64
	// ReweightEdges is the fraction of surviving edges whose communication
	// weight is re-drawn from the edge-weight range. Must be in [0,1].
	ReweightEdges float64
	// AddProcs appends this many processors to the system graph, each
	// linked to one or two distinct existing processors.
	AddProcs int
	// DropProcs removes this many processors from the top of the ID range,
	// with every link touching them. At least two processors must survive;
	// if the loss disconnects the machine, each stranded component is
	// deterministically re-linked to processor 0 (a mapping service must
	// hand refiners a valid machine, and graph.System rejects disconnected
	// ones).
	DropProcs int
	// MinTaskSize and MaxTaskSize bound grown and resized task weights
	// (inclusive). Zero values default to the Table 1–3 range [1,20].
	MinTaskSize, MaxTaskSize int
	// MinEdgeWeight and MaxEdgeWeight bound new and re-drawn communication
	// weights (inclusive). Zero values default to the Table 1–3 range
	// [1,5].
	MinEdgeWeight, MaxEdgeWeight int
	// MaxNewEdges bounds how many predecessors each grown task receives
	// (0 = 3).
	MaxNewEdges int
}

func (sp *PerturbSpec) defaults() error {
	if sp.GrowTasks < 0 || sp.ShrinkTasks < 0 || sp.AddProcs < 0 || sp.DropProcs < 0 {
		return fmt.Errorf("gen: perturbation counts must be non-negative")
	}
	if sp.ResizeTasks < 0 || sp.ResizeTasks > 1 || sp.ReweightEdges < 0 || sp.ReweightEdges > 1 {
		return fmt.Errorf("gen: perturbation fractions must be in [0,1]")
	}
	if sp.MinTaskSize == 0 && sp.MaxTaskSize == 0 {
		sp.MinTaskSize, sp.MaxTaskSize = 1, 20
	}
	if sp.MinEdgeWeight == 0 && sp.MaxEdgeWeight == 0 {
		sp.MinEdgeWeight, sp.MaxEdgeWeight = 1, 5
	}
	if sp.MinTaskSize < 1 || sp.MaxTaskSize < sp.MinTaskSize {
		return fmt.Errorf("gen: bad perturbation task size range [%d,%d]", sp.MinTaskSize, sp.MaxTaskSize)
	}
	if sp.MinEdgeWeight < 1 || sp.MaxEdgeWeight < sp.MinEdgeWeight {
		return fmt.Errorf("gen: bad perturbation edge weight range [%d,%d]", sp.MinEdgeWeight, sp.MaxEdgeWeight)
	}
	if sp.MaxNewEdges == 0 {
		sp.MaxNewEdges = 3
	}
	if sp.MaxNewEdges < 1 {
		return fmt.Errorf("gen: MaxNewEdges must be positive, got %d", sp.MaxNewEdges)
	}
	return nil
}

// Perturb applies the spec's mutations to a deep copy of the instance,
// drawing every random choice from a generator seeded with seed, and
// returns the validated mutant. Mutations apply in a fixed order — resize,
// reweight, shrink, grow on the problem; drop, add on the machine — so one
// (instance, spec, seed) triple always produces one byte-identical result.
// The input instance is never modified; reading its edges freezes the
// input problem (see graph.Problem).
func Perturb(inst Instance, spec PerturbSpec, seed int64) (Instance, error) {
	if inst.Problem == nil || inst.System == nil {
		return Instance{}, fmt.Errorf("gen: perturbation needs a problem and a system")
	}
	sp := spec
	if err := sp.defaults(); err != nil {
		return Instance{}, err
	}
	np, ns := inst.Problem.NumTasks(), inst.System.NumNodes()
	if np-sp.ShrinkTasks < 1 {
		return Instance{}, fmt.Errorf("gen: shrinking %d of %d tasks leaves an empty problem", sp.ShrinkTasks, np)
	}
	if ns-sp.DropProcs < 2 {
		return Instance{}, fmt.Errorf("gen: dropping %d of %d processors leaves no machine", sp.DropProcs, ns)
	}
	rng := rand.New(rand.NewSource(seed))
	prob := perturbProblem(inst.Problem, &sp, rng)
	sys := perturbSystem(inst.System, &sp, rng)
	if err := prob.Validate(); err != nil {
		return Instance{}, fmt.Errorf("gen: perturbed problem invalid: %w", err)
	}
	if err := sys.Validate(); err != nil {
		return Instance{}, fmt.Errorf("gen: perturbed system invalid: %w", err)
	}
	return Instance{Problem: prob, System: sys}, nil
}

func perturbProblem(p *graph.Problem, sp *PerturbSpec, rng *rand.Rand) *graph.Problem {
	keep := p.NumTasks() - sp.ShrinkTasks
	n := keep + sp.GrowTasks
	out := graph.NewProblem(n)
	// Resize and reweight draw on the original shape so the decision
	// stream never depends on the shrink/grow bookkeeping below.
	for i, s := range p.Size {
		if sp.ResizeTasks > 0 && rng.Float64() < sp.ResizeTasks {
			s = uniform(rng, sp.MinTaskSize, sp.MaxTaskSize)
		}
		if i < keep {
			out.Size[i] = s
		}
	}
	for _, a := range p.View().Arcs() {
		w := a.W
		if sp.ReweightEdges > 0 && rng.Float64() < sp.ReweightEdges {
			w = uniform(rng, sp.MinEdgeWeight, sp.MaxEdgeWeight)
		}
		if a.From < keep && a.To < keep {
			out.SetEdge(a.From, a.To, w)
		}
	}
	// Grown tasks append to the ID range and draw only predecessors, so
	// they extend every topological order without creating cycles.
	var srcs []int
	for t := keep; t < n; t++ {
		out.Size[t] = uniform(rng, sp.MinTaskSize, sp.MaxTaskSize)
		preds := 1 + rng.Intn(sp.MaxNewEdges)
		if preds > t {
			preds = t
		}
		srcs = srcs[:0]
		for e := 0; e < preds; e++ {
			src := rng.Intn(t)
			if slices.Contains(srcs, src) {
				continue // duplicate draw: fewer edges, never a reroll loop
			}
			srcs = append(srcs, src)
			out.SetEdge(src, t, uniform(rng, sp.MinEdgeWeight, sp.MaxEdgeWeight))
		}
	}
	return out
}

func perturbSystem(s *graph.System, sp *PerturbSpec, rng *rand.Rand) *graph.System {
	keep := s.NumNodes() - sp.DropProcs
	n := keep + sp.AddProcs
	out := graph.NewSystem(n)
	out.Name = s.Name
	for i := 0; i < keep; i++ {
		for _, j := range s.Neighbors(i) {
			if j > i && j < keep {
				out.AddLink(i, j)
			}
		}
	}
	for p := keep; p < n; p++ {
		links := 1 + rng.Intn(2)
		if links > p {
			links = p
		}
		for e := 0; e < links; e++ {
			out.AddLink(rng.Intn(p), p) // duplicate draws collapse
		}
	}
	reconnect(out)
	return out
}

// reconnect deterministically re-links every component stranded by a drop
// to processor 0: the smallest member of each non-root component gains a
// link to node 0. No randomness, so the repair never perturbs the rng
// stream shared with the problem mutations.
func reconnect(s *graph.System) {
	n := s.NumNodes()
	if n == 0 {
		return
	}
	seen := make([]bool, n)
	var walk func(int)
	walk = func(v int) {
		seen[v] = true
		for _, j := range s.Neighbors(v) {
			if !seen[j] {
				walk(j)
			}
		}
	}
	walk(0)
	for v := 1; v < n; v++ {
		if !seen[v] {
			s.AddLink(0, v)
			walk(v)
		}
	}
}
