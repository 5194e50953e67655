package schedule

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mimdmap/internal/graph"
	"mimdmap/internal/paths"
	"mimdmap/internal/topology"
)

func TestContendedSerializesSharedProcessor(t *testing.T) {
	// Two independent tasks in one cluster: dataflow runs them in
	// parallel (start 0 each); contention-aware runs them back to back.
	p := graph.NewProblem(2)
	p.Size = []int{3, 4}
	c := graph.NewClustering(2, 1)
	e, err := NewEvaluator(p, c, paths.New(topology.Complete(1)))
	if err != nil {
		t.Fatal(err)
	}
	a := NewAssignment(1)
	flow := e.Evaluate(a)
	if flow.TotalTime != 4 {
		t.Fatalf("dataflow total = %d, want 4", flow.TotalTime)
	}
	cont := e.EvaluateContended(a)
	if cont.TotalTime != 7 {
		t.Fatalf("contended total = %d, want 7", cont.TotalTime)
	}
	// The lower-ID task wins the tie for the processor.
	if cont.Start[0] != 0 || cont.Start[1] != 3 {
		t.Fatalf("contended starts = %v", cont.Start)
	}
}

func TestContendedRespectsCommunication(t *testing.T) {
	// Chain across two processors at distance 2: comm weight 3 → 6.
	p := graph.NewProblem(2)
	p.Size = []int{1, 1}
	p.SetEdge(0, 1, 3)
	c := graph.NewClustering(2, 2)
	c.Of = []int{0, 1}
	e, err := NewEvaluator(p, c, paths.New(topology.Chain(2)))
	if err != nil {
		t.Fatal(err)
	}
	res := e.EvaluateContended(NewAssignment(2))
	if res.Start[1] != 1+3 {
		t.Fatalf("task 1 starts at %d, want 4", res.Start[1])
	}
}

func TestContendedScheduleValidProperty(t *testing.T) {
	// The contended schedule must respect precedence+communication and
	// never overlap two tasks on one processor; its makespan is ≥ the
	// dataflow makespan.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, c := randomClusteredInstance(rng, 20)
		sys := topology.Random(c.K, 0.2, rng)
		e, err := NewEvaluator(p, c, paths.New(sys))
		if err != nil {
			return false
		}
		a := FromPerm(rng.Perm(c.K))
		res := e.EvaluateContended(a)
		n := p.NumTasks()
		// Precedence + communication.
		for id, arc := range e.View().Arcs() {
			j, i := arc.From, arc.To
			arrive := res.End[j]
			if w := e.CEdge(id); w > 0 {
				arrive += w * e.Dist.At(a.ProcOf[c.Of[j]], a.ProcOf[c.Of[i]])
			}
			if res.Start[i] < arrive {
				return false
			}
		}
		// No overlap on a processor (tasks with zero size may share an
		// instant; intervals are [start, end)).
		for x := 0; x < n; x++ {
			for y := x + 1; y < n; y++ {
				if a.ProcOf[c.Of[x]] != a.ProcOf[c.Of[y]] {
					continue
				}
				if res.Start[x] < res.End[y] && res.Start[y] < res.End[x] {
					return false
				}
			}
		}
		// Contention can only slow things down.
		return res.TotalTime >= e.TotalTime(a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestContendedMatchesDataflowWhenOneTaskPerCluster(t *testing.T) {
	// With a single task per processor there is nothing to serialize:
	// both evaluators agree.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		p := graph.NewProblem(n)
		for i := range p.Size {
			p.Size[i] = 1 + rng.Intn(5)
		}
		perm := rng.Perm(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.3 {
					p.SetEdge(perm[a], perm[b], 1+rng.Intn(4))
				}
			}
		}
		c := graph.NewClustering(n, n)
		for i := range c.Of {
			c.Of[i] = i
		}
		sys := topology.Random(n, 0.3, rng)
		e, err := NewEvaluator(p, c, paths.New(sys))
		if err != nil {
			return false
		}
		a := FromPerm(rng.Perm(n))
		return e.ContendedTotalTime(a) == e.TotalTime(a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
