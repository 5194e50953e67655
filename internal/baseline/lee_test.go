package baseline

import (
	"math/rand"
	"reflect"
	"testing"

	"mimdmap/internal/graph"
	"mimdmap/internal/paths"
	"mimdmap/internal/schedule"
	"mimdmap/internal/topology"
)

// commInstance is the comm-cost counterexample of internal/experiment:
// sizes [1,1,4,1]; edges 0→1 w4, 0→2 w1, 0→3 w4 (phase 1); 1→3 w1,
// 2→3 w4 (phase 2); machine ring-4.
func commInstance(t *testing.T) *schedule.Evaluator {
	t.Helper()
	p := graph.NewProblem(4)
	p.Size = []int{1, 1, 4, 1}
	p.SetEdge(0, 1, 4)
	p.SetEdge(0, 2, 1)
	p.SetEdge(0, 3, 4)
	p.SetEdge(1, 3, 1)
	p.SetEdge(2, 3, 4)
	c := graph.NewClustering(4, 4)
	c.Of = []int{0, 1, 2, 3}
	e, err := schedule.NewEvaluator(p, c, paths.New(topology.Ring(4)))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// endpoints returns the (src,dst) pair of every edge ID in phase.
func endpoints(e *schedule.Evaluator, phase []int) [][2]int {
	var pairs [][2]int
	for _, id := range phase {
		a := e.View().Arcs()[id]
		pairs = append(pairs, [2]int{a.From, a.To})
	}
	return pairs
}

func TestPhasesGroupBySourceLevel(t *testing.T) {
	e := commInstance(t)
	phases := Phases(e)
	if len(phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(phases))
	}
	want0 := [][2]int{{0, 1}, {0, 2}, {0, 3}}
	if got := endpoints(e, phases[0]); !reflect.DeepEqual(got, want0) {
		t.Fatalf("phase 0 = %v, want %v", got, want0)
	}
	want1 := [][2]int{{1, 3}, {2, 3}}
	if got := endpoints(e, phases[1]); !reflect.DeepEqual(got, want1) {
		t.Fatalf("phase 1 = %v, want %v", got, want1)
	}
}

func TestPhasesExcludeIntraCluster(t *testing.T) {
	p := graph.NewProblem(3)
	p.Size = []int{1, 1, 1}
	p.SetEdge(0, 1, 5) // intra-cluster: no communication
	p.SetEdge(1, 2, 3) // inter
	c := graph.NewClustering(3, 2)
	c.Of = []int{0, 0, 1}
	e, err := schedule.NewEvaluator(p, c, paths.New(topology.Chain(2)))
	if err != nil {
		t.Fatal(err)
	}
	phases := Phases(e)
	for _, phase := range phases {
		for _, edge := range endpoints(e, phase) {
			if edge == [2]int{0, 1} {
				t.Fatal("intra-cluster edge appeared in a phase")
			}
		}
	}
}

func TestPhasesDropTrailingEmpty(t *testing.T) {
	// Single inter-cluster edge at level 0: exactly one phase.
	p := graph.NewProblem(2)
	p.Size = []int{1, 1}
	p.SetEdge(0, 1, 2)
	c := graph.NewClustering(2, 2)
	c.Of = []int{0, 1}
	e, err := schedule.NewEvaluator(p, c, paths.New(topology.Chain(2)))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(Phases(e)); got != 1 {
		t.Fatalf("phases = %d, want 1", got)
	}
}

func TestCommCostKnownValues(t *testing.T) {
	e := commInstance(t)
	phases := Phases(e)
	// Identity on ring-4: d(0,1)=1, d(0,2)=2, d(0,3)=1, d(1,3)=2, d(2,3)=1.
	// Phase 1 max: max(4·1, 1·2, 4·1) = 4; phase 2: max(1·2, 4·1) = 4 → 8.
	if got := CommCost(e, phases, schedule.NewAssignment(4)); got != 8 {
		t.Fatalf("identity comm cost = %d, want 8", got)
	}
	// Placement 0→n0, 1→n1, 3→n2, 2→n3: d(0,1)=1, d(0,2)=1, d(0,3)=2,
	// d(1,3)=1, d(2,3)=1. Phase 1: max(4, 1, 8) = 8; phase 2: max(1,4)=4 → 12.
	a := schedule.FromPerm([]int{0, 1, 3, 2})
	if got := CommCost(e, phases, a); got != 12 {
		t.Fatalf("comm cost = %d, want 12", got)
	}
}

func TestMinCommCostFindsMinimum(t *testing.T) {
	e := commInstance(t)
	a, cost := MinCommCost(e, 6, rand.New(rand.NewSource(4)))
	// Exhaustively verified minimum is 8 (see experiment tests).
	if cost != 8 {
		t.Fatalf("min comm cost = %d, want 8", cost)
	}
	if CommCost(e, Phases(e), a) != cost {
		t.Fatal("returned assignment does not achieve reported cost")
	}
	// The §2.2 claim: every comm-cost minimiser here stretches the tight
	// edge 0→2, so its total time exceeds the lower bound of 11.
	if e.TotalTime(a) <= 11 {
		t.Fatalf("comm-optimal total time = %d, want > 11", e.TotalTime(a))
	}
}
