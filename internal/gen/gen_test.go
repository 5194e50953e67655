package gen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mimdmap/internal/graph"
)

func TestRandomValidatesAndRespectsRanges(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := RandomConfig{
			Tasks:         1 + rng.Intn(60),
			EdgeProb:      rng.Float64() * 0.5,
			MinTaskSize:   2,
			MaxTaskSize:   7,
			MinEdgeWeight: 3,
			MaxEdgeWeight: 5,
			Connected:     rng.Intn(2) == 0,
		}
		p, err := Random(cfg, rng)
		if err != nil {
			return false
		}
		if p.Validate() != nil {
			return false
		}
		for _, s := range p.Size {
			if s < 2 || s > 7 {
				return false
			}
		}
		for _, a := range p.View().Arcs() {
			if a.W < 3 || a.W > 5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomConnectedOptionGivesSingleSource(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p, err := Random(RandomConfig{Tasks: 50, EdgeProb: 0.01, Connected: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Sources()); got != 1 {
		t.Fatalf("sources = %d, want 1 (every later task has a predecessor)", got)
	}
}

func TestRandomDefaultsApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p, err := Random(RandomConfig{Tasks: 20, EdgeProb: 0.3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range p.Size {
		if s < 1 || s > 10 {
			t.Fatalf("task size %d outside default [1,10]", s)
		}
	}
}

func TestRandomRejectsBadConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []RandomConfig{
		{Tasks: 0},
		{Tasks: 5, EdgeProb: -0.1},
		{Tasks: 5, EdgeProb: 1.5},
		{Tasks: 5, MinTaskSize: -1, MaxTaskSize: 3},
		{Tasks: 5, MinTaskSize: 5, MaxTaskSize: 2},
		{Tasks: 5, MinEdgeWeight: 0, MaxEdgeWeight: 3}, // explicit zero min
		{Tasks: 5, MinEdgeWeight: 7, MaxEdgeWeight: 3},
	}
	for i, cfg := range bad {
		if _, err := Random(cfg, rng); err == nil {
			t.Errorf("case %d: bad config accepted: %+v", i, cfg)
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	cfg := RandomConfig{Tasks: 30, EdgeProb: 0.2, Connected: true}
	a, err := Random(cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("same seed, different DAGs")
	}
}

func TestLayeredStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := LayeredConfig{Layers: 5, Width: 4, EdgeProb: 0.4}
	p, err := Layered(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumTasks() != 20 {
		t.Fatalf("tasks = %d, want 20", p.NumTasks())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Edges connect consecutive layers only.
	layer := func(task int) int { return task / cfg.Width }
	v := p.View()
	for _, a := range v.Arcs() {
		if layer(a.To) != layer(a.From)+1 {
			t.Fatalf("edge %d→%d skips layers", a.From, a.To)
		}
	}
	// Coupling: every non-final-layer task has a successor, every
	// non-first-layer task a predecessor.
	for task := 0; task < p.NumTasks(); task++ {
		if layer(task) < cfg.Layers-1 && v.OutDegree(task) == 0 {
			t.Fatalf("task %d has no successor", task)
		}
		if layer(task) > 0 && v.InDegree(task) == 0 {
			t.Fatalf("task %d has no predecessor", task)
		}
	}
}

func TestLayeredRejectsBadConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []LayeredConfig{
		{Layers: 0, Width: 3},
		{Layers: 3, Width: 0},
		{Layers: 3, Width: 3, EdgeProb: 2},
	} {
		if _, err := Layered(cfg, rng); err == nil {
			t.Errorf("bad layered config accepted: %+v", cfg)
		}
	}
}

func mustValid(t *testing.T) func(*graph.Problem, error) *graph.Problem {
	return func(p *graph.Problem, err error) *graph.Problem {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		return p
	}
}

func TestPipeline(t *testing.T) {
	p := mustValid(t)(Pipeline(5, 2, 3))
	if p.NumTasks() != 5 || p.NumEdges() != 4 {
		t.Fatalf("pipeline shape wrong: %d tasks %d edges", p.NumTasks(), p.NumEdges())
	}
	// Critical path: 5 tasks ×2 + 4 edges ×3 = 22.
	if got := p.CriticalPathLength(); got != 22 {
		t.Fatalf("critical path = %d, want 22", got)
	}
	if _, err := Pipeline(0, 1, 1); err == nil {
		t.Fatal("accepted 0 stages")
	}
	if _, err := Pipeline(3, 0, 1); err == nil {
		t.Fatal("accepted 0 task size")
	}
}

func TestForkJoin(t *testing.T) {
	p := mustValid(t)(ForkJoin(2, 3, 1, 1))
	// stages*(width+1)+1 = 2*4+1 = 9 tasks.
	if p.NumTasks() != 9 {
		t.Fatalf("tasks = %d, want 9", p.NumTasks())
	}
	// Each stage: width forks + width joins = 6 edges per stage.
	if p.NumEdges() != 12 {
		t.Fatalf("edges = %d, want 12", p.NumEdges())
	}
	// The join tasks form the spine: source 0, joins at 4, 8.
	if v := p.View(); v.InDegree(4) != 3 || v.InDegree(8) != 3 {
		t.Fatal("join in-degrees wrong")
	}
	// Critical path: 0 →w→ worker →w→ join →w→ worker →w→ join:
	// 5 tasks ×1 + 4 edges ×1 = 9.
	if got := p.CriticalPathLength(); got != 9 {
		t.Fatalf("critical path = %d, want 9", got)
	}
	if _, err := ForkJoin(0, 3, 1, 1); err == nil {
		t.Fatal("accepted 0 stages")
	}
}

func TestButterfly(t *testing.T) {
	p := mustValid(t)(Butterfly(3, 1, 2))
	// (logN+1) ranks × 2^logN points = 4×8 = 32 tasks.
	if p.NumTasks() != 32 {
		t.Fatalf("tasks = %d, want 32", p.NumTasks())
	}
	// logN ranks × points × 2 edges = 3×8×2 = 48.
	if p.NumEdges() != 48 {
		t.Fatalf("edges = %d, want 48", p.NumEdges())
	}
	// Every non-final task has out-degree 2; every non-initial in-degree 2.
	v := p.View()
	for task := 0; task < 8; task++ {
		if v.InDegree(task) != 0 || v.OutDegree(task) != 2 {
			t.Fatalf("rank-0 task %d degrees wrong", task)
		}
	}
	for task := 24; task < 32; task++ {
		if v.InDegree(task) != 2 || v.OutDegree(task) != 0 {
			t.Fatalf("final-rank task %d degrees wrong", task)
		}
	}
	// Critical path: 4 tasks + 3 comm hops = 4·1 + 3·2 = 10.
	if got := p.CriticalPathLength(); got != 10 {
		t.Fatalf("critical path = %d, want 10", got)
	}
	if _, err := Butterfly(0, 1, 1); err == nil {
		t.Fatal("accepted logN=0")
	}
}

func TestGaussianElimination(t *testing.T) {
	p := mustValid(t)(GaussianElimination(4, 2, 3, 1))
	// k=0: P + 3 updates; k=1: P + 2; k=2: P + 1 → 4+3+2 = 9 tasks.
	if p.NumTasks() != 9 {
		t.Fatalf("tasks = %d, want 9", p.NumTasks())
	}
	// Sources: only P(0).
	if got := p.Sources(); len(got) != 1 {
		t.Fatalf("sources = %v, want exactly P(0)", got)
	}
	// Longest chain: P0→U(0,1)→P1→U(1,2)→P2→U(2,3):
	// sizes 2+3+2+3+2+3 = 15, 5 edges ×1 = 5 → 20.
	if got := p.CriticalPathLength(); got != 20 {
		t.Fatalf("critical path = %d, want 20", got)
	}
	if _, err := GaussianElimination(1, 1, 1, 1); err == nil {
		t.Fatal("accepted n=1")
	}
	if _, err := GaussianElimination(4, 0, 1, 1); err == nil {
		t.Fatal("accepted zero pivot size")
	}
}

func TestWavefront(t *testing.T) {
	p := mustValid(t)(Wavefront(3, 4, 2, 1))
	if p.NumTasks() != 12 {
		t.Fatalf("tasks = %d, want 12", p.NumTasks())
	}
	// Edges: rows×(cols−1) + (rows−1)×cols = 9 + 8 = 17.
	if p.NumEdges() != 17 {
		t.Fatalf("edges = %d, want 17", p.NumEdges())
	}
	// Critical path: (3+4−1)=6 tasks ×2 + 5 edges ×1 = 17.
	if got := p.CriticalPathLength(); got != 17 {
		t.Fatalf("critical path = %d, want 17", got)
	}
	if _, err := Wavefront(0, 3, 1, 1); err == nil {
		t.Fatal("accepted zero rows")
	}
}

func TestDivideConquer(t *testing.T) {
	p := mustValid(t)(DivideConquer(2, 1, 1))
	// Divide tree: 7 nodes; combine: 3 → 10 tasks.
	if p.NumTasks() != 10 {
		t.Fatalf("tasks = %d, want 10", p.NumTasks())
	}
	// Single source (root) and single sink (combine root).
	if len(p.Sources()) != 1 || len(p.Sinks()) != 1 {
		t.Fatalf("sources %v sinks %v", p.Sources(), p.Sinks())
	}
	// Critical path: depth 2 down + 2 up: 5 tasks + 4 edges = 9.
	if got := p.CriticalPathLength(); got != 9 {
		t.Fatalf("critical path = %d, want 9", got)
	}
	// Depth 0: a single task.
	p0 := mustValid(t)(DivideConquer(0, 3, 1))
	if p0.NumTasks() != 1 || p0.CriticalPathLength() != 3 {
		t.Fatal("depth-0 divide and conquer wrong")
	}
	if _, err := DivideConquer(-1, 1, 1); err == nil {
		t.Fatal("accepted negative depth")
	}
}
