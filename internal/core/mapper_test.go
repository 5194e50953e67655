package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mimdmap/internal/critical"
	"mimdmap/internal/graph"
	"mimdmap/internal/paths"
	"mimdmap/internal/search"
	"mimdmap/internal/topology"
)

// runningInstance is the repo's 11-task running example on the 4-ring.
func runningInstance() (*graph.Problem, *graph.Clustering, *graph.System) {
	p := graph.NewProblem(11)
	p.Size = []int{2, 1, 1, 1, 2, 1, 2, 1, 1, 2, 2}
	p.SetEdge(0, 1, 1)
	p.SetEdge(1, 2, 1)
	p.SetEdge(3, 4, 1)
	p.SetEdge(4, 5, 1)
	p.SetEdge(6, 7, 1)
	p.SetEdge(7, 8, 1)
	p.SetEdge(2, 3, 2)
	p.SetEdge(5, 6, 2)
	p.SetEdge(8, 9, 3)
	p.SetEdge(2, 10, 1)
	p.SetEdge(5, 10, 1)
	c := graph.NewClustering(11, 4)
	c.Of = []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3}
	return p, c, topology.Ring(4)
}

func TestRunningExampleReachesBoundWithoutRefinement(t *testing.T) {
	p, c, s := runningInstance()
	m, err := New(p, c, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.LowerBound != 21 {
		t.Fatalf("LowerBound = %d, want 21", res.LowerBound)
	}
	if res.TotalTime != 21 {
		t.Fatalf("TotalTime = %d, want 21", res.TotalTime)
	}
	if !res.OptimalProven {
		t.Fatal("OptimalProven = false, want true (termination condition)")
	}
	if res.Refinements != 0 {
		t.Fatalf("Refinements = %d, want 0 (terminated before refining)", res.Refinements)
	}
	if res.InitialTotalTime != 21 {
		t.Fatalf("InitialTotalTime = %d, want 21", res.InitialTotalTime)
	}
	// The critical clusters C (2) and D (3) must be frozen.
	if !res.FrozenClusters[2] || !res.FrozenClusters[3] {
		t.Fatalf("FrozenClusters = %v, want clusters 2 and 3 frozen", res.FrozenClusters)
	}
	// The critical edge C–D must sit on one ring link.
	d := m.Dist().At(res.Assignment.ProcOf[2], res.Assignment.ProcOf[3])
	if d != 1 {
		t.Fatalf("critical abstract edge at distance %d, want 1", d)
	}
	if err := res.Assignment.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	p, c, s := runningInstance()
	// Cyclic problem.
	cyc := graph.NewProblem(11)
	cyc.SetEdge(0, 1, 1)
	cyc.SetEdge(1, 0, 1)
	if _, err := New(cyc, c, s, Options{}); err == nil {
		t.Error("cyclic problem accepted")
	}
	// Clustering size mismatch.
	if _, err := New(p, graph.NewClustering(5, 4), s, Options{}); err == nil {
		t.Error("task-count mismatch accepted")
	}
	// Cluster/processor count mismatch.
	c3 := graph.NewClustering(11, 3)
	for i := range c3.Of {
		c3.Of[i] = i % 3
	}
	if _, err := New(p, c3, s, Options{}); err == nil {
		t.Error("cluster/processor mismatch accepted")
	}
	// Empty cluster.
	ce := c.Clone()
	for i := range ce.Of {
		if ce.Of[i] == 3 {
			ce.Of[i] = 2
		}
	}
	if _, err := New(p, ce, s, Options{}); err == nil {
		t.Error("empty cluster accepted")
	}
	// Disconnected machine.
	disc := graph.NewSystem(4)
	disc.AddLink(0, 1)
	disc.AddLink(2, 3)
	if _, err := New(p, c, disc, Options{}); err == nil {
		t.Error("disconnected machine accepted")
	}
}

func TestMapOntoCompleteMachineAlwaysOptimal(t *testing.T) {
	// On a fully connected machine every assignment realises the ideal
	// graph, so the mapper must prove optimality immediately.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, c := randomClusteredInstance(rng, 25)
		m, err := New(p, c, topology.Complete(c.K), Options{})
		if err != nil {
			return false
		}
		res, err := m.Run()
		if err != nil {
			return false
		}
		return res.OptimalProven && res.TotalTime == res.LowerBound && res.Refinements == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestResultConsistencyProperty(t *testing.T) {
	// The reported total time must match re-evaluating the reported
	// assignment; OptimalProven must mean total == bound; the assignment
	// must be a bijection; frozen clusters must carry critical edges.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, c := randomClusteredInstance(rng, 25)
		sys := topology.Random(c.K, 0.2, rng)
		m, err := New(p, c, sys, Options{Rand: rand.New(rand.NewSource(seed + 1))})
		if err != nil {
			return false
		}
		res, err := m.Run()
		if err != nil {
			return false
		}
		if res.Assignment.Validate() != nil {
			return false
		}
		if m.Evaluator().TotalTime(res.Assignment) != res.TotalTime {
			return false
		}
		if res.OptimalProven != (res.TotalTime == res.LowerBound) {
			return false
		}
		if res.TotalTime < res.LowerBound || res.TotalTime > res.InitialTotalTime {
			return false
		}
		for k, frozen := range res.FrozenClusters {
			if frozen && res.Critical.Degree[k] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	p, c := randomClusteredInstance(rand.New(rand.NewSource(7)), 30)
	sys := topology.Random(c.K, 0.2, rand.New(rand.NewSource(8)))
	run := func(seed int64) *Result {
		m, err := New(p, c, sys, Options{Rand: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a.Assignment.ProcOf, b.Assignment.ProcOf) || a.TotalTime != b.TotalTime {
		t.Fatal("same seed produced different results")
	}
}

func TestNilRandDefaultsDeterministically(t *testing.T) {
	p, c, s := runningInstance()
	run := func() *Result {
		m, err := New(p, c, s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); a.TotalTime != b.TotalTime ||
		!reflect.DeepEqual(a.Assignment.ProcOf, b.Assignment.ProcOf) {
		t.Fatal("nil Rand not deterministic")
	}
}

func TestMaxRefinementsNegativeDisablesRefinement(t *testing.T) {
	p, c := randomClusteredInstance(rand.New(rand.NewSource(3)), 30)
	sys := topology.Random(c.K, 0.1, rand.New(rand.NewSource(4)))
	m, err := New(p, c, sys, Options{MaxRefinements: -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Refinements != 0 {
		t.Fatalf("Refinements = %d, want 0", res.Refinements)
	}
	if res.TotalTime != res.InitialTotalTime {
		t.Fatal("refinement ran despite being disabled")
	}
}

func TestRefinementNeverWorsens(t *testing.T) {
	for _, refiner := range []search.Refiner{search.Paper{}, search.FullReshuffle{}} {
		refiner := refiner
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			p, c := randomClusteredInstance(rng, 25)
			sys := topology.Random(c.K, 0.15, rng)
			m, err := New(p, c, sys, Options{
				Refiner:        refiner,
				MaxRefinements: 3 * c.K,
				Rand:           rand.New(rand.NewSource(seed + 9)),
			})
			if err != nil {
				return false
			}
			res, err := m.Run()
			if err != nil {
				return false
			}
			return res.TotalTime <= res.InitialTotalTime
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("refiner %s: %v", refiner.Name(), err)
		}
	}
}

func TestDisableTerminationStillCorrect(t *testing.T) {
	p, c, s := runningInstance()
	m, err := New(p, c, s, Options{DisableTermination: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Without the termination condition the refinement budget runs, but
	// the result cannot be worse than the bound-achieving initial
	// assignment.
	if res.TotalTime != 21 {
		t.Fatalf("TotalTime = %d, want 21", res.TotalTime)
	}
	if res.Refinements == 0 {
		t.Fatal("refinement should have run with termination disabled")
	}
}

func TestPropagationModesBothWork(t *testing.T) {
	p, c, s := runningInstance()
	for _, mode := range []critical.Propagation{critical.Paper, critical.Full} {
		m, err := New(p, c, s, Options{Propagation: mode})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalTime != 21 {
			t.Fatalf("mode %v: TotalTime = %d, want 21", mode, res.TotalTime)
		}
		if res.Critical.Mode != mode {
			t.Fatalf("analysis mode = %v, want %v", res.Critical.Mode, mode)
		}
	}
}

// randomClusteredInstance generates a random problem + clustering pair with
// every cluster non-empty (k between 2 and n).
func randomClusteredInstance(rng *rand.Rand, maxN int) (*graph.Problem, *graph.Clustering) {
	n := 3 + rng.Intn(maxN-2)
	p := graph.NewProblem(n)
	for i := range p.Size {
		p.Size[i] = 1 + rng.Intn(8)
	}
	perm := rng.Perm(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < 0.25 {
				p.SetEdge(perm[a], perm[b], 1+rng.Intn(6))
			}
		}
	}
	k := 2 + rng.Intn(n-1)
	c := graph.NewClustering(n, k)
	dealt := rng.Perm(n)
	for i, task := range dealt {
		if i < k {
			c.Of[task] = i
		} else {
			c.Of[task] = rng.Intn(k)
		}
	}
	return p, c
}

func TestRecordTrials(t *testing.T) {
	p, c := randomClusteredInstance(rand.New(rand.NewSource(21)), 30)
	sys := topology.Random(c.K, 0.15, rand.New(rand.NewSource(22)))
	m, err := New(p, c, sys, Options{
		RecordTrials:       true,
		DisableTermination: true,
		Rand:               rand.New(rand.NewSource(23)),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != res.Refinements {
		t.Fatalf("recorded %d trials, performed %d refinements", len(res.Trials), res.Refinements)
	}
	// Every trial is a valid total time (≥ bound); the final result is the
	// minimum of the initial time and all trials.
	best := res.InitialTotalTime
	for _, tt := range res.Trials {
		if tt < res.LowerBound {
			t.Fatalf("trial total %d below bound %d", tt, res.LowerBound)
		}
		if tt < best {
			best = tt
		}
	}
	if best != res.TotalTime {
		t.Fatalf("best trial %d ≠ final total %d", best, res.TotalTime)
	}
}

func TestPrecomputedDistTableMatchesFreshOne(t *testing.T) {
	p, c, s := runningInstance()
	fresh, err := New(p, c, s, Options{Rand: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	reused, err := New(p, c, s, Options{Rand: rand.New(rand.NewSource(3)), Dist: paths.New(s)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := reused.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Assignment.Equal(want.Assignment) || got.TotalTime != want.TotalTime {
		t.Fatalf("precomputed table changed the run: %v/%d vs %v/%d",
			got.Assignment.ProcOf, got.TotalTime, want.Assignment.ProcOf, want.TotalTime)
	}
}

func TestMismatchedDistTableRejected(t *testing.T) {
	p, c, s := runningInstance()
	if _, err := New(p, c, s, Options{Dist: paths.New(topology.Ring(5))}); err == nil {
		t.Fatal("5-node table accepted for a 4-node machine")
	}
}

func TestTrialsNotRecordedByDefault(t *testing.T) {
	p, c, s := runningInstance()
	m, err := New(p, c, s, Options{DisableTermination: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != nil {
		t.Fatal("trials recorded without RecordTrials")
	}
}
