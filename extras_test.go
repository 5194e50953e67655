package mimdmap_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"mimdmap"
)

func TestWorkloadGeneratorsFacade(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*mimdmap.Problem, error)
		tasks int
	}{
		{"pipeline", func() (*mimdmap.Problem, error) { return mimdmap.Pipeline(5, 1, 1) }, 5},
		{"forkjoin", func() (*mimdmap.Problem, error) { return mimdmap.ForkJoin(2, 3, 1, 1) }, 9},
		{"butterfly", func() (*mimdmap.Problem, error) { return mimdmap.Butterfly(2, 1, 1) }, 12},
		{"gauss", func() (*mimdmap.Problem, error) { return mimdmap.GaussianElimination(3, 1, 1, 1) }, 5},
		{"wavefront", func() (*mimdmap.Problem, error) { return mimdmap.Wavefront(2, 3, 1, 1) }, 6},
		{"divideconquer", func() (*mimdmap.Problem, error) { return mimdmap.DivideConquer(1, 1, 1) }, 4},
	}
	for _, tc := range cases {
		p, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if p.NumTasks() != tc.tasks {
			t.Fatalf("%s: %d tasks, want %d", tc.name, p.NumTasks(), tc.tasks)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
	lp, err := mimdmap.LayeredProblem(mimdmap.LayeredProblemConfig{Layers: 3, Width: 4, EdgeProb: 0.5},
		rand.New(rand.NewSource(1)))
	if err != nil || lp.NumTasks() != 12 {
		t.Fatalf("layered: %v", err)
	}
}

func TestBaselinesFacade(t *testing.T) {
	p := quickstartProblem()
	c := mimdmap.IdentityClustering(4)
	sys := mimdmap.Ring(4)
	e, err := mimdmap.NewEvaluator(p, c, sys)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	if _, card := mimdmap.MaxCardinality(e, 3, rng); card <= 0 {
		t.Fatal("cardinality search failed")
	}
	phases := mimdmap.CommPhases(e)
	if len(phases) == 0 {
		t.Fatal("no phases")
	}
	a, cost := mimdmap.MinCommCost(e, 3, rng)
	if got := mimdmap.CommCost(e, phases, a); got != cost {
		t.Fatal("comm cost inconsistent")
	}
	ann, at := mimdmap.Anneal(e, mimdmap.AnnealOptions{Steps: 100}, rng)
	if e.TotalTime(ann) != at {
		t.Fatal("anneal inconsistent")
	}
}

func TestExactFacade(t *testing.T) {
	p := quickstartProblem()
	c := mimdmap.IdentityClustering(4)
	sys := mimdmap.Ring(4)
	e, err := mimdmap.NewEvaluator(p, c, sys)
	if err != nil {
		t.Fatal(err)
	}
	ig, err := mimdmap.DeriveIdeal(p, c)
	if err != nil {
		t.Fatal(err)
	}
	res := mimdmap.SolveExact(e, ig.LowerBound, mimdmap.ExactOptions{})
	if !res.Proven {
		t.Fatal("exact search incomplete on 4 clusters")
	}
	if res.TotalTime < ig.LowerBound {
		t.Fatal("exact beat the bound")
	}
	// The diamond embeds in the ring, so the optimum is the bound.
	if res.TotalTime != ig.LowerBound {
		t.Fatalf("optimum = %d, want bound %d", res.TotalTime, ig.LowerBound)
	}
}

func TestWeightedAndRoutesFacade(t *testing.T) {
	sys := mimdmap.Mesh(2, 2)
	delays := mimdmap.UnitLinkDelays(4)
	delays.Set(0, 1, 5)
	dist, err := mimdmap.WeightedDistances(sys, delays)
	if err != nil {
		t.Fatal(err)
	}
	// 0→1 direct costs 5; detour 0→2→3→1 costs 3.
	if got := dist.At(0, 1); got != 3 {
		t.Fatalf("weighted dist = %d, want 3", got)
	}
	p := quickstartProblem()
	c := mimdmap.IdentityClustering(4)
	e, err := mimdmap.NewEvaluatorWithDistances(p, c, dist)
	if err != nil {
		t.Fatal(err)
	}
	if e.TotalTime(mimdmap.FromPerm([]int{0, 1, 2, 3})) <= 0 {
		t.Fatal("weighted evaluation failed")
	}
	// Link-contended evaluation through the facade.
	routes := mimdmap.NewRouteTable(sys)
	eu, err := mimdmap.NewEvaluator(p, c, sys)
	if err != nil {
		t.Fatal(err)
	}
	a := mimdmap.FromPerm([]int{0, 1, 2, 3})
	if eu.LinkContendedTotalTime(a, routes) < eu.TotalTime(a) {
		t.Fatal("link contention made things faster")
	}
}

func TestMapWithDelaysOption(t *testing.T) {
	p := quickstartProblem()
	delays := mimdmap.UnitLinkDelays(4)
	delays.Set(0, 1, 4)
	res, err := mimdmap.Map(p, mimdmap.IdentityClustering(4), mimdmap.Ring(4),
		&mimdmap.Options{Delays: delays})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime < res.LowerBound {
		t.Fatal("weighted mapping beat the bound")
	}
}

func TestCriticalChainFacade(t *testing.T) {
	p := quickstartProblem()
	c := mimdmap.IdentityClustering(4)
	ig, err := mimdmap.DeriveIdeal(p, c)
	if err != nil {
		t.Fatal(err)
	}
	chain := mimdmap.LongestCriticalChain(p, ig)
	if len(chain) < 2 || chain[len(chain)-1] != 3 {
		t.Fatalf("chain = %v, want …→3", chain)
	}
}

func TestDOTFacade(t *testing.T) {
	var buf bytes.Buffer
	if err := mimdmap.WriteProblemDOT(&buf, quickstartProblem(), mimdmap.IdentityClustering(4)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph problem") {
		t.Fatal("problem DOT wrong")
	}
	buf.Reset()
	if err := mimdmap.WriteSystemDOT(&buf, mimdmap.Ring(4)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "graph system") {
		t.Fatal("system DOT wrong")
	}
}

func TestScheduleAnalysisFacade(t *testing.T) {
	p := quickstartProblem()
	c := mimdmap.IdentityClustering(4)
	sys := mimdmap.Ring(4)
	e, err := mimdmap.NewEvaluator(p, c, sys)
	if err != nil {
		t.Fatal(err)
	}
	a := mimdmap.FromPerm([]int{0, 1, 2, 3})
	res := e.Evaluate(a)
	if err := e.CheckResult(a, res); err != nil {
		t.Fatal(err)
	}
	st := e.AnalyzeComm(a)
	if st.Edges != 4 || st.Dilation() < 1 {
		t.Fatalf("comm stats wrong: %+v", st)
	}
}
