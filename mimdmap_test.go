package mimdmap_test

import (
	"bytes"
	"math/rand"
	"testing"

	"mimdmap"
)

// quickstartProblem is the README's 4-task diamond.
func quickstartProblem() *mimdmap.Problem {
	p := mimdmap.NewProblem(4)
	p.Size = []int{2, 1, 1, 2}
	p.SetEdge(0, 1, 3)
	p.SetEdge(0, 2, 1)
	p.SetEdge(1, 3, 2)
	p.SetEdge(2, 3, 4)
	return p
}

func TestMapQuickstart(t *testing.T) {
	p := quickstartProblem()
	res, err := mimdmap.Map(p, mimdmap.IdentityClustering(4), mimdmap.Ring(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime < res.LowerBound {
		t.Fatalf("total %d below bound %d", res.TotalTime, res.LowerBound)
	}
	if err := res.Assignment.Validate(); err != nil {
		t.Fatal(err)
	}
	// Diamond on a ring: the ideal bound is attainable (the undirected
	// support is a 4-cycle), so the mapper should prove optimality.
	if !res.OptimalProven {
		t.Fatalf("expected provably optimal mapping, got total %d vs bound %d",
			res.TotalTime, res.LowerBound)
	}
}

func TestMapWithOptions(t *testing.T) {
	p := quickstartProblem()
	reshuffle, err := mimdmap.RefinerByName("full-reshuffle")
	if err != nil {
		t.Fatal(err)
	}
	opts := &mimdmap.Options{
		Propagation:    mimdmap.FullPropagation,
		Refiner:        reshuffle,
		MaxRefinements: 10,
		Rand:           rand.New(rand.NewSource(3)),
	}
	res, err := mimdmap.Map(p, mimdmap.IdentityClustering(4), mimdmap.Hypercube(2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Critical.Mode != mimdmap.FullPropagation {
		t.Fatal("propagation option not honoured")
	}
}

func TestMapRejectsMismatch(t *testing.T) {
	p := quickstartProblem()
	if _, err := mimdmap.Map(p, mimdmap.IdentityClustering(4), mimdmap.Ring(5), nil); err == nil {
		t.Fatal("cluster/processor mismatch accepted")
	}
}

func TestEvaluatorAndDeriveIdeal(t *testing.T) {
	p := quickstartProblem()
	c := mimdmap.IdentityClustering(4)
	ig, err := mimdmap.DeriveIdeal(p, c)
	if err != nil {
		t.Fatal(err)
	}
	// end0=2; start1=2+3=5,end1=6; start2=3,end2=4; start3=max(6+2,4+4)=8,
	// end3=10.
	if ig.LowerBound != 10 {
		t.Fatalf("LowerBound = %d, want 10", ig.LowerBound)
	}
	e, err := mimdmap.NewEvaluator(p, c, mimdmap.Complete(4))
	if err != nil {
		t.Fatal(err)
	}
	// On the closure any assignment realises the bound.
	a := mimdmap.Assignment{ProcOf: []int{2, 0, 3, 1}}
	if got := e.TotalTime(&a); got != 10 {
		t.Fatalf("closure total = %d, want 10", got)
	}
	crit := mimdmap.AnalyzeCritical(p, c, ig, mimdmap.PaperPropagation)
	// Both branches deliver to task 3 exactly at its start (t=8), so every
	// edge of the diamond is tight on a path to the latest task: all four
	// are critical.
	want := map[[2]int]int{{0, 1}: 3, {0, 2}: 1, {1, 3}: 2, {2, 3}: 4}
	for e, w := range want {
		if got := crit.ProbEdge[p.View().Find(e[0], e[1])]; got != w {
			t.Fatalf("edge %v = %d, want %d", e, got, w)
		}
	}
	if crit.NumCriticalProbEdges() != 4 {
		t.Fatalf("critical edges = %d, want 4", crit.NumCriticalProbEdges())
	}
}

func TestClusterersThroughFacade(t *testing.T) {
	p := quickstartProblem()
	for _, cl := range []mimdmap.Clusterer{
		mimdmap.RoundRobinClusterer,
		mimdmap.BlocksClusterer,
		mimdmap.LoadBalanceClusterer,
		mimdmap.EdgeZeroingClusterer,
		mimdmap.RandomClusterer(rand.New(rand.NewSource(1))),
		mimdmap.RandomClusterer(nil),
	} {
		c, err := cl.Cluster(p, 2)
		if err != nil {
			t.Fatalf("%s: %v", cl.Name(), err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", cl.Name(), err)
		}
	}
}

func TestRandomProblemAndMappingFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p, err := mimdmap.RandomProblem(mimdmap.RandomProblemConfig{
		Tasks: 40, EdgeProb: 0.1, Connected: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	sys := mimdmap.Mesh(2, 4)
	c, err := mimdmap.RandomClusterer(rng).Cluster(p, sys.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	res, err := mimdmap.Map(p, c, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := mimdmap.NewEvaluator(p, c, sys)
	if err != nil {
		t.Fatal(err)
	}
	mean, best, bestTime := mimdmap.RandomMapping(e, 20, rng)
	if bestTime < res.LowerBound || mean < float64(res.LowerBound) {
		t.Fatal("random mapping beat the lower bound")
	}
	if got := e.TotalTime(best); got != bestTime {
		t.Fatal("best random assignment inconsistent")
	}
	if float64(res.TotalTime) > mean {
		t.Fatalf("our mapping (%d) lost to the random mean (%.1f)", res.TotalTime, mean)
	}
}

func TestTopologyHelpers(t *testing.T) {
	if mimdmap.Torus(3, 3).NumNodes() != 9 {
		t.Fatal("torus")
	}
	if mimdmap.Chain(5).NumLinks() != 4 {
		t.Fatal("chain")
	}
	if mimdmap.Star(4).Degree(0) != 3 {
		t.Fatal("star")
	}
	if mimdmap.BinaryTree(7).NumLinks() != 6 {
		t.Fatal("btree")
	}
	s, err := mimdmap.TopologyByName("hypercube-3", nil)
	if err != nil || s.NumNodes() != 8 {
		t.Fatal("ByName")
	}
	rt := mimdmap.RandomTopology(10, 0.2, rand.New(rand.NewSource(2)))
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	d := mimdmap.Distances(mimdmap.Chain(4))
	if d.At(0, 3) != 3 {
		t.Fatal("distances")
	}
}

func TestIORoundTripFacade(t *testing.T) {
	p := quickstartProblem()
	var buf bytes.Buffer
	if err := mimdmap.WriteProblem(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := mimdmap.ReadProblem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(q) {
		t.Fatal("problem round trip failed")
	}
	s := mimdmap.Mesh(2, 3)
	buf.Reset()
	if err := mimdmap.WriteSystem(&buf, s); err != nil {
		t.Fatal(err)
	}
	u, err := mimdmap.ReadSystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(u) {
		t.Fatal("system round trip failed")
	}
	c := mimdmap.IdentityClustering(4)
	buf.Reset()
	if err := mimdmap.WriteClustering(&buf, c); err != nil {
		t.Fatal(err)
	}
	if _, err := mimdmap.ReadClustering(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestNewMapperExposesInternals(t *testing.T) {
	p := quickstartProblem()
	m, err := mimdmap.NewMapper(p, mimdmap.IdentityClustering(4), mimdmap.Ring(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Evaluator() == nil || m.Dist() == nil {
		t.Fatal("mapper internals not exposed")
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	sched := m.Evaluator().Evaluate(res.Assignment)
	if sched.TotalTime != res.TotalTime {
		t.Fatal("schedule disagrees with result")
	}
	// The contention-aware extension is reachable from the facade too.
	if m.Evaluator().ContendedTotalTime(res.Assignment) < res.TotalTime {
		t.Fatal("contended time below dataflow time")
	}
}
