package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mimdmap/internal/graph"
	"mimdmap/internal/paths"
	"mimdmap/internal/topology"
)

func TestDelaysOptionChangesDistances(t *testing.T) {
	// Chain of two communicating clusters on a triangle machine where the
	// direct link is slow: the weighted mapper must see distance 2 (the
	// detour) between adjacent-looking nodes.
	p := graph.NewProblem(2)
	p.Size = []int{1, 1}
	p.SetEdge(0, 1, 4)
	c := graph.NewClustering(2, 2)
	c.Of = []int{0, 1}
	sys := topology.Chain(2) // placeholder to keep K == ns in the real case below
	_ = sys

	// Build a 2-node machine with a slow single link: delay 3.
	s2 := topology.Chain(2)
	delays := paths.NewLinkDelays(2)
	delays.Set(0, 1, 3)
	m, err := New(p, c, s2, Options{Delays: delays})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Dist().At(0, 1); got != 3 {
		t.Fatalf("weighted distance = %d, want 3", got)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// end0 = 1; message 4×3 = 12; start1 = 13; total 14.
	if res.TotalTime != 14 {
		t.Fatalf("weighted total = %d, want 14", res.TotalTime)
	}
	// The ideal bound still assumes distance 1: 1+4+1 = 6.
	if res.LowerBound != 6 {
		t.Fatalf("bound = %d, want 6", res.LowerBound)
	}
}

func TestDelaysRejectedWhenInvalid(t *testing.T) {
	p := graph.NewProblem(2)
	p.Size = []int{1, 1}
	c := graph.NewClustering(2, 2)
	c.Of = []int{0, 1}
	s := topology.Chain(2)
	bad := paths.NewLinkDelays(2)
	bad.Set(0, 1, 0)
	if _, err := New(p, c, s, Options{Delays: bad}); err == nil {
		t.Fatal("invalid delays accepted")
	}
}

func TestWeightedMappingStillSoundProperty(t *testing.T) {
	// With arbitrary delays ≥ 1, the result must stay consistent: total ≥
	// bound, totals match re-evaluation, assignment is a bijection.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, c := randomClusteredInstance(rng, 20)
		sys := topology.Random(c.K, 0.25, rng)
		delays := paths.NewLinkDelays(c.K)
		for a := 0; a < c.K; a++ {
			for b := a + 1; b < c.K; b++ {
				if sys.HasLink(a, b) {
					delays.Set(a, b, 1+rng.Intn(4))
				}
			}
		}
		m, err := New(p, c, sys, Options{
			Delays: delays,
			Rand:   rand.New(rand.NewSource(seed + 5)),
		})
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
		if res.TotalTime < res.LowerBound {
			return false
		}
		return m.Evaluator().TotalTime(res.Assignment) == res.TotalTime
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
