package schedule

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mimdmap/internal/paths"
	"mimdmap/internal/topology"
)

func TestCheckResultAcceptsEvaluate(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, c := randomClusteredInstance(rng, 25)
		sys := topology.Random(c.K, 0.2, rng)
		e, err := NewEvaluator(p, c, paths.New(sys))
		if err != nil {
			return false
		}
		a := FromPerm(rng.Perm(c.K))
		return e.CheckResult(a, e.Evaluate(a)) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckResultCatchesCorruption(t *testing.T) {
	e := newEval(t)
	a := FromPerm([]int{2, 3, 0, 1})
	corrupt := func(mutate func(r *Result)) error {
		r := e.Evaluate(a)
		mutate(r)
		return e.CheckResult(a, r)
	}
	if err := corrupt(func(r *Result) { r.Start[3] = 0 }); err == nil {
		t.Fatal("accepted too-early start")
	}
	if err := corrupt(func(r *Result) { r.End[5]++ }); err == nil {
		t.Fatal("accepted end ≠ start+size")
	}
	if err := corrupt(func(r *Result) { r.TotalTime++ }); err == nil {
		t.Fatal("accepted wrong total")
	}
	if err := corrupt(func(r *Result) { r.Start[0] = 1; r.End[0] = 3 }); err == nil {
		t.Fatal("accepted idling source task")
	}
	if err := corrupt(func(r *Result) { r.Start = r.Start[:2] }); err == nil {
		t.Fatal("accepted truncated result")
	}
}

func TestAnalyzeComm(t *testing.T) {
	e := newEval(t)
	a := FromPerm([]int{2, 3, 0, 1})
	st := e.AnalyzeComm(a)
	// Inter-cluster edges: 2→3(2), 5→6(2), 8→9(3), 2→10(1), 5→10(1).
	if st.Edges != 5 {
		t.Fatalf("Edges = %d, want 5", st.Edges)
	}
	if st.IdealVolume != 9 {
		t.Fatalf("IdealVolume = %d, want 9", st.IdealVolume)
	}
	// 5→10 crosses 2 links (B–D), everything else 1: volume = 9+1 = 10.
	if st.Volume != 10 {
		t.Fatalf("Volume = %d, want 10", st.Volume)
	}
	if st.Adjacent != 4 {
		t.Fatalf("Adjacent = %d, want 4", st.Adjacent)
	}
	if st.MaxDistance != 2 {
		t.Fatalf("MaxDistance = %d, want 2", st.MaxDistance)
	}
	if got, want := st.Dilation(), 10.0/9.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Dilation = %v, want %v", got, want)
	}
}

func TestAnalyzeCommNoComm(t *testing.T) {
	var st CommStats
	if st.Dilation() != 1 {
		t.Fatal("dilation of empty stats should be 1")
	}
}
