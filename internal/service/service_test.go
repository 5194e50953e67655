package service

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"mimdmap/internal/cluster"
	"mimdmap/internal/core"
	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/topology"
)

// testProblem returns a deterministic 24-task DAG dense enough to leave the
// refinement something to do.
func testProblem(t *testing.T) *graph.Problem {
	t.Helper()
	p, err := gen.Random(gen.RandomConfig{
		Tasks:         24,
		EdgeProb:      0.15,
		MinTaskSize:   1,
		MaxTaskSize:   8,
		MinEdgeWeight: 1,
		MaxEdgeWeight: 5,
		Connected:     true,
	}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestValidateRejectsMalformedRequests(t *testing.T) {
	p := testProblem(t)
	sys := topology.Mesh(2, 3)
	clus, err := (cluster.RoundRobin{}).Cluster(p, sys.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		req   *Request
		field string
	}{
		{"nil", nil, ""},
		{"no problem", &Request{Topology: "mesh-2x3", Clusterer: "random"}, "Problem"},
		{"no machine", &Request{Problem: p, Clusterer: "random"}, "System"},
		{"two machines", &Request{Problem: p, System: sys, Topology: "ring-6", Clusterer: "random"}, "Topology"},
		{"no clustering", &Request{Problem: p, System: sys}, "Clustering"},
		{"two clusterings", &Request{Problem: p, System: sys, Clustering: clus, Clusterer: "random"}, "Clusterer"},
		{"too many starts", &Request{Problem: p, System: sys, Clustering: clus, Options: core.Options{Starts: MaxStarts + 1}}, "Options.Starts"},
		{"huge starts", &Request{Problem: p, System: sys, Clustering: clus, Options: core.Options{Starts: 1 << 62}}, "Options.Starts"},
	}
	var s Solver
	for _, tc := range cases {
		_, err := s.Solve(context.Background(), tc.req)
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Fatalf("%s: got %v, want *ValidationError", tc.name, err)
		}
		if verr.Field != tc.field {
			t.Fatalf("%s: fault field %q, want %q", tc.name, verr.Field, tc.field)
		}
	}
}

func TestSolveWrapsMapperRejections(t *testing.T) {
	p := testProblem(t)
	// 5 clusters onto a 6-node machine: core.New must reject, and the
	// error must surface as a validation error for 400-style handling.
	clus, err := (cluster.RoundRobin{}).Cluster(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	var s Solver
	_, err = s.Solve(context.Background(), &Request{Problem: p, Topology: "mesh-2x3", Clustering: clus})
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("got %v, want *ValidationError", err)
	}
}

// TestSolveMatchesCoreRun pins the determinism contract: an explicit
// clustering with Starts <= 1 must be solved bit-identically to the
// sequential core path seeded the same way.
func TestSolveMatchesCoreRun(t *testing.T) {
	p := testProblem(t)
	sys := topology.Mesh(2, 3)
	clus, err := (cluster.RoundRobin{}).Cluster(p, sys.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	const seed = 17
	m, err := core.New(p, clus, sys, core.Options{Rand: rand.New(rand.NewSource(seed))})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}

	var s Solver
	resp, err := s.Solve(context.Background(), &Request{Problem: p, System: sys, Clustering: clus, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Result
	if !got.Assignment.Equal(want.Assignment) {
		t.Fatalf("assignment %v != core %v", got.Assignment.ProcOf, want.Assignment.ProcOf)
	}
	if got.TotalTime != want.TotalTime || got.LowerBound != want.LowerBound ||
		got.Refinements != want.Refinements || got.Improved != want.Improved ||
		got.InitialTotalTime != want.InitialTotalTime || got.OptimalProven != want.OptimalProven {
		t.Fatalf("result diverges from core run:\n got %+v\nwant %+v", got, want)
	}
	if resp.Schedule == nil || resp.Schedule.TotalTime != got.TotalTime {
		t.Fatalf("schedule missing or inconsistent: %+v", resp.Schedule)
	}
}

// TestSolverCachesDistanceTables pins the distance-table layer on its own:
// NoCache requests bypass the response cache and coalescing, so the second
// solve re-executes and must find the machine's table by content.
func TestSolverCachesDistanceTables(t *testing.T) {
	p := testProblem(t)
	sys := topology.Mesh(2, 3)
	var s Solver
	req := func() *Request { return &Request{Problem: p, System: sys, Clusterer: "round-robin", NoCache: true} }

	first, err := s.Solve(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if first.Diagnostics.DistanceCached {
		t.Fatal("first solve reported a cache hit")
	}
	if first.Diagnostics.CacheHit {
		t.Fatal("NoCache solve reported a response-cache hit")
	}
	second, err := s.Solve(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if !second.Diagnostics.DistanceCached {
		t.Fatal("second solve against the same machine missed the cache")
	}
	if !first.Result.Assignment.Equal(second.Result.Assignment) {
		t.Fatal("cache hit changed the mapping")
	}
	// The cache keys by content, not identity: an equal clone of the
	// machine shares the table.
	clone := sys.Clone()
	third, err := s.Solve(context.Background(), &Request{Problem: p, System: clone, Clusterer: "round-robin", NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !third.Diagnostics.DistanceCached {
		t.Fatal("content-equal machine missed the fingerprint-keyed distance cache")
	}
}

func TestSolverSharesTopologySpecMachines(t *testing.T) {
	p := testProblem(t)
	var s Solver
	a, err := s.Solve(context.Background(), &Request{Problem: p, Topology: "mesh-2x3", Clusterer: "blocks", NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Solve(context.Background(), &Request{Problem: p, Topology: "mesh-2x3", Clusterer: "blocks", NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.System != b.System {
		t.Fatal("same topology spec resolved to distinct machines")
	}
	if !b.Diagnostics.DistanceCached {
		t.Fatal("second solve of the same spec missed the distance cache")
	}
}

func TestSolverCacheEviction(t *testing.T) {
	p := testProblem(t)
	s := Solver{MaxCachedMachines: 1}
	specs := []string{"mesh-2x3", "ring-6", "mesh-2x3"}
	for i, spec := range specs {
		resp, err := s.Solve(context.Background(), &Request{Problem: p, Topology: spec, Clusterer: "blocks", NoCache: true})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if i == 2 && resp.Diagnostics.DistanceCached {
			t.Fatal("evicted machine still reported cached")
		}
	}
}

func TestSolveBatchIndependentOfWorkerCount(t *testing.T) {
	p := testProblem(t)
	reqs := func() []*Request {
		return []*Request{
			{Problem: p, Topology: "mesh-2x3", Clusterer: "random", Seed: 3},
			{Problem: p, Topology: "ring-6", Clusterer: "blocks", Seed: 4, Options: core.Options{Starts: 3}},
			{Problem: p, Topology: "mesh-2x3", Clusterer: "load-balance", Seed: 5},
			{Problem: p, Topology: "hypercube-3", Clusterer: "round-robin", Seed: 6},
		}
	}
	var base []*Response
	for _, workers := range []int{1, 2, 4} {
		s := Solver{Workers: workers}
		out, err := s.SolveBatch(context.Background(), reqs())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = out
			continue
		}
		for i := range out {
			if !out[i].Result.Assignment.Equal(base[i].Result.Assignment) ||
				out[i].Result.TotalTime != base[i].Result.TotalTime ||
				!reflect.DeepEqual(out[i].Clustering.Of, base[i].Clustering.Of) {
				t.Fatalf("workers=%d: request %d diverges from workers=1", workers, i)
			}
		}
	}
}

func TestSolveBatchIsolatesFailures(t *testing.T) {
	p := testProblem(t)
	var s Solver
	out, err := s.SolveBatch(context.Background(), []*Request{
		{Problem: p, Topology: "mesh-2x3", Clusterer: "blocks"},
		{Problem: p, Topology: "nonsense-9", Clusterer: "blocks"},
		{Problem: p, Topology: "ring-6", Clusterer: "blocks"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("healthy requests failed: %v / %v", out[0].Err, out[2].Err)
	}
	var verr *ValidationError
	if !errors.As(out[1].Err, &verr) {
		t.Fatalf("bad request error = %v, want *ValidationError", out[1].Err)
	}
	if out[1].Result != nil {
		t.Fatal("failed response carries a result")
	}
}

func TestSolveBatchHonoursCancellation(t *testing.T) {
	p := testProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var s Solver
	_, err := s.SolveBatch(ctx, []*Request{{Problem: p, Topology: "mesh-2x3", Clusterer: "blocks"}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
