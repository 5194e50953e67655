package service

// Service-level fleet tests: the forward and admit pipeline stages, wired
// with in-process hooks instead of HTTP. cmd/mapserve tests cover the wire.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mimdmap/internal/fleet"
	"mimdmap/internal/gen"
)

func fleetRequest(t *testing.T, seed int64) *Request {
	t.Helper()
	return &Request{
		Problem:   testProblem(t),
		Topology:  "mesh-2x3",
		Clusterer: "random",
		Seed:      seed,
	}
}

// inProcessFleet wires n solvers into a fleet over direct method calls:
// each solver's Forward hook ring-routes the fingerprint and calls the
// owner's Solve with a LocalOnly copy — the same shape cmd/mapserve builds
// over HTTP, minus the wire.
func inProcessFleet(n int) []*Solver {
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("replica-%d", i)
	}
	solvers := make([]*Solver, n)
	for i := range solvers {
		solvers[i] = NewSolver(1)
	}
	for i := range solvers {
		ring, err := fleet.NewRing(peers[i], peers)
		if err != nil {
			panic(err)
		}
		byName := make(map[string]*Solver, n)
		for j, p := range peers {
			byName[p] = solvers[j]
		}
		solvers[i].Forward = func(ctx context.Context, key string, req *Request) (*Response, string, error) {
			owner := ring.Owner(key)
			if owner == ring.Self() {
				return nil, "", nil
			}
			local := *req
			local.LocalOnly = true
			resp, err := byName[owner].Solve(ctx, &local)
			if err != nil {
				return nil, "", err
			}
			return resp, owner, nil
		}
	}
	return solvers
}

// marshalDeterministic projects a response onto its deterministic fields,
// the service-level stand-in for mapserve's wire body.
func marshalDeterministic(t *testing.T, resp *Response) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Assignment []int `json:"assignment"`
		TotalTime  int   `json:"total_time"`
		LowerBound int   `json:"lower_bound"`
		Start      []int `json:"start"`
		End        []int `json:"end"`
	}{resp.Result.Assignment.ProcOf, resp.Result.TotalTime, resp.Result.LowerBound, resp.Schedule.Start, resp.Schedule.End})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A fingerprint must be solved at most once fleet-wide, and the response
// must be byte-identical whichever replica receives the request, at any
// fleet size. Warm-start Remaps forward like plain solves: the projected
// incumbent is part of the fingerprint, so the owner executes the warm
// solve once and every entry replica returns its bytes.
func TestFleetForwardSolvesOnceAndMatchesSolo(t *testing.T) {
	ctx := context.Background()
	prev, _ := remapBase(t, NewSolver(1))
	remapReq := perturbedRequest(t, prev, gen.PerturbSpec{GrowTasks: 2, ReweightEdges: 0.2}, 3)
	inputs := []struct {
		name  string
		warm  bool
		issue func(s *Solver) (*Response, error)
	}{
		{"solve", false, func(s *Solver) (*Response, error) {
			return s.Solve(ctx, fleetRequest(t, 11))
		}},
		{"remap", true, func(s *Solver) (*Response, error) {
			req := *remapReq
			return s.Remap(ctx, prev, &req)
		}},
	}
	for _, in := range inputs {
		want, err := in.issue(NewSolver(1))
		if err != nil {
			t.Fatalf("%s: solo: %v", in.name, err)
		}
		if want.Diagnostics.WarmStart != in.warm {
			t.Fatalf("%s: solo WarmStart = %v, want %v", in.name, want.Diagnostics.WarmStart, in.warm)
		}
		wantBody := marshalDeterministic(t, want)

		for _, size := range []int{2, 3} {
			solvers := inProcessFleet(size)
			var totalExec uint64
			for entry := 0; entry < size; entry++ {
				resp, err := in.issue(solvers[entry])
				if err != nil {
					t.Fatalf("%s: fleet %d, entry %d: %v", in.name, size, entry, err)
				}
				if resp.Diagnostics.WarmStart != in.warm {
					t.Fatalf("%s: fleet %d, entry %d: WarmStart = %v, want %v", in.name, size, entry, resp.Diagnostics.WarmStart, in.warm)
				}
				if got := marshalDeterministic(t, resp); !bytes.Equal(got, wantBody) {
					t.Fatalf("%s: fleet %d, entry %d: response differs from solo\n got %s\nwant %s", in.name, size, entry, got, wantBody)
				}
			}
			for _, s := range solvers {
				totalExec += s.Stats().Executions
			}
			if totalExec != 1 {
				t.Fatalf("%s: fleet %d: fingerprint executed %d times fleet-wide, want exactly 1", in.name, size, totalExec)
			}
		}
	}
}

// The first non-owner request reports Forwarded with the owner's name; a
// repeat on the same replica replays the replicated fill from the local
// cache (CacheHit), keeping Forwarded as provenance.
func TestFleetForwardDiagnosticsAndReplication(t *testing.T) {
	ctx := context.Background()
	solvers := inProcessFleet(2)
	req := fleetRequest(t, 23)
	key, err := solvers[0].Fingerprint(req)
	if err != nil {
		t.Fatal(err)
	}
	// Find a replica that does NOT own the key so the first request hops.
	ring, _ := fleet.NewRing("replica-0", []string{"replica-0", "replica-1"})
	entry := 0
	if ring.Owner(key) == "replica-0" {
		entry = 1
	}
	resp, err := solvers[entry].Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Diagnostics.Forwarded || resp.Diagnostics.Owner == "" {
		t.Fatalf("first hop diagnostics: %+v", resp.Diagnostics)
	}
	if resp.Diagnostics.CacheHit || resp.Diagnostics.Coalesced {
		t.Fatalf("forwarded fill must not claim hit/coalesced: %+v", resp.Diagnostics)
	}
	again, err := solvers[entry].Solve(ctx, fleetRequest(t, 23))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Diagnostics.CacheHit || !again.Diagnostics.Forwarded {
		t.Fatalf("repeat should be a local hit of the forwarded fill: %+v", again.Diagnostics)
	}
	if st := solvers[entry].Stats(); st.Forwarded != 1 || st.Executions != 0 {
		t.Fatalf("entry replica stats: %+v", st)
	}
}

// A dead owner must not fail requests: the hop errors, the replica counts
// it and solves locally — a mid-restart fleet degrades to independent
// replicas.
func TestFleetForwardErrorFallsBackLocal(t *testing.T) {
	ctx := context.Background()
	s := NewSolver(1)
	s.Forward = func(context.Context, string, *Request) (*Response, string, error) {
		return nil, "", errors.New("peer down")
	}
	resp, err := s.Solve(ctx, fleetRequest(t, 31))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Diagnostics.Forwarded {
		t.Fatal("failed hop must not report Forwarded")
	}
	st := s.Stats()
	if st.ForwardErrors != 1 || st.Executions != 1 {
		t.Fatalf("stats after failed hop: %+v", st)
	}
}

// LocalOnly requests never consult the hook — the loop-prevention property
// forwarded requests rely on.
func TestFleetLocalOnlySkipsForward(t *testing.T) {
	s := NewSolver(1)
	called := false
	s.Forward = func(context.Context, string, *Request) (*Response, string, error) {
		called = true
		return nil, "", errors.New("must not be called")
	}
	req := fleetRequest(t, 37)
	req.LocalOnly = true
	if _, err := s.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("LocalOnly request consulted the Forward hook")
	}
}

// Concurrent identical requests on one replica share a single peer hop:
// the singleflight leader forwards, followers coalesce onto its response.
func TestFleetConcurrentRequestsShareOneHop(t *testing.T) {
	ctx := context.Background()
	var hops int
	var mu sync.Mutex
	backend := NewSolver(1)
	s := NewSolver(1)
	s.Forward = func(fctx context.Context, key string, req *Request) (*Response, string, error) {
		mu.Lock()
		hops++
		mu.Unlock()
		local := *req
		local.LocalOnly = true
		resp, err := backend.Solve(fctx, &local)
		return resp, "owner", err
	}
	const callers = 4
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Solve(ctx, fleetRequest(t, 41))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if hops != 1 {
		t.Fatalf("%d concurrent identical requests made %d hops, want 1", callers, hops)
	}
}

// Admission gates only the execute path: replayed responses (cache hits)
// are served even when the solver is saturated, and shed requests surface
// fleet.ErrSaturated.
func TestAdmissionShedsMissesServesHits(t *testing.T) {
	ctx := context.Background()
	s := NewSolver(1)
	s.Admission = fleet.NewAdmission(1, 0, 50*time.Millisecond, nil)
	warm := fleetRequest(t, 43)
	if _, err := s.Solve(ctx, warm); err != nil {
		t.Fatal(err)
	}

	// Saturate the only slot out-of-band, then: a miss must shed, a hit
	// must still be served.
	if err := s.Admission.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := s.Solve(ctx, fleetRequest(t, 44))
	if !errors.Is(err, fleet.ErrSaturated) {
		t.Fatalf("miss under saturation: got %v, want ErrSaturated", err)
	}
	hit, err := s.Solve(ctx, fleetRequest(t, 43))
	if err != nil {
		t.Fatalf("cache hit under saturation refused: %v", err)
	}
	if !hit.Diagnostics.CacheHit {
		t.Fatalf("expected a cache hit, got %+v", hit.Diagnostics)
	}
	s.Admission.Release()

	// Capacity restored: the shed request now solves.
	if _, err := s.Solve(ctx, fleetRequest(t, 44)); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if st := s.Admission.Stats(); st.Shed != 1 || st.InFlight != 0 {
		t.Fatalf("admission stats: %+v", st)
	}
}

// NoShed requests wait out saturation instead of bouncing — the async-job
// path must never shed after the store accepted the job.
func TestAdmissionNoShedWaits(t *testing.T) {
	ctx := context.Background()
	s := NewSolver(1)
	s.Admission = fleet.NewAdmission(1, 0, time.Millisecond, nil)
	if err := s.Admission.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	req := fleetRequest(t, 47)
	req.NoShed = true
	done := make(chan error, 1)
	go func() {
		_, err := s.Solve(ctx, req)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // well past maxWait
	select {
	case err := <-done:
		t.Fatalf("NoShed request returned early: %v", err)
	default:
	}
	s.Admission.Release()
	if err := <-done; err != nil {
		t.Fatalf("NoShed solve after release: %v", err)
	}
}

// The fingerprint must ignore the fleet control fields: LocalOnly and
// NoShed route and queue, they do not change the answer, so they must not
// split cache entries (a forwarded fill must be a local hit for a direct
// repeat).
func TestFingerprintIgnoresFleetFields(t *testing.T) {
	s := NewSolver(1)
	base := fleetRequest(t, 53)
	k1, err := s.Fingerprint(base)
	if err != nil {
		t.Fatal(err)
	}
	variant := *base
	variant.LocalOnly = true
	variant.NoShed = true
	k2, err := s.Fingerprint(&variant)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == "" || k1 != k2 {
		t.Fatalf("fleet control fields split the fingerprint: %q vs %q", k1, k2)
	}
	noCache := *base
	noCache.NoCache = true
	k3, err := s.Fingerprint(&noCache)
	if err != nil {
		t.Fatal(err)
	}
	if k3 != "" {
		t.Fatalf("NoCache request got fingerprint %q, want uncacheable", k3)
	}
}
