package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mimdmap"
	"mimdmap/internal/fleet"
)

// postJSON posts body to url and returns status + body.
func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// getJSON fetches url and returns status + body.
func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// awaitJob polls GET /jobs/{id} until the job leaves the queued/running
// states or the deadline passes.
func awaitJob(t *testing.T, base, id string) jobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		status, body := getJSON(t, base+"/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("GET /jobs/%s status %d: %s", id, status, body)
		}
		var js jobStatusResponse
		if err := json.Unmarshal(body, &js); err != nil {
			t.Fatalf("job status not JSON: %s", body)
		}
		if js.State == jobDone || js.State == jobFailed {
			return js
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return jobStatusResponse{}
}

// TestJobLifecycleMatchesSolve is the async acceptance gate: a submitted
// job must finish with exactly the result POST /solve returns for the same
// body.
func TestJobLifecycleMatchesSolve(t *testing.T) {
	probText, _ := serveInstance(t)
	srv := newTestServer(t)
	body := mustJSON(t, map[string]any{
		"problem": probText, "topology": "mesh-2x3", "clusterer": "blocks", "seed": 11,
	})

	status, sync := postSolve(t, srv.URL, body)
	if status != http.StatusOK {
		t.Fatalf("POST /solve status %d: %s", status, sync)
	}
	var want solveResponse
	if err := json.Unmarshal(sync, &want); err != nil {
		t.Fatal(err)
	}

	status, created := postJSON(t, srv.URL+"/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("POST /jobs status %d (want 202): %s", status, created)
	}
	var jc jobCreatedResponse
	if err := json.Unmarshal(created, &jc); err != nil || jc.ID == "" {
		t.Fatalf("job creation body not usable: %s", created)
	}
	if jc.URL != "/jobs/"+jc.ID {
		t.Fatalf("job URL %q does not match id %q", jc.URL, jc.ID)
	}

	js := awaitJob(t, srv.URL, jc.ID)
	if js.State != jobDone || js.Error != "" {
		t.Fatalf("job state %q (err %q), want done", js.State, js.Error)
	}
	if js.Result == nil {
		t.Fatal("done job carries no result")
	}
	if !reflect.DeepEqual(*js.Result, want) {
		t.Fatalf("job result diverges from /solve:\njob:   %+v\nsolve: %+v", *js.Result, want)
	}
	if js.Duration == "" {
		t.Fatal("finished job reports no duration")
	}
}

// TestJobBatchIsolatesFailures pins the batch path: per-request failures
// land in their own slots, healthy requests still solve, and the job as a
// whole completes.
func TestJobBatchIsolatesFailures(t *testing.T) {
	probText, _ := serveInstance(t)
	srv := newTestServer(t)
	body := mustJSON(t, map[string]any{
		"requests": []map[string]any{
			{"problem": probText, "topology": "mesh-2x3", "clusterer": "blocks", "seed": 1},
			{"problem": probText, "topology": "tesseract-4", "clusterer": "blocks"},
			{"problem": probText, "topology": "ring-6", "clusterer": "round-robin", "seed": 2},
		},
	})
	status, created := postJSON(t, srv.URL+"/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("batch POST /jobs status %d: %s", status, created)
	}
	var jc jobCreatedResponse
	if err := json.Unmarshal(created, &jc); err != nil {
		t.Fatal(err)
	}
	js := awaitJob(t, srv.URL, jc.ID)
	if js.State != jobDone {
		t.Fatalf("batch job state %q, want done", js.State)
	}
	if js.Requests != 3 || len(js.Results) != 3 {
		t.Fatalf("batch shape wrong: requests=%d results=%d", js.Requests, len(js.Results))
	}
	if js.Results[0].Result == nil || js.Results[2].Result == nil {
		t.Fatalf("healthy batch items missing results: %+v", js.Results)
	}
	if js.Results[1].Error == "" || js.Results[1].Result != nil {
		t.Fatalf("failing batch item not isolated: %+v", js.Results[1])
	}
}

// TestJobValidation pins submission-time failures: malformed graphs and
// mixed single+batch bodies are rejected before a job exists.
func TestJobValidation(t *testing.T) {
	probText, _ := serveInstance(t)
	srv := newTestServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"garbage problem", mustJSON(t, map[string]any{"problem": "nope", "topology": "ring-6", "clusterer": "blocks"})},
		{"mixed single and batch", mustJSON(t, map[string]any{
			"problem":  probText,
			"topology": "ring-6",
			"requests": []map[string]any{{"problem": probText, "topology": "ring-6", "clusterer": "blocks"}},
		})},
		{"bad batch item", mustJSON(t, map[string]any{
			"requests": []map[string]any{{"problem": "nope", "topology": "ring-6", "clusterer": "blocks"}},
		})},
		{"unknown field", `{"problme": "x"}`},
	}
	for _, tc := range cases {
		status, body := postJSON(t, srv.URL+"/jobs", tc.body)
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status %d (want 400): %s", tc.name, status, body)
		}
	}

	if status, _ := getJSON(t, srv.URL+"/jobs/nope"); status != http.StatusNotFound {
		t.Fatalf("unknown job id: status %d, want 404", status)
	}
}

// TestStartsCapAnswers400 sends a starts value no solve could size its
// chains for, to /solve and /jobs, inline and as a batch item: each must
// come back as a 400 before any work starts, and the server must keep
// serving afterwards.
func TestStartsCapAnswers400(t *testing.T) {
	probText, _ := serveInstance(t)
	srv := newTestServer(t)
	item := map[string]any{"problem": probText, "topology": "ring-6", "clusterer": "blocks", "starts": int64(1) << 62}
	for _, tc := range []struct{ route, body string }{
		{"/solve", mustJSON(t, item)},
		{"/jobs", mustJSON(t, item)},
		{"/jobs", mustJSON(t, map[string]any{"requests": []map[string]any{item}})},
	} {
		status, body := postJSON(t, srv.URL+tc.route, tc.body)
		if status != http.StatusBadRequest || !strings.Contains(string(body), "starts") {
			t.Fatalf("POST %s: status %d (want 400 naming starts): %s", tc.route, status, body)
		}
	}
	item["starts"] = 2
	if status, body := postSolve(t, srv.URL, mustJSON(t, item)); status != http.StatusOK {
		t.Fatalf("solve after the rejections: status %d: %s", status, body)
	}
}

// TestJobStoreBoundsAndTTL exercises the store directly: the capacity
// bound evicts finished jobs first and refuses when everything is live,
// and finished jobs expire after the TTL.
func TestJobStoreBoundsAndTTL(t *testing.T) {
	_, prob := serveInstance(t)
	solver := mimdmap.NewSolver(0)
	// Two solve slots, no shed queue: saturating both via Acquire below
	// leaves NoShed job requests waiting inside the solver's admit stage.
	solver.Admission = fleet.NewAdmission(2, 0, time.Minute, nil)
	store := newJobStore(context.Background(), solver, 1, 30*time.Millisecond, nil)

	req := &mimdmap.Request{Problem: prob, Topology: "mesh-2x3", Clusterer: "blocks", Seed: 3}
	id1, err := store.submitSingle(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState := func(id, want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if js, ok := store.status(id); ok && js.State == want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("job %s never reached state %s", id, want)
	}
	waitState(id1, jobDone)

	// The store holds one finished job; a second submission evicts it.
	id2, err := store.submitSingle(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.status(id1); ok {
		t.Fatal("finished job survived capacity eviction")
	}
	waitState(id2, jobDone)

	// TTL: once expired, the job is gone.
	time.Sleep(40 * time.Millisecond)
	if _, ok := store.status(id2); ok {
		t.Fatal("finished job survived its TTL")
	}

	// A store full of unfinished work refuses new submissions.
	ctx := context.Background()
	if err := solver.Admission.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := solver.Admission.Acquire(ctx); err != nil {
		t.Fatal(err) // all slots taken: the next job waits in admission
	}
	// The queued job must miss the response cache: a repeat of req is
	// answered from the cache before the admission stage, finishes at once
	// and frees its place in the store.
	idQueued, err := store.submitSingle(&mimdmap.Request{
		Problem: prob, Topology: "mesh-2x3", Clusterer: "blocks", Seed: 3, NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.submitSingle(req); err == nil {
		t.Fatal("full store of live jobs accepted another submission")
	}
	solver.Admission.Release()
	solver.Admission.Release()
	waitState(idQueued, jobDone)

	c := store.counters()
	if c.Submitted != 3 || c.Completed != 3 {
		t.Fatalf("counters off: %+v", c)
	}
}

// TestStatsEndpoint pins GET /stats: JSON with both sections, and the
// cache counters moving as identical requests repeat.
func TestStatsEndpoint(t *testing.T) {
	probText, _ := serveInstance(t)
	srv := newTestServer(t)
	body := mustJSON(t, map[string]any{
		"problem": probText, "topology": "mesh-2x3", "clusterer": "blocks", "seed": 4,
	})
	var miss, hit []byte
	for i := 0; i < 2; i++ {
		resp, err := http.Post(srv.URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d failed: %s", i, b)
		}
		switch i {
		case 0:
			miss = b
			if got := resp.Header.Get("X-Cache"); got != "miss" {
				t.Fatalf("first solve X-Cache %q, want miss", got)
			}
		case 1:
			hit = b
			if got := resp.Header.Get("X-Cache"); got != "hit" {
				t.Fatalf("second solve X-Cache %q, want hit", got)
			}
		}
	}
	if string(miss) != string(hit) {
		t.Fatalf("cache hit body differs from cold body:\ncold: %s\nhit:  %s", miss, hit)
	}

	status, body2 := getJSON(t, srv.URL+"/stats")
	if status != http.StatusOK {
		t.Fatalf("GET /stats status %d: %s", status, body2)
	}
	var stats statsResponse
	if err := json.Unmarshal(body2, &stats); err != nil {
		t.Fatalf("stats not JSON: %s", body2)
	}
	if stats.Cache.Solves < 2 || stats.Cache.ResultHits < 1 {
		t.Fatalf("cache counters did not move: %+v", stats.Cache)
	}
}

// TestJobsEndpointMethods pins routing: GET /jobs (no id) and POST to a
// job id are not served.
func TestJobsEndpointMethods(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("GET /jobs without an id should not be served")
	}
	resp, err = http.Post(srv.URL+"/jobs/j1", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /jobs/{id} status %d, want 405", resp.StatusCode)
	}
}

// TestJobStoreShutdown pins that jobs waiting out a saturated admission
// gate fail cleanly when the server context dies instead of leaking
// goroutines.
func TestJobStoreShutdown(t *testing.T) {
	_, prob := serveInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	solver := mimdmap.NewSolver(0)
	solver.Admission = fleet.NewAdmission(1, 0, time.Minute, nil)
	if err := solver.Admission.Acquire(context.Background()); err != nil {
		t.Fatal(err) // the only slot is taken forever
	}
	store := newJobStore(ctx, solver, 4, time.Minute, nil)
	id, err := store.submitSingle(&mimdmap.Request{Problem: prob, Topology: "ring-6", Clusterer: "blocks"})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if js, ok := store.status(id); ok && js.State == jobFailed {
			if js.Error == "" {
				t.Fatal("shutdown-failed job carries no error")
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("queued job did not fail on shutdown")
}

// fakeClock is a mutex-guarded manual clock for driving jobStore pruning.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestJobStoreBackgroundSweep pins the background sweeper: a finished job
// on an otherwise idle store — no status, submit, or counters calls, which
// all prune lazily — must still be evicted once the fake clock passes its
// TTL, because the sweep goroutine prunes on its own timer.
func TestJobStoreBackgroundSweep(t *testing.T) {
	_, prob := serveInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	solver := mimdmap.NewSolver(0)
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	// ttl 40ms → the real-time sweep ticker fires every 10ms; expiry itself
	// is judged purely against the fake clock.
	store := newJobStore(ctx, solver, 4, 40*time.Millisecond, clock.Now)

	id, err := store.submitSingle(&mimdmap.Request{Problem: prob, Topology: "ring-6", Clusterer: "blocks", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	stored := func() int {
		store.mu.Lock()
		defer store.mu.Unlock()
		return len(store.jobs)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if js, ok := store.status(id); ok && js.State == jobDone {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if js, ok := store.status(id); !ok || js.State != jobDone {
		t.Fatal("job never finished")
	}

	// Not yet expired on the fake clock: several real sweep ticks must
	// leave it alone.
	time.Sleep(50 * time.Millisecond)
	if got := stored(); got != 1 {
		t.Fatalf("unexpired job swept: %d stored, want 1", got)
	}

	clock.Advance(time.Hour)
	for time.Now().Before(deadline) {
		if stored() == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := stored(); got != 0 {
		t.Fatalf("expired job still stored (%d) despite background sweep", got)
	}
	store.mu.Lock()
	evicted := store.evicted
	store.mu.Unlock()
	if evicted != 1 {
		t.Fatalf("evicted counter = %d, want 1", evicted)
	}

	// The sweeper dies with the context: cancelling and advancing the clock
	// must not panic or race (covered by -race runs of this package).
	cancel()
	clock.Advance(time.Hour)
	time.Sleep(20 * time.Millisecond)
}
