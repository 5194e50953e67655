package main

// Wire-level fleet tests: real HTTP replicas forwarding over POST
// /fleet/solve, overload shedding with 503 + Retry-After, the expanded
// GET /stats sections, and the run() drain seam. The transport-free fleet
// semantics (ring, admission, pipeline stages) are covered in
// internal/service and internal/fleet.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"mimdmap"
)

// handlerProxy lets an httptest server start before its real handler
// exists — fleet replicas need each other's URLs before newServer runs.
type handlerProxy struct {
	mu sync.RWMutex
	h  http.Handler
}

func (p *handlerProxy) set(h http.Handler) {
	p.mu.Lock()
	p.h = h
	p.mu.Unlock()
}

func (p *handlerProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.RLock()
	h := p.h
	p.mu.RUnlock()
	if h == nil {
		http.Error(w, "replica not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// newHTTPFleet starts n mapserve replicas over real HTTP, each knowing the
// whole fleet's URLs, and returns their servers and URLs in matching
// order. cfg seeds every replica's config; self and peers are filled in.
func newHTTPFleet(t *testing.T, n int, cfg serverConfig) ([]*server, []string) {
	t.Helper()
	proxies := make([]*handlerProxy, n)
	urls := make([]string, n)
	for i := range proxies {
		proxies[i] = &handlerProxy{}
		hs := httptest.NewServer(proxies[i])
		t.Cleanup(hs.Close)
		urls[i] = hs.URL
	}
	srvs := make([]*server, n)
	for i := range srvs {
		rcfg := cfg
		rcfg.self = urls[i]
		rcfg.peers = urls
		s, err := newServer(context.Background(), mimdmap.NewSolver(0), rcfg)
		if err != nil {
			t.Fatal(err)
		}
		proxies[i].set(s.handler)
		srvs[i] = s
	}
	return srvs, urls
}

// fleetSolveBody is the one request body the fleet tests replay.
func fleetSolveBody(t *testing.T) string {
	t.Helper()
	probText, _ := serveInstance(t)
	return mustJSON(t, map[string]any{
		"problem": probText, "topology": "mesh-2x3", "clusterer": "random", "seed": 17,
	})
}

// TestFleetHTTPByteIdenticalAndSingleExecution is the fleet acceptance
// gate at the wire: the same request posted to every replica of a 3-node
// fleet returns bodies byte-identical to a single-process mapserve, and
// the fingerprint is executed exactly once fleet-wide.
func TestFleetHTTPByteIdenticalAndSingleExecution(t *testing.T) {
	body := fleetSolveBody(t)
	solo := newTestServer(t)
	status, want := postSolve(t, solo.URL, body)
	if status != http.StatusOK {
		t.Fatalf("solo solve: status %d: %s", status, want)
	}

	srvs, urls := newHTTPFleet(t, 3, serverConfig{limit: 4, queue: 64})
	for i, u := range urls {
		status, got := postSolve(t, u, body)
		if status != http.StatusOK {
			t.Fatalf("replica %d: status %d: %s", i, status, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("replica %d body differs from single-process mapserve:\ngot:  %s\nwant: %s", i, got, want)
		}
	}
	var execs uint64
	for _, s := range srvs {
		execs += s.solver.Stats().Executions
	}
	if execs != 1 {
		t.Fatalf("fingerprint executed %d times fleet-wide, want exactly 1", execs)
	}
}

// TestFleetHTTPForwardedHeaders pins the provenance headers: the first
// request on a non-owning replica answers X-Cache: forwarded with the
// owner's URL in X-Fleet-Owner, the owner itself answers miss, and a
// repeat on the forwarding replica replays the replicated fill as a hit.
func TestFleetHTTPForwardedHeaders(t *testing.T) {
	body := fleetSolveBody(t)
	srvs, urls := newHTTPFleet(t, 2, serverConfig{limit: 4, queue: 64})

	var wire solveRequest
	if err := json.Unmarshal([]byte(body), &wire); err != nil {
		t.Fatal(err)
	}
	req, err := toRequest(&wire, 0)
	if err != nil {
		t.Fatal(err)
	}
	key, err := srvs[0].solver.Fingerprint(req)
	if err != nil || key == "" {
		t.Fatalf("fingerprint: %q, %v", key, err)
	}
	owner := srvs[0].ring.Owner(key)
	entry := 0
	if urls[entry] == owner {
		entry = 1
	}

	post := func(u string) *http.Response {
		t.Helper()
		resp, err := http.Post(u+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	resp := post(urls[entry])
	if got := resp.Header.Get("X-Cache"); got != "forwarded" {
		t.Fatalf("non-owner first request X-Cache %q, want forwarded", got)
	}
	if got := resp.Header.Get("X-Fleet-Owner"); got != owner {
		t.Fatalf("X-Fleet-Owner %q, want %q", got, owner)
	}
	resp = post(urls[entry])
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat on forwarding replica X-Cache %q, want hit (replicated fill)", got)
	}
	resp = post(owner)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("owner replay X-Cache %q, want hit", got)
	}

	// The forwarding replica's stats carry the fleet section with the hop.
	ownerIdx := 0
	if urls[1] == owner {
		ownerIdx = 1
	}
	st := srvs[entry].stats()
	if st.Fleet == nil || st.Fleet.Forwarded != 1 || st.Fleet.LocalExecutions != 0 {
		t.Fatalf("forwarding replica fleet stats: %+v", st.Fleet)
	}
	if st := srvs[ownerIdx].stats(); st.Fleet == nil || st.Fleet.LocalExecutions != 1 {
		t.Fatalf("owner fleet stats: %+v", st.Fleet)
	}
}

// TestOverloadShedsWith503 pins the load-shedding wire contract: a
// saturated server sheds fresh work with 503 + Retry-After and counts the
// shed, while cache hits keep flowing.
func TestOverloadShedsWith503(t *testing.T) {
	body := fleetSolveBody(t)
	srv, err := newServer(context.Background(), mimdmap.NewSolver(0), serverConfig{
		limit:     1,
		queue:     0,
		queueWait: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.handler)
	t.Cleanup(hs.Close)

	// Warm the cache, then saturate the only solve slot out-of-band.
	if status, b := postSolve(t, hs.URL, body); status != http.StatusOK {
		t.Fatalf("warm solve: status %d: %s", status, b)
	}
	if err := srv.admission.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.admission.Release()

	// A fresh fingerprint needs an execution: shed.
	missBody := strings.Replace(body, `"seed":17`, `"seed":18`, 1)
	resp, err := http.Post(hs.URL+"/solve", "application/json", strings.NewReader(missBody))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("miss under saturation: status %d (want 503): %s", resp.StatusCode, b)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("503 without a usable Retry-After: %q", ra)
	}

	// The warm fingerprint replays from the cache regardless.
	resp, err = http.Post(hs.URL+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("hit under saturation: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}

	st := srv.stats()
	if st.Admission.Shed != 1 {
		t.Fatalf("admission stats after shed: %+v", st.Admission)
	}
	if st.Latency["solve"].Count < 3 {
		t.Fatalf("solve latency histogram counted %d requests, want ≥ 3", st.Latency["solve"].Count)
	}
}

// TestStatsSectionsSingleProcess pins the expanded GET /stats wire shape
// outside fleet mode: admission and latency sections always present, the
// fleet section absent.
func TestStatsSectionsSingleProcess(t *testing.T) {
	srv := newTestServer(t)
	if status, b := postSolve(t, srv.URL, fleetSolveBody(t)); status != http.StatusOK {
		t.Fatalf("solve: status %d: %s", status, b)
	}
	status, body := getJSON(t, srv.URL+"/stats")
	if status != http.StatusOK {
		t.Fatalf("GET /stats: %d", status)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"cache", "jobs", "admission", "latency"} {
		if _, ok := raw[section]; !ok {
			t.Fatalf("stats body missing %q section: %s", section, body)
		}
	}
	if _, ok := raw["fleet"]; ok {
		t.Fatalf("single-process stats carry a fleet section: %s", body)
	}
	var stats statsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Admission.Slots != 4 {
		t.Fatalf("admission slots %d, want the configured limit 4", stats.Admission.Slots)
	}
	if snap := stats.Latency["solve"]; snap.Count != 1 || snap.P99MS < 0 {
		t.Fatalf("solve latency snapshot: %+v", snap)
	}
}

// TestFleetConfigValidation pins config failures: a self outside the peer
// list must refuse to start.
func TestFleetConfigValidation(t *testing.T) {
	_, err := newServer(context.Background(), mimdmap.NewSolver(0), serverConfig{
		limit: 1,
		self:  "http://c",
		peers: []string{"http://a", "http://b"},
	})
	if err == nil {
		t.Fatal("self outside the peer list was accepted")
	}
}

// syncBuffer is a goroutine-safe writer capturing run()'s stdout.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenLine = regexp.MustCompile(`listening on ([^ ]+) `)

// TestRunDrainsJobsBeforeExit drives the run() seam end to end: start on a
// random port, accept an async job, deliver the shutdown signal, and
// require that run finishes the accepted job before exiting — the
// rolling-restart contract.
func TestRunDrainsJobsBeforeExit(t *testing.T) {
	probText, _ := serveInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-drain", "5s"}, &out)
	}()

	var base string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenLine.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if base == "" {
		t.Fatalf("run never printed its listen address; output: %q", out.String())
	}

	jobBody := mustJSON(t, map[string]any{
		"problem": probText, "topology": "mesh-2x3", "clusterer": "random", "seed": 71, "starts": 2,
	})
	status, created := postJSON(t, base+"/jobs", jobBody)
	if status != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d: %s", status, created)
	}
	var jc jobCreatedResponse
	if err := json.Unmarshal(created, &jc); err != nil {
		t.Fatal(err)
	}

	// Shut down immediately — the accepted job may still be queued or
	// running; run must wait it out.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after shutdown signal")
	}
	output := out.String()
	if !strings.Contains(output, "draining") || !strings.Contains(output, "bye") {
		t.Fatalf("run output missing drain lines: %q", output)
	}
	if strings.Contains(output, "drain budget expired") {
		t.Fatalf("drain budget expired with jobs running: %q", output)
	}
}

// TestRunRejectsBadFleetFlags pins the flag contract: -peers without
// -self must fail before binding a socket.
func TestRunRejectsBadFleetFlags(t *testing.T) {
	err := run(context.Background(), []string{"-peers", "http://a,http://b"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-self") {
		t.Fatalf("run accepted -peers without -self: %v", err)
	}
}

// TestForwardWireDeclinesUnrepresentable pins the decline contract: a
// request whose state the wire cannot carry must not be forwarded (the
// hook then solves locally), while a plain wire-built request must travel.
func TestForwardWireDeclinesUnrepresentable(t *testing.T) {
	probText, _ := serveInstance(t)
	wire := solveRequest{Problem: probText, Topology: "mesh-2x3", Clusterer: "random", Seed: 5}
	base, err := toRequest(&wire, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := toForwardWire(base); !ok {
		t.Fatal("plain wire-built request declined")
	}
	cases := map[string]func(r *mimdmap.Request){
		"no_cache":      func(r *mimdmap.Request) { r.NoCache = true },
		"omit_schedule": func(r *mimdmap.Request) { r.OmitSchedule = true },
		"record_trials": func(r *mimdmap.Request) { r.Options.RecordTrials = true },
	}
	for name, mutate := range cases {
		req, err := toRequest(&wire, 0)
		if err != nil {
			t.Fatal(err)
		}
		mutate(req)
		if _, ok := toForwardWire(req); ok {
			t.Fatalf("%s: unrepresentable request was declared forwardable", name)
		}
	}
}

// TestForwardRoundTripPreservesFingerprint pins the invariant fleet-wide
// caching rests on: the request rebuilt from the forwarding wire has the
// same fingerprint as the original, so the owner's cache key matches the
// requester's.
func TestForwardRoundTripPreservesFingerprint(t *testing.T) {
	probText, _ := serveInstance(t)
	solver := mimdmap.NewSolver(0)
	wire := solveRequest{Problem: probText, Topology: "mesh-2x3", Clusterer: "random", Seed: 29, Starts: 2}
	req, err := toRequest(&wire, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := solver.Fingerprint(req)
	if err != nil || want == "" {
		t.Fatalf("fingerprint: %q, %v", want, err)
	}
	fw, ok := toForwardWire(req)
	if !ok {
		t.Fatal("request declined")
	}
	b, err := json.Marshal(fw)
	if err != nil {
		t.Fatal(err)
	}
	var decoded forwardRequest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decoded); err != nil {
		t.Fatalf("forward wire does not round-trip JSON: %v\n%s", err, b)
	}
	rebuilt, err := toForwardRequest(&decoded, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt.LocalOnly {
		t.Fatal("rebuilt forwarded request is not LocalOnly")
	}
	got, err := solver.Fingerprint(rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("fingerprint changed across the forwarding wire:\nwant %s\ngot  %s", want, got)
	}
}

// TestSaturatedOwnerFallsBackLocal pins the degraded mode at the wire: a
// saturated owner sheds the forwarded fill, and the requester solves
// locally instead of failing the client.
func TestSaturatedOwnerFallsBackLocal(t *testing.T) {
	body := fleetSolveBody(t)
	srvs, urls := newHTTPFleet(t, 2, serverConfig{
		limit:     1,
		queue:     0,
		queueWait: 20 * time.Millisecond,
	})

	var wire solveRequest
	if err := json.Unmarshal([]byte(body), &wire); err != nil {
		t.Fatal(err)
	}
	req, err := toRequest(&wire, 0)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := srvs[0].solver.Fingerprint(req)
	owner := srvs[0].ring.Owner(key)
	ownerIdx, entry := 0, 1
	if urls[1] == owner {
		ownerIdx, entry = 1, 0
	}

	// Saturate the owner's only slot (no queue seats in this config): any
	// fresh fill on it now sheds within queueWait.
	if err := srvs[ownerIdx].admission.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srvs[ownerIdx].admission.Release()

	resp, err := http.Post(urls[entry]+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request with saturated owner: status %d, want 200 via local fallback", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("local fallback X-Cache %q, want miss", got)
	}
	if fs := srvs[entry].stats().Fleet; fs == nil || fs.ForwardErrors != 1 || fs.LocalExecutions != 1 {
		t.Fatalf("requester fleet stats after fallback: %+v", fs)
	}
}
