package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mimdmap"
)

// serveInstance returns the text form of a deterministic 24-task problem
// and the equivalent in-memory problem for library-side comparison.
func serveInstance(t *testing.T) (string, *mimdmap.Problem) {
	t.Helper()
	prob, err := mimdmap.RandomProblem(mimdmap.RandomProblemConfig{
		Tasks:         24,
		EdgeProb:      0.12,
		MinTaskSize:   1,
		MaxTaskSize:   9,
		MinEdgeWeight: 1,
		MaxEdgeWeight: 4,
		Connected:     true,
	}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := mimdmap.WriteProblem(&text, prob); err != nil {
		t.Fatal(err)
	}
	return text.String(), prob
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newHandler(context.Background(), mimdmap.NewSolver(0), serverConfig{limit: 4, queue: 64}))
	t.Cleanup(srv.Close)
	return srv
}

func postSolve(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/solve", "application/json", strings.NewReader(body))
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

// TestSolveEndToEndMatchesLibrary is the serving acceptance gate: many
// concurrent clients sending one request body must all receive bodies that
// are byte-identical to each other and numerically identical to the library
// solving the same request directly.
func TestSolveEndToEndMatchesLibrary(t *testing.T) {
	probText, prob := serveInstance(t)
	srv := newTestServer(t)

	wire, err := json.Marshal(map[string]any{
		"problem":   probText,
		"topology":  "mesh-2x3",
		"clusterer": "round-robin",
		"seed":      7,
		"starts":    3,
	})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 12
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/solve", "application/json", bytes.NewReader(wire))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			bodies[i], err = io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}

	// The library result for the same request.
	libReq := &mimdmap.Request{Problem: prob, Topology: "mesh-2x3", Clusterer: "round-robin", Seed: 7}
	libReq.Options.Starts = 3
	lib, err := mimdmap.Solve(context.Background(), libReq)
	if err != nil {
		t.Fatal(err)
	}
	var got solveResponse
	if err := json.Unmarshal(bodies[0], &got); err != nil {
		t.Fatal(err)
	}
	// Byte-identity across concurrent multi-start clients is only
	// guaranteed while no chain proves optimality (early cancellation may
	// then return any proven-optimal assignment). This instance must stay
	// short of its bound; if it ever reaches it, pick a harder instance.
	if got.OptimalProven {
		t.Fatal("test instance proves optimality; byte-identity assertion needs a harder instance")
	}
	if !reflect.DeepEqual(got.Assignment, lib.Result.Assignment.ProcOf) {
		t.Fatalf("served assignment %v != library %v", got.Assignment, lib.Result.Assignment.ProcOf)
	}
	if got.TotalTime != lib.Result.TotalTime || got.LowerBound != lib.Result.LowerBound ||
		got.OptimalProven != lib.Result.OptimalProven {
		t.Fatalf("served result %+v disagrees with library %+v", got, lib.Result)
	}
	if !reflect.DeepEqual(got.Start, lib.Schedule.Start) || !reflect.DeepEqual(got.End, lib.Schedule.End) {
		t.Fatal("served schedule disagrees with library schedule")
	}
	if got.Machine != "mesh-2x3" || got.Nodes != 6 || got.Clusterer != "round-robin" {
		t.Fatalf("diagnostics wrong: %+v", got)
	}
}

func TestSolveAcceptsSystemText(t *testing.T) {
	probText, _ := serveInstance(t)
	var sysText strings.Builder
	if err := mimdmap.WriteSystem(&sysText, mimdmap.Ring(6)); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t)
	wire, _ := json.Marshal(map[string]any{
		"problem": probText, "system": sysText.String(), "clusterer": "blocks",
	})
	status, body := postSolve(t, srv.URL, string(wire))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var got solveResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Nodes != 6 || len(got.Assignment) != 6 {
		t.Fatalf("unexpected response: %+v", got)
	}
}

func TestSolveRejectsMalformedRequests(t *testing.T) {
	probText, _ := serveInstance(t)
	srv := newTestServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"truncated JSON", `{"problem": "3`},
		{"unknown field", `{"problme": "x"}`},
		{"no machine", mustJSON(t, map[string]any{"problem": probText, "clusterer": "random"})},
		{"unknown clusterer", mustJSON(t, map[string]any{"problem": probText, "topology": "ring-6", "clusterer": "nope"})},
		{"unknown topology", mustJSON(t, map[string]any{"problem": probText, "topology": "tesseract-4", "clusterer": "random"})},
		{"garbage problem text", mustJSON(t, map[string]any{"problem": "not a graph", "topology": "ring-6", "clusterer": "random"})},
	}
	for _, tc := range cases {
		status, body := postSolve(t, srv.URL, tc.body)
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status %d (want 400): %s", tc.name, status, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("%s: error body not JSON: %s", tc.name, body)
		}
	}
}

// TestSolveRejectsOversizeTopology sends topology specs whose machines
// would need gigabytes to build: each must come back as a 400 naming
// the Topology field, decided before the machine is allocated.
func TestSolveRejectsOversizeTopology(t *testing.T) {
	probText, _ := serveInstance(t)
	srv := newTestServer(t)
	for _, spec := range []string{"ring-1000000", "hypercube-20", "mesh-4611686018427387904x4"} {
		status, body := postSolve(t, srv.URL, mustJSON(t, map[string]any{
			"problem": probText, "topology": spec, "clusterer": "random",
		}))
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("%s: error body not JSON: %s", spec, body)
		}
		if status != http.StatusBadRequest || !strings.Contains(e.Error, "Topology") {
			t.Fatalf("%s: status %d, error %q; want a 400 naming Topology", spec, status, e.Error)
		}
	}
}

func TestSolveMethodAndHealth(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz status %d, want 200", resp.StatusCode)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
