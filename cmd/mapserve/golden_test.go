package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"mimdmap"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current response bodies")

// goldenInstance is the problem the golden bodies solve: 96 random tasks,
// dealt to the 16 processors of mesh-4x4 by the random clusterer, so swaps
// touch tasks throughout the schedule and the pair memo cannot answer most
// trials.
func goldenInstance(t *testing.T) *mimdmap.Problem {
	t.Helper()
	prob, err := mimdmap.RandomProblem(mimdmap.RandomProblemConfig{
		Tasks:         96,
		EdgeProb:      0.05,
		MinTaskSize:   1,
		MaxTaskSize:   20,
		MinEdgeWeight: 1,
		MaxEdgeWeight: 6,
		Connected:     true,
	}, rand.New(rand.NewSource(1991)))
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// goldenRequest is the wire body of one single-start /solve of the golden
// instance with the named refiner.
func goldenRequest(problem, refiner string) map[string]any {
	return map[string]any{
		"problem":     problem,
		"topology":    "mesh-4x4",
		"clusterer":   "random",
		"seed":        1991,
		"refiner":     refiner,
		"refinements": 2000,
	}
}

// TestGoldenBodies compares mapserve response bodies with their checked-in
// golden files, byte for byte: single-start /solve bodies for the paper,
// pairwise, anneal and portfolio refiners, and one warm /remap. Between
// them they price trials through every SwapSession entry point — 8-lane
// batches and solo trials of the trial queue, anneal's TrySwap, and
// full-reshuffle's TryAssign inside the portfolio — so a pricing change
// that moves any total shows up here. Regenerate with `make golden` only
// when an output change is intended.
func TestGoldenBodies(t *testing.T) {
	srv := newTestServer(t)
	prob := goldenInstance(t)
	text := problemText(t, prob)

	check := func(t *testing.T, name string, got []byte) {
		t.Helper()
		path := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("response body differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
		}
	}

	var paper solveResponse
	for _, refiner := range []string{"paper", "pairwise", "anneal", "portfolio"} {
		t.Run("solve-"+refiner, func(t *testing.T) {
			status, body := postSolve(t, srv.URL, mustJSON(t, goldenRequest(text, refiner)))
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			if refiner == "paper" {
				if err := json.Unmarshal(body, &paper); err != nil {
					t.Fatal(err)
				}
			}
			check(t, "solve-"+refiner, body)
		})
	}

	t.Run("remap-warm", func(t *testing.T) {
		if paper.Assignment == nil {
			t.Skip("the paper solve failed")
		}
		sys, err := mimdmap.TopologyByName("mesh-4x4", rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		mut, err := mimdmap.Perturb(mimdmap.Instance{Problem: prob, System: sys}, mimdmap.PerturbSpec{GrowTasks: 2}, 99)
		if err != nil {
			t.Fatal(err)
		}
		req := goldenRequest(problemText(t, mut.Problem), "paper")
		req["prev_problem"] = text
		req["prev_topology"] = "mesh-4x4"
		req["prev_assignment"] = paper.Assignment
		status, cache, body := postRemap(t, srv.URL, mustJSON(t, req))
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		if cache != "warm" {
			t.Fatalf("X-Cache = %q, want warm", cache)
		}
		check(t, "remap-warm", body)
	})
}
