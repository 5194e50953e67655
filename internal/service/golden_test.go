package service

import (
	"math/rand"
	"testing"

	"mimdmap/internal/core"
	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/paths"
	"mimdmap/internal/topology"
)

// TestGoldenFingerprints pins the exact content addresses of fixed inputs.
// Fingerprints key the response cache and travel between fleet replicas, so
// a change to what they hash must bump the domain tag ("mimdmap/problem/v1",
// "mimdmap/request/v3"); an internal refactor of how the hashed bytes are
// produced must leave every digest below unchanged.
func TestGoldenFingerprints(t *testing.T) {
	diamond := graph.NewProblem(4)
	diamond.Size = []int{2, 1, 3, 1}
	diamond.SetEdge(0, 1, 1)
	diamond.SetEdge(0, 2, 2)
	diamond.SetEdge(1, 3, 4)
	diamond.SetEdge(2, 3, 1)

	table, clus, err := gen.TableInstance(32, 7)
	if err != nil {
		t.Fatal(err)
	}
	random, err := gen.Random(gen.RandomConfig{
		Tasks: 300, EdgeProb: 3.0 / 300, MinTaskSize: 1, MaxTaskSize: 20,
		MinEdgeWeight: 1, MaxEdgeWeight: 5, Connected: true,
	}, rand.New(rand.NewSource(1991)))
	if err != nil {
		t.Fatal(err)
	}
	requestKey := func(o core.Options) string {
		key, err := (&Solver{}).Fingerprint(&Request{
			Problem: table, Clustering: clus, Topology: "hypercube-5", Refiner: "paper", Seed: 42, Options: o,
		})
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	// The Dist and Delays keys pin how a caller-supplied distance table and
	// per-link delays are folded into the request digest, cell by cell.
	cube := topology.Hypercube(5)
	delays := paths.NewLinkDelays(cube.NumNodes())
	for a := 0; a < cube.NumNodes(); a++ {
		for _, b := range cube.Neighbors(a) {
			delays.Set(a, b, 1+(a+b)%3)
		}
	}

	for _, tc := range []struct{ name, got, want string }{
		{"diamond", diamond.Fingerprint().String(), "f356c4e5e2eeeebdbd6e126d807be2128c61e1d7f3a38da2212d809853db636b"},
		{"table-instance", table.Fingerprint().String(), "82a7981cc8949b90b842c1036ed73ad5469b70012afc7af3e93c221340f482d2"},
		{"random-300", random.Fingerprint().String(), "1f30aabfd247ba99811ef62d9c6b10242edf8a33879431064cfa78aa7f81bd97"},
		{"request", requestKey(core.Options{}), "29d959d337bae0966580111c646c94a6a3eb5a3068b18d4c77e552b1d1753a0b"},
		{"request-dist", requestKey(core.Options{Dist: paths.New(cube)}), "cfdecdef2c7059b8c86bd33fee83b83e5ac9475359652fb2b31f80201ea5b124"},
		{"request-delays", requestKey(core.Options{Delays: delays}), "eee268f9b2c58185684acc615341d45d4acb7bfe7241f4b392c5e2b49f75c189"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s fingerprint = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}
