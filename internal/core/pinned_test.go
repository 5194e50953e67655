package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mimdmap/internal/cluster"
	"mimdmap/internal/critical"
	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/topology"
)

// pinnedCase is one instance whose §4.3.2 initial assignment is pinned:
// want[mode] is pinnedPlacement of the assignment under that propagation.
type pinnedCase struct {
	name  string
	build func(t *testing.T) (*graph.Problem, *graph.Clustering, *graph.System)
	want  map[critical.Propagation]string
}

// pinnedPlacement renders an initial assignment as "procOf | frozen", the
// frozen markers as one 0/1 digit per cluster.
func pinnedPlacement(procOf []int, frozen []bool) string {
	var b strings.Builder
	for k, p := range procOf {
		if k > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprint(&b, p)
	}
	b.WriteString(" | ")
	for _, f := range frozen {
		if f {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// tableCase is the Table 1–3 instance gen.TableInstance draws from seed on
// the named machine; random machines draw from a generator seeded the
// same.
func tableCase(spec string, seed int64) func(t *testing.T) (*graph.Problem, *graph.Clustering, *graph.System) {
	return func(t *testing.T) (*graph.Problem, *graph.Clustering, *graph.System) {
		t.Helper()
		sys, err := topology.ByName(spec, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		p, c, err := gen.TableInstance(sys.NumNodes(), seed)
		if err != nil {
			t.Fatal(err)
		}
		return p, c, sys
	}
}

// largeColdCase is the large-cold shape: an np=2000 random DAG randomly
// clustered onto a 128-processor mesh, seed 1991.
func largeColdCase(t *testing.T) (*graph.Problem, *graph.Clustering, *graph.System) {
	t.Helper()
	const np = 2000
	rng := rand.New(rand.NewSource(1991))
	p, err := gen.Random(gen.RandomConfig{
		Tasks: np, EdgeProb: 3.0 / np, MinTaskSize: 1, MaxTaskSize: 20,
		MinEdgeWeight: 1, MaxEdgeWeight: 5, Connected: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	sys := topology.Mesh(8, 16)
	c, err := (&cluster.Random{Rand: rng}).Cluster(p, sys.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	return p, c, sys
}

// slackCase has abstract edges but no critical edge: task 0 alone sets
// the lower bound, and every inter-cluster edge has slack, so placement
// runs on communication intensity alone (step 3).
func slackCase(*testing.T) (*graph.Problem, *graph.Clustering, *graph.System) {
	p := graph.NewProblem(8)
	p.Size = []int{100, 1, 2, 1, 3, 1, 2, 1}
	p.SetEdge(1, 2, 3)
	p.SetEdge(2, 3, 5)
	p.SetEdge(3, 4, 2)
	p.SetEdge(1, 5, 4)
	p.SetEdge(5, 6, 1)
	p.SetEdge(6, 7, 6)
	p.SetEdge(2, 7, 2)
	c := graph.NewClustering(8, 6)
	c.Of = []int{0, 1, 2, 3, 4, 5, 5, 1}
	return p, c, topology.Mesh(2, 3)
}

// disconnectedCase has an abstract graph of two components (clusters
// 0–2 and 3–5), so placement re-seeds on the second component.
func disconnectedCase(*testing.T) (*graph.Problem, *graph.Clustering, *graph.System) {
	p := graph.NewProblem(6)
	p.Size = []int{2, 1, 3, 1, 2, 2}
	p.SetEdge(0, 1, 4)
	p.SetEdge(1, 2, 2)
	p.SetEdge(0, 2, 1)
	p.SetEdge(3, 4, 3)
	p.SetEdge(4, 5, 5)
	c := graph.NewClustering(6, 6)
	c.Of = []int{0, 1, 2, 3, 4, 5}
	return p, c, topology.Mesh(2, 3)
}

// TestInitialAssignmentPinned pins the §4.3.2 initial assignment and its
// frozen markers on fixed instances under both propagation modes: the
// large-cold shape, Table instances at two seeds, a star machine (where no free
// processor neighbours a placed one and step (c) prices every free
// processor), an instance without critical edges and one whose abstract
// graph is disconnected. Any change to placement's candidate set, pricing
// or tie-break shows here.
func TestInitialAssignmentPinned(t *testing.T) {
	cases := []pinnedCase{
		{"large-cold", largeColdCase, map[critical.Propagation]string{
			critical.Paper: "62 77 49 27 100 101 56 86 44 125 45 41 115 26 112 60 50 113 22 93 53 79 63 54 43 75 103 81 88 110 106 119 92 29 20 55 105 12 71 6 32 57 96 84 18 30 120 58 36 16 23 122 19 87 37 9 48 121 21 8 95 38 35 4 67 74 59 47 117 111 94 17 78 109 0 80 123 14 64 1 102 42 65 39 46 127 82 34 104 116 2 10 51 24 69 66 91 126 52 3 99 33 31 90 118 72 108 7 28 73 68 5 40 11 70 89 124 13 83 15 25 107 85 61 76 98 114 97 | 00010000000001000010000000000000011000000000110000101000001000000000000100000000000010010000010000000100000010000000000010000000",
			critical.Full:  "94 122 82 27 105 102 55 11 88 1 2 41 116 26 112 91 50 113 22 81 53 125 115 54 10 76 60 65 75 126 101 120 93 29 20 42 12 14 72 6 108 73 0 85 18 30 92 57 36 32 23 119 19 86 37 56 123 13 21 8 111 38 35 4 90 87 71 79 118 97 110 17 109 124 48 127 47 64 98 117 67 44 49 39 46 96 99 34 104 100 66 58 68 24 51 84 45 80 52 9 121 33 95 103 83 70 62 7 28 69 74 5 40 59 43 89 31 78 106 15 25 61 3 63 77 107 114 16 | 00010000000001000010000000000000011000000000110000101000001000000000000100000000010010010000010010000100000010000000000010000000",
		}},
		{"hypercube-3/1991", tableCase("hypercube-3", 1991), map[critical.Propagation]string{
			critical.Paper: "6 0 1 7 5 2 4 3 | 01100100",
			critical.Full:  "7 1 0 6 4 3 5 2 | 01100101",
		}},
		{"hypercube-3/1992", tableCase("hypercube-3", 1992), map[critical.Propagation]string{
			critical.Paper: "0 7 6 1 5 3 2 4 | 11010111",
			critical.Full:  "0 7 6 1 5 3 2 4 | 11010111",
		}},
		{"mesh-5x8/1991", tableCase("mesh-5x8", 1991), map[critical.Propagation]string{
			critical.Paper: "24 29 39 17 3 30 18 22 37 19 25 26 7 14 21 31 13 28 27 10 0 12 20 23 16 36 5 33 32 15 38 35 4 9 11 8 2 1 34 6 | 0001001001000000000100000000000001000000",
			critical.Full:  "20 35 38 1 25 34 2 36 18 3 13 4 39 30 7 37 15 26 19 10 6 8 29 23 5 14 24 11 28 31 33 17 16 9 0 27 12 22 21 32 | 0001001011100000000100000001000101000000",
		}},
		{"mesh-5x8/1992", tableCase("mesh-5x8", 1992), map[critical.Propagation]string{
			critical.Paper: "24 18 35 11 22 6 9 34 19 4 38 7 21 28 27 10 20 26 36 39 16 3 30 32 0 29 5 23 31 2 13 33 12 1 25 15 14 37 17 8 | 0101001010000011110000000000000001100010",
			critical.Full:  "34 18 0 11 22 32 9 24 19 13 37 31 21 28 27 10 20 26 6 39 2 4 33 15 5 29 14 38 23 3 8 35 12 1 25 30 36 7 17 16 | 0101001010000011110010000000000001100010",
		}},
		{"ring-8/1991", tableCase("ring-8", 1991), map[critical.Propagation]string{
			critical.Paper: "5 0 1 4 3 7 2 6 | 01100100",
			critical.Full:  "5 1 0 2 3 6 4 7 | 01100101",
		}},
		{"ring-8/1992", tableCase("ring-8", 1992), map[critical.Propagation]string{
			critical.Paper: "0 5 3 1 4 6 7 2 | 11010111",
			critical.Full:  "0 5 3 1 4 6 7 2 | 11010111",
		}},
		{"random-24/1991", tableCase("random-24", 1991), map[critical.Propagation]string{
			critical.Paper: "2 5 14 17 15 11 10 21 6 22 12 18 13 1 4 23 20 19 7 8 16 0 9 3 | 101000010000000100010001",
			critical.Full:  "2 5 14 17 15 11 10 21 6 22 12 18 13 1 4 23 20 19 7 8 16 0 9 3 | 101000010000000100010001",
		}},
		{"random-24/1992", tableCase("random-24", 1992), map[critical.Propagation]string{
			critical.Paper: "0 11 9 14 13 20 3 17 4 16 23 1 5 19 10 8 6 7 22 2 18 21 12 15 | 011100000001000110000000",
			critical.Full:  "10 11 18 14 13 7 3 17 2 21 23 9 20 4 15 16 1 0 8 19 12 6 22 5 | 011100001001000110000100",
		}},
		{"star-12", tableCase("star-12", 1991), map[critical.Propagation]string{
			critical.Paper: "3 2 4 8 9 7 5 0 6 1 10 11 | 000000010100",
			critical.Full:  "2 5 6 8 9 1 7 0 3 4 10 11 | 100001011100",
		}},
		{"no-critical", slackCase, map[critical.Propagation]string{
			critical.Paper: "1 4 3 0 2 5 | 000000",
			critical.Full:  "1 4 3 0 2 5 | 000000",
		}},
		{"disconnected", disconnectedCase, map[critical.Propagation]string{
			critical.Paper: "5 2 3 0 1 4 | 000111",
			critical.Full:  "5 2 3 0 1 4 | 000111",
		}},
	}
	for _, tc := range cases {
		for _, mode := range []critical.Propagation{critical.Paper, critical.Full} {
			t.Run(tc.name+"/"+mode.String(), func(t *testing.T) {
				p, c, sys := tc.build(t)
				m, err := New(p, c, sys, Options{Propagation: mode, MaxRefinements: -1})
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				got := pinnedPlacement(res.Assignment.ProcOf, res.FrozenClusters)
				if got != tc.want[mode] {
					t.Errorf("initial assignment\n got %s\nwant %s", got, tc.want[mode])
				}
			})
		}
	}
}
