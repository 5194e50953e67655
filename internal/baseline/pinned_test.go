package baseline

import (
	"math/rand"
	"slices"
	"testing"

	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/paths"
	"mimdmap/internal/schedule"
	"mimdmap/internal/topology"
)

// pinned is one searcher's result on one instance: the assignment's
// cluster→processor vector and the objective value the searcher reported.
type pinned struct {
	procOf []int
	value  int
}

// TestBaselinesPinned pins the assignments and values the §2.2 baselines
// return on fixed instances, so a change to their search engine that moves
// the sweep order, the tie rule or the random stream shows up here. Each
// instance is a Table-size problem on a Table 1–3 style machine; every
// searcher draws from its own generator seeded with the instance seed.
func TestBaselinesPinned(t *testing.T) {
	cases := []struct {
		name                  string
		sys                   func() *graph.System
		seed                  int64
		maxCard, bokhari, lee pinned
	}{
		{"hypercube-3", func() *graph.System { return topology.Hypercube(3) }, 3,
			pinned{[]int{0, 7, 1, 2, 3, 6, 4, 5}, 29},
			pinned{[]int{3, 4, 1, 7, 6, 5, 2, 0}, 29},
			pinned{[]int{0, 6, 2, 5, 4, 7, 1, 3}, 54}},
		{"hypercube-4", func() *graph.System { return topology.Hypercube(4) }, 1991,
			pinned{[]int{5, 1, 4, 8, 3, 9, 7, 14, 2, 15, 0, 11, 12, 6, 10, 13}, 55},
			pinned{[]int{12, 14, 1, 2, 15, 6, 13, 8, 11, 5, 3, 7, 0, 9, 10, 4}, 57},
			pinned{[]int{6, 0, 8, 12, 13, 2, 1, 3, 5, 7, 15, 14, 10, 11, 9, 4}, 74}},
		{"mesh-4x4", func() *graph.System { return topology.Mesh(4, 4) }, 7,
			pinned{[]int{4, 9, 13, 14, 1, 11, 5, 10, 6, 7, 8, 0, 2, 12, 15, 3}, 44},
			pinned{[]int{8, 12, 1, 2, 11, 13, 7, 5, 6, 9, 4, 14, 10, 0, 3, 15}, 48},
			pinned{[]int{3, 15, 14, 6, 1, 5, 8, 7, 10, 9, 11, 0, 4, 13, 2, 12}, 115}},
		{"mesh-3x5", func() *graph.System { return topology.Mesh(3, 5) }, 11,
			pinned{[]int{0, 2, 9, 13, 5, 14, 1, 6, 4, 11, 12, 10, 3, 8, 7}, 41},
			pinned{[]int{0, 2, 5, 9, 13, 10, 1, 12, 4, 11, 6, 14, 3, 8, 7}, 43},
			pinned{[]int{4, 13, 9, 11, 12, 2, 14, 1, 3, 0, 5, 10, 8, 6, 7}, 83}},
		{"ring-8", func() *graph.System { return topology.Ring(8) }, 5,
			pinned{[]int{2, 1, 3, 6, 5, 4, 7, 0}, 27},
			pinned{[]int{2, 1, 3, 6, 5, 4, 7, 0}, 27},
			pinned{[]int{5, 3, 6, 1, 2, 4, 7, 0}, 87}},
		{"random-12", func() *graph.System { return topology.Random(12, 0.3, rand.New(rand.NewSource(17))) }, 23,
			pinned{[]int{6, 11, 7, 4, 1, 5, 2, 9, 3, 8, 10, 0}, 51},
			pinned{[]int{0, 5, 8, 3, 6, 4, 2, 9, 11, 7, 1, 10}, 53},
			pinned{[]int{10, 0, 7, 6, 4, 2, 5, 3, 1, 9, 8, 11}, 54}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.sys()
			prob, clus, err := gen.TableInstance(sys.NumNodes(), tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			e, err := schedule.NewEvaluator(prob, clus, paths.New(sys))
			if err != nil {
				t.Fatal(err)
			}
			check := func(searcher string, want pinned, a *schedule.Assignment, value int) {
				t.Helper()
				if !slices.Equal(a.ProcOf, want.procOf) || value != want.value {
					t.Errorf("%s = pinned{%#v, %d}, want pinned{%#v, %d}", searcher, a.ProcOf, value, want.procOf, want.value)
				}
			}
			a, card := MaxCardinality(e, 4, rand.New(rand.NewSource(tc.seed)))
			check("MaxCardinality", tc.maxCard, a, card)
			a, card = Bokhari(e, BokhariOptions{}, rand.New(rand.NewSource(tc.seed)))
			check("Bokhari", tc.bokhari, a, card)
			a, cost := MinCommCost(e, 4, rand.New(rand.NewSource(tc.seed)))
			check("MinCommCost", tc.lee, a, cost)
		})
	}
}
