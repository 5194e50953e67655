package service

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"mimdmap/internal/core"
	"mimdmap/internal/graph"
	"mimdmap/internal/ideal"
	"mimdmap/internal/paths"
	"mimdmap/internal/schedule"
	"mimdmap/internal/search"
	"mimdmap/internal/topology"
)

// FuzzSolve runs whole solves on requests decoded from the fuzz input and
// checks what every response must satisfy, whatever the refiner:
//   - the total is at least the §4.1 lower bound, recomputed from the
//     response's problem and clustering, and equals it whenever the
//     response claims a proven optimum (Theorem 3);
//   - the total is what a fresh evaluator prices the returned assignment
//     at, and the assignment is a bijection onto the machine;
//   - the response is byte-identical across two solves and across one and
//     two refinement workers.
//
// Input layout: byte 0 picks the machine, byte 1 the task count (≤ 20),
// byte 2 the refiner (every registered name, or the default), byte 3 the
// clustering (explicit, or a registered clusterer), bytes 4–7 the starts,
// trial budget, portfolio rounds and flag bits; then per task its size,
// cluster and an edge mask to the next eight tasks.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{0, 8, 0, 0, 1, 9, 0, 0, 1, 0, 3, 2, 1, 5, 0, 2, 9, 4, 3, 1, 0, 0, 2, 7, 3, 0, 0})
	f.Add([]byte{1, 12, 3, 2, 2, 30, 1, 1, 5, 4, 255, 0, 1, 17, 7, 2, 3, 1, 0, 0, 4, 5, 6, 2, 1, 8})
	f.Add([]byte{2, 16, 5, 1, 0, 40, 2, 2, 0, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 0, 0, 1, 1, 0, 2})
	f.Add([]byte{3, 19, 1, 3, 3, 0, 3, 3, 2, 1, 6, 3, 2, 12, 4, 3, 24, 5, 4, 48, 1, 5, 96})
	f.Add([]byte{4, 10, 2, 4, 1, 12, 0, 0, 4, 3, 9, 1, 2, 3, 2, 1, 5, 0, 0, 7, 3, 3, 1})
	f.Add([]byte{5, 14, 4, 5, 2, 25, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5})
	f.Add([]byte{2, 19, 6, 0, 2, 40, 3, 0, 165, 77, 202, 24, 37, 48, 187, 29, 109, 19, 44, 222, 214, 35, 123, 46, 217, 30, 63, 114, 31, 203, 25, 113, 23, 68, 148, 214, 73, 60, 157, 92, 52, 96, 190, 49, 32, 30, 105, 254, 218, 160, 238, 232, 185, 153, 127, 92, 124, 41, 153, 253, 175, 229, 147, 37, 60, 214, 84, 175})
	f.Add([]byte{1, 19, 1, 1, 1, 40, 0, 1, 77, 250, 215, 20, 39, 160, 174, 179, 254, 233, 35, 47, 138, 242, 33, 31, 158, 228, 145, 197, 177, 11, 236, 181, 86, 59, 252, 30, 111, 147, 66, 126, 203, 200, 254, 41, 85, 229, 205, 142, 70, 220, 142, 212, 183, 194, 118, 77, 42, 90, 77, 118, 119, 6, 248, 93, 134, 144, 2, 74})
	f.Add([]byte{2, 18, 5, 0, 0, 40, 0, 0, 214, 189, 163, 64, 27, 233, 200, 203, 204, 201, 53, 246, 205, 31, 97, 34, 106, 225, 83, 56, 174, 26, 52, 0, 77, 51, 186, 13, 36, 106, 192, 76, 129, 177, 186, 242, 62, 59, 249, 238, 245, 247, 159, 43, 73, 52, 175, 135, 245, 82, 11, 105, 185, 75, 13, 152, 46, 133, 187, 85})
	f.Add([]byte{0, 17, 6, 2, 2, 33, 2, 1, 182, 114, 168, 114, 99, 122, 205, 116, 102, 252, 182, 14, 14, 143, 241, 132, 99, 176, 228, 178, 186, 41, 112, 52, 116, 240, 100, 172, 104, 247, 0, 245, 176, 43, 61, 198, 102, 244, 91, 222, 170, 44, 202, 237, 205, 43, 81, 87, 65, 14, 77, 238, 74, 242, 179, 79, 67, 10, 7, 52})
	machines := []string{"ring-4", "mesh-2x3", "hypercube-3", "star-5", "chain-4", "complete-4"}
	refiners := append([]string{""}, search.RefinerNames()...)
	clusterers := ClustererNames()
	f.Fuzz(func(t *testing.T, data []byte) {
		byteAt := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		topo := machines[byteAt(0)%len(machines)]
		np := 1 + byteAt(1)%20
		req := &Request{
			Topology: topo,
			Refiner:  refiners[byteAt(2)%len(refiners)],
			Seed:     int64(1 + byteAt(7)),
			NoCache:  true,
			Options: core.Options{
				Starts:             1 + byteAt(4)%3,
				MaxRefinements:     byteAt(5)%41 - 1,
				PortfolioRounds:    byteAt(6) % 4,
				DisableTermination: byteAt(7)&1 != 0,
				RecordTrials:       byteAt(7)&2 != 0,
			},
		}
		sys, err := topology.ByName(topo, nil)
		if err != nil {
			t.Fatal(err)
		}
		k := sys.NumNodes()
		p := graph.NewProblem(np)
		c := graph.NewClustering(np, k)
		for i := 0; i < np; i++ {
			p.Size[i] = byteAt(8+3*i) % 6
			c.Of[i] = byteAt(8+3*i+1) % k
			mask := byteAt(8 + 3*i + 2)
			for d := 1; d <= 8 && i+d < np; d++ {
				if mask&(1<<(d-1)) != 0 {
					p.SetEdge(i, i+d, 1+(mask>>d)%4)
				}
			}
		}
		req.Problem = p
		if pick := byteAt(3) % (len(clusterers) + 1); pick == 0 {
			req.Clustering = c
		} else {
			req.Clusterer = clusterers[pick-1]
		}

		solve := func(workers int) (*Response, []byte) {
			r := *req
			r.Options.Workers = workers
			resp, err := new(Solver).Solve(context.Background(), &r)
			var verr *ValidationError
			if errors.As(err, &verr) {
				return nil, nil
			}
			if err != nil {
				t.Fatalf("solve failed with a non-validation error: %v", err)
			}
			return resp, normalizedJSON(t, resp)
		}
		resp, body := solve(1)
		if resp == nil {
			return // a request the service rejects
		}
		if _, again := solve(1); !bytes.Equal(again, body) {
			t.Fatal("two solves of one request differ")
		}
		if _, two := solve(2); !bytes.Equal(two, body) {
			t.Fatal("the response differs between one and two refinement workers")
		}

		res := resp.Result
		g, err := ideal.Derive(resp.Problem, resp.Clustering)
		if err != nil {
			t.Fatal(err)
		}
		if res.LowerBound != g.LowerBound {
			t.Fatalf("response bound %d, the §4.1 derivation says %d", res.LowerBound, g.LowerBound)
		}
		if res.TotalTime < g.LowerBound {
			t.Fatalf("total %d below the §4.1 bound %d", res.TotalTime, g.LowerBound)
		}
		if res.OptimalProven && res.TotalTime != g.LowerBound {
			t.Fatalf("optimum proven at total %d, but the bound is %d", res.TotalTime, g.LowerBound)
		}
		if len(res.Assignment.ProcOf) != resp.System.NumNodes() {
			t.Fatalf("assignment covers %d clusters on a %d-node machine", len(res.Assignment.ProcOf), resp.System.NumNodes())
		}
		if err := res.Assignment.Validate(); err != nil {
			t.Fatal(err)
		}
		ev, err := schedule.NewEvaluator(resp.Problem, resp.Clustering, paths.New(resp.System))
		if err != nil {
			t.Fatal(err)
		}
		if got := ev.TotalTime(res.Assignment); got != res.TotalTime {
			t.Fatalf("response total %d, a fresh evaluator prices the assignment at %d", res.TotalTime, got)
		}
	})
}
