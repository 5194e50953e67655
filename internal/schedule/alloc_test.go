package schedule

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mimdmap/internal/topology"
)

// TestTotalTimeZeroAllocs pins the hot-path contract: once an Evaluator is
// built, pricing an assignment allocates nothing.
func TestTotalTimeZeroAllocs(t *testing.T) {
	e, a := benchInstance(t, topology.Mesh(4, 4), 7)
	if allocs := testing.AllocsPerRun(200, func() {
		refineBenchSink += e.TotalTime(a)
	}); allocs != 0 {
		t.Fatalf("TotalTime allocates %v objects per call, want 0", allocs)
	}
}

// TestEvaluatorSharesDistanceTable pins that evaluators read the machine's
// distance table in place: the evaluator's distance slice, and every
// fork's, is the table's own to-major storage rather than a copy.
func TestEvaluatorSharesDistanceTable(t *testing.T) {
	e, _ := benchInstance(t, topology.Mesh(4, 4), 7)
	cells := e.Dist.ToMajor()
	for _, h := range []struct {
		name string
		ev   *Evaluator
	}{{"evaluator", e}, {"fork", e.Fork()}, {"fork of fork", e.Fork().Fork()}} {
		if len(h.ev.distT) != len(cells) || &h.ev.distT[0] != &cells[0] {
			t.Errorf("%s: distance slice is not the table's storage", h.name)
		}
	}
}

// TestSwapSessionZeroAllocs pins the refinement trial contract on every
// refine benchmark machine: after a session is built, TrySwap,
// TrySwapBatch, CommitSwap, the chain trace and every bound query allocate
// nothing.
func TestSwapSessionZeroAllocs(t *testing.T) {
	for _, sys := range refineMachines() {
		e, a := benchInstance(t, sys, 7)
		sess := e.NewSwapSession(a)
		var ks, ls, totals [SwapLanes]int
		for l := 0; l < SwapLanes; l++ {
			ks[l], ls[l] = l, l+SwapLanes
		}
		if allocs := testing.AllocsPerRun(200, func() {
			sess.TrySwapBatch(&ks, &ls, &totals)
		}); allocs != 0 {
			t.Fatalf("%s: TrySwapBatch allocates %v objects per call, want 0", sys.Name, allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			total := sess.TrySwap(1, 2)
			sess.CommitSwap(1, 2, total)
			total = sess.TrySwap(1, 2)
			sess.CommitSwap(1, 2, total)
			refineBenchSink += total
			if sess.Certified(3, 4) {
				refineBenchSink++
			}
			refineBenchSink += sess.SwapBound(1, 3)
			if sess.CertifiedAssign(sess.ProcOf()) {
				refineBenchSink++
			}
		}); allocs != 0 {
			t.Fatalf("%s: TrySwap+CommitSwap+bound queries allocate %v objects per call, want 0", sys.Name, allocs)
		}
	}
}

// TestEvaluateIntoWarmZeroAllocs: a warmed Result is refilled without
// allocation.
func TestEvaluateIntoWarmZeroAllocs(t *testing.T) {
	e, a := benchInstance(t, topology.Mesh(4, 4), 7)
	var res Result
	e.EvaluateInto(a, &res)
	if allocs := testing.AllocsPerRun(200, func() {
		e.EvaluateInto(a, &res)
	}); allocs != 0 {
		t.Fatalf("warm EvaluateInto allocates %v objects per call, want 0", allocs)
	}
}

// TestSwapSessionMatchesEvaluator cross-checks TrySwapBatch and the
// scalar session against the plain evaluator over a random walk with
// commits: every lane total must equal TotalTime of the swapped incumbent.
func TestSwapSessionMatchesEvaluator(t *testing.T) {
	for _, seed := range []int64{3, 19} {
		e, a := benchInstance(t, topology.Mesh(4, 4), seed)
		k := a.K()
		rng := rand.New(rand.NewSource(seed))
		sess := e.NewSwapSession(a)
		oracle := a.Clone() // mirrors the session's committed incumbent
		check := e.Fork()
		var ks, ls, totals [SwapLanes]int
		for round := 0; round < 60; round++ {
			for l := 0; l < SwapLanes; l++ {
				ks[l], ls[l] = RandSwapPair(rng, k)
			}
			sess.TrySwapBatch(&ks, &ls, &totals)
			for l := 0; l < SwapLanes; l++ {
				oracle.Swap(ks[l], ls[l])
				if want := check.TotalTime(oracle); totals[l] != want {
					t.Fatalf("round %d lane %d: batch total %d, evaluator says %d", round, l, totals[l], want)
				}
				oracle.Swap(ks[l], ls[l])
			}
			// Scalar trial and occasional commit keep incumbents moving.
			tot := sess.TrySwap(ks[0], ls[0])
			if tot != totals[0] {
				t.Fatalf("round %d: TrySwap %d != batch lane 0 %d", round, tot, totals[0])
			}
			if round%3 == 0 {
				sess.CommitSwap(ks[0], ls[0], tot)
				oracle.Swap(ks[0], ls[0])
				if sess.TotalTime() != check.TotalTime(oracle) {
					t.Fatalf("round %d: committed total %d, evaluator says %d", round, sess.TotalTime(), check.TotalTime(oracle))
				}
			}
		}
	}
}

// TestForkConcurrentEvaluation runs evaluations on forks and sessions from
// many goroutines at once; under -race this pins that forked handles share
// no mutable state, and every goroutine must see identical totals.
func TestForkConcurrentEvaluation(t *testing.T) {
	e, a := benchInstance(t, topology.Hypercube(4), 11)
	k := a.K()
	want := e.TotalTime(a)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := e.Fork()
			sess := e.NewSwapSession(a)
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				if got := f.TotalTime(a); got != want {
					errs <- fmt.Errorf("goroutine %d: fork total %d, want %d", g, got, want)
					return
				}
				x, y := RandSwapPair(rng, k)
				trial := a.Clone()
				trial.Swap(x, y)
				if got, wantT := sess.TrySwap(x, y), f.TotalTime(trial); got != wantT {
					errs <- fmt.Errorf("goroutine %d: session trial %d, want %d", g, got, wantT)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
