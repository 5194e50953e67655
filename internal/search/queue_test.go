package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mimdmap/internal/cluster"
	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/paths"
	"mimdmap/internal/schedule"
	"mimdmap/internal/topology"
)

// batchedPaper and batchedAnneal are the Paper and Anneal loops as they
// were before lazy pricing: every full queue of SwapLanes candidates is
// priced as one TrySwapBatch, a partial queue at the end of the budget
// trial by trial through TrySwap. They are the reference the lazy queue
// must reproduce exactly — traces, recorded totals, final assignment and
// the random stream.

func batchedPaper(ctx context.Context, sess *schedule.SwapSession, b Budget, rng *rand.Rand) Trace {
	tr := Trace{Final: sess.TotalTime()}
	free := b.free(sess)
	if len(free) < 2 || b.Trials <= 0 {
		return tr
	}
	const lanes = schedule.SwapLanes
	var ks, ls, totals [lanes]int
	var queue [lanes][2]int // drawn but unresolved candidate swaps
	qlen, drawn := 0, 0
	for tr.Trials < b.Trials {
		if ctx.Err() != nil {
			break
		}
		for qlen < lanes && drawn < b.Trials {
			i, j := schedule.RandSwapPair(rng, len(free))
			queue[qlen] = [2]int{free[i], free[j]}
			qlen++
			drawn++
		}
		batched := qlen == lanes
		if batched {
			for idx := 0; idx < lanes; idx++ {
				ks[idx], ls[idx] = queue[idx][0], queue[idx][1]
			}
			sess.TrySwapBatch(&ks, &ls, &totals)
		}
		resolved := 0
		accepted := false
		for idx := 0; idx < qlen; idx++ {
			k, l := queue[idx][0], queue[idx][1]
			var total int
			if batched {
				total = totals[idx]
			} else {
				total = sess.TrySwap(k, l)
			}
			tr.Trials++
			resolved++
			if b.RecordTrials {
				tr.Totals = append(tr.Totals, total)
			}
			if !b.DisableTermination && total == b.LowerBound {
				tr.Improved++
				tr.Final = total
				tr.AtBound = true
				sess.CommitSwap(k, l, total)
				return tr
			}
			if total < tr.Final {
				tr.Improved++
				tr.Final = total
				sess.CommitSwap(k, l, total)
				if batched {
					// The remaining lanes were priced against the old
					// incumbent; requeue them for exact re-evaluation.
					accepted = true
					break
				}
			}
		}
		if accepted {
			copy(queue[:], queue[resolved:qlen])
		}
		qlen -= resolved
	}
	return tr
}

func batchedAnneal(an *Anneal, ctx context.Context, sess *schedule.SwapSession, b Budget, rng *rand.Rand) Trace {
	cooling := an.Cooling
	if cooling == 0 {
		cooling = 0.995
	}
	minTemp := an.MinTemp
	if minTemp == 0 {
		minTemp = 1e-3
	}
	tr := Trace{Final: sess.TotalTime()}
	free := b.free(sess)
	if len(free) < 2 || b.Trials <= 0 {
		return tr
	}
	if ctx.Err() != nil {
		return tr
	}
	cur := sess.TotalTime()
	bestTotal := cur
	bestProc := make([]int, sess.K())
	copy(bestProc, sess.ProcOf())

	temp := an.InitialTemp
	if temp == 0 {
		// Calibrate from probe swaps of the incumbent: estimate the typical
		// uphill cost delta and start where such a move is accepted with
		// probability ~0.8. Probes are full trial evaluations, so they are
		// charged against the budget like any other trial — the equal-budget
		// comparison contract counts evaluation work, not acceptance tests —
		// but they are capped at a quarter of the budget so small-budget
		// runs still spend most of their trials annealing, and the best
		// improving probe is committed rather than thrown away.
		probes := 32
		if quarter := b.Trials / 4; probes > quarter {
			probes = quarter
		}
		if probes < 1 {
			probes = 1
		}
		sum, count := 0.0, 0
		probeK, probeL, probeT := -1, -1, cur
		for t := 0; t < probes; t++ {
			i, j := schedule.RandSwapPair(rng, len(free))
			total := sess.TrySwap(free[i], free[j])
			tr.Trials++
			if b.RecordTrials {
				tr.Totals = append(tr.Totals, total)
			}
			if !b.DisableTermination && total == b.LowerBound {
				tr.Improved++
				tr.Final = total
				tr.AtBound = true
				sess.CommitSwap(free[i], free[j], total)
				return tr
			}
			if total < probeT {
				probeK, probeL, probeT = free[i], free[j], total
			}
			if d := total - cur; d > 0 {
				sum += float64(d)
				count++
			}
		}
		if probeK >= 0 {
			// A probe found a downhill move; take it, as the annealing loop
			// itself always would at any temperature.
			tr.Improved++
			cur = probeT
			sess.CommitSwap(probeK, probeL, probeT)
			bestTotal = cur
			copy(bestProc, sess.ProcOf())
		}
		if count == 0 {
			temp = 1.0
		} else {
			temp = -(sum / float64(count)) / math.Log(0.8)
		}
	}

	const lanes = schedule.SwapLanes
	var ks, ls, totals [lanes]int
	var queue [lanes][2]int
	// drawn counts every candidate charged to the budget — calibration
	// probes included — so drawing stops exactly at b.Trials even when the
	// remaining budget is not a whole batch.
	qlen, drawn := 0, tr.Trials
	for tr.Trials < b.Trials && temp > minTemp {
		if ctx.Err() != nil {
			break
		}
		for qlen < lanes && drawn < b.Trials {
			i, j := schedule.RandSwapPair(rng, len(free))
			queue[qlen] = [2]int{free[i], free[j]}
			qlen++
			drawn++
		}
		batched := qlen == lanes
		if batched {
			for idx := 0; idx < lanes; idx++ {
				ks[idx], ls[idx] = queue[idx][0], queue[idx][1]
			}
			sess.TrySwapBatch(&ks, &ls, &totals)
		}
		resolved := 0
		accepted := false
		for idx := 0; idx < qlen && temp > minTemp; idx++ {
			k, l := queue[idx][0], queue[idx][1]
			var total int
			if batched {
				total = totals[idx]
			} else {
				total = sess.TrySwap(k, l)
			}
			tr.Trials++
			resolved++
			if b.RecordTrials {
				tr.Totals = append(tr.Totals, total)
			}
			if !b.DisableTermination && total == b.LowerBound {
				tr.Improved++
				tr.Final = total
				tr.AtBound = true
				sess.CommitSwap(k, l, total)
				return tr
			}
			delta := total - cur
			take := delta <= 0 || rng.Float64() < math.Exp(-float64(delta)/temp)
			temp *= cooling
			if take {
				if delta < 0 {
					tr.Improved++ // the trial lowered the incumbent total
				}
				cur = total
				sess.CommitSwap(k, l, total)
				if cur < bestTotal {
					bestTotal = cur
					copy(bestProc, sess.ProcOf())
				}
				if batched {
					// The remaining lanes were priced against the old
					// incumbent; requeue them for exact re-evaluation.
					accepted = true
					break
				}
			}
		}
		if accepted {
			copy(queue[:], queue[resolved:qlen])
		}
		qlen -= resolved
	}
	if bestTotal < sess.TotalTime() {
		sess.CommitAssign(bestProc, bestTotal)
	}
	tr.Final = bestTotal
	return tr
}

// refRun is one refiner under test: the production loop or its reference.
type refRun func(ctx context.Context, sess *schedule.SwapSession, b Budget, rng *rand.Rand) Trace

// refPair is a refiner under test with its always-batched reference.
// stopsEarly marks an annealing schedule whose MinTemp ends a 1000-trial
// run long before its budget.
type refPair struct {
	name       string
	lazy, ref  refRun
	stopsEarly bool
}

// refinerPairs are the refiners whose queue pricing is compared with the
// always-batched reference: the paper loop, annealing with calibration,
// with a fixed start temperature, and with a MinTemp stop.
func refinerPairs() []refPair {
	out := []refPair{{name: "paper", lazy: Paper{}.Refine, ref: batchedPaper}}
	for i, an := range []*Anneal{
		{},
		{InitialTemp: 40, Cooling: 0.999},
		{Cooling: 0.97, MinTemp: 0.5},
	} {
		out = append(out, refPair{name: "anneal", lazy: an.Refine, stopsEarly: i == 2,
			ref: func(ctx context.Context, sess *schedule.SwapSession, b Budget, rng *rand.Rand) Trace {
				return batchedAnneal(an, ctx, sess, b, rng)
			}})
	}
	return out
}

// compareRuns runs lazy and ref from the same start and generator state
// and fails on any difference in the trace, the final assignment or the
// generator's next draw.
func compareRuns(t *testing.T, label string, ev *schedule.Evaluator, start *schedule.Assignment, b Budget, seed int64, lazy, ref refRun) Trace {
	t.Helper()
	refSess, lazySess := ev.NewSwapSession(start), ev.NewSwapSession(start)
	refRng, lazyRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	want := ref(context.Background(), refSess, b, refRng)
	got := lazy(context.Background(), lazySess, b, lazyRng)
	if got.Trials != want.Trials || got.Improved != want.Improved || got.Final != want.Final || got.AtBound != want.AtBound {
		t.Fatalf("%s: trace {trials %d improved %d final %d bound %v}, reference {%d %d %d %v}", label,
			got.Trials, got.Improved, got.Final, got.AtBound, want.Trials, want.Improved, want.Final, want.AtBound)
	}
	if !slices.Equal(got.Totals, want.Totals) {
		t.Fatalf("%s: recorded totals differ from the reference", label)
	}
	if !slices.Equal(lazySess.ProcOf(), refSess.ProcOf()) {
		t.Fatalf("%s: final assignment differs from the reference", label)
	}
	if lazySess.TotalTime() != refSess.TotalTime() {
		t.Fatalf("%s: session total %d, reference %d", label, lazySess.TotalTime(), refSess.TotalTime())
	}
	if g, w := lazyRng.Int63(), refRng.Int63(); g != w {
		t.Fatalf("%s: random streams diverged", label)
	}
	return want
}

// TestLazyPricingMatchesBatchedReference pins the lazy queue to the
// always-batched loops over random instances, budgets that are and are not
// whole batches, runs that stop at the lower bound, and annealing runs that
// stop at MinTemp.
func TestLazyPricingMatchesBatchedReference(t *testing.T) {
	systems := []*graph.System{topology.Mesh(4, 4), topology.Hypercube(5), topology.Mesh(5, 8)}
	for si, sys := range systems {
		for _, seed := range []int64{3, 1991} {
			ev, start := instance(t, sys, seed+int64(si))
			for _, rp := range refinerPairs() {
				for _, budget := range []int{1, 5, 8, 13, 100, 203, 1000} {
					b := Budget{Trials: budget, LowerBound: 1, RecordTrials: true}
					label := func(what string) string {
						return rp.name + " " + sys.Name + " " + what
					}
					trace := compareRuns(t, label("budget"), ev, start, b, seed*7+int64(budget), rp.lazy, rp.ref)
					if rp.stopsEarly && budget == 1000 && trace.Trials >= budget {
						t.Fatalf("%s: annealing ran the whole budget; MinTemp never stopped it", label("budget"))
					}

					// Lower-bound termination: declare a total the run
					// reaches part-way as the bound, so both loops stop
					// there.
					if len(trace.Totals) > 2 {
						b.LowerBound = trace.Totals[len(trace.Totals)/2]
						if tr := compareRuns(t, label("bound"), ev, start, b, seed*7+int64(budget), rp.lazy, rp.ref); !tr.AtBound {
							t.Fatalf("%s: the run did not stop at the declared bound", label("bound"))
						}
					}
				}
			}
		}
	}
}

// TestQueuePricesOnlyLanesItResolves is the lane accounting: a refiner
// that accepts almost every trial must not pay for batches whose other
// lanes an accept throws away, a refiner that rejects almost every trial
// must keep pricing through the 8-lane batch kernel, and a paper run that
// accepts more than a quarter of its priced trials must not price mostly
// lanes that its commits discard.
func TestQueuePricesOnlyLanesItResolves(t *testing.T) {
	ev, start := instance(t, topology.Mesh(5, 8), 1991)
	b := Budget{Trials: 2000, LowerBound: 1, DisableTermination: true}

	var q trialQueue
	an := &Anneal{InitialTemp: 1e6, Cooling: 0.99999}
	tr := an.refine(context.Background(), ev.NewSwapSession(start), b, rand.New(rand.NewSource(1)), &q)
	if tr.Trials == 0 || q.stats.resolved == 0 {
		t.Fatal("annealing resolved no trials")
	}
	lanes := schedule.SwapLanes*q.stats.batches + q.stats.solos
	perTrial := float64(lanes) / float64(q.stats.resolved)
	t.Logf("anneal: %d resolved, %d batches, %d solo, %.2f lanes per trial", q.stats.resolved, q.stats.batches, q.stats.solos, perTrial)
	if perTrial > 3 {
		t.Errorf("high-acceptance annealing priced %.2f lanes per resolved trial, want ≤ 3", perTrial)
	}

	tr = Paper{}.refine(context.Background(), ev.NewSwapSession(start), b, rand.New(rand.NewSource(1)), &q)
	priced := q.stats.resolved - q.stats.certified
	share := float64(q.stats.fromFull) / float64(priced)
	t.Logf("paper: %d resolved, %d certified, %d improved, %d batches, %d solo, %.1f%% of priced trials from full batches",
		q.stats.resolved, q.stats.certified, tr.Improved, q.stats.batches, q.stats.solos, 100*share)
	if q.stats.certified == 0 {
		t.Error("paper refinement resolved no trial by the certificate")
	}
	if share < 0.9 {
		t.Errorf("low-acceptance paper refinement priced %.1f%% of its priced trials in 8-lane batches, want ≥ 90%%", 100*share)
	}
	// Every priced lane is a trial handed out with its total, or a total a
	// commit discarded. A lane spent on a trial that was then handed out as
	// certified would break the balance.
	if q.stats.lanes != priced+q.stats.discarded {
		t.Errorf("paper refinement priced %d lanes for %d priced trials and %d discarded totals", q.stats.lanes, priced, q.stats.discarded)
	}

	// The large-cold shape with its 128-trial budget: more than a quarter
	// of the priced trials are accepted, so a batch after most commits
	// would price lanes the next commit throws away.
	ev, start = largeColdInstance(t)
	var sum queueStats
	priced = 0
	for seed := int64(1); seed <= 20; seed++ {
		Paper{}.refine(context.Background(), ev.NewSwapSession(start), Budget{Trials: 128, LowerBound: 1}, rand.New(rand.NewSource(seed)), &q)
		priced += q.stats.resolved - q.stats.certified
		sum.batches += q.stats.batches
		sum.solos += q.stats.solos
		sum.lanes += q.stats.lanes
		sum.discarded += q.stats.discarded
	}
	wasted := float64(sum.discarded) / float64(sum.lanes)
	t.Logf("large-cold paper, 20 runs: %d priced trials, %d batches, %d solo, %d lanes, %d discarded (%.1f%%)",
		priced, sum.batches, sum.solos, sum.lanes, sum.discarded, 100*wasted)
	if wasted > 0.5 {
		t.Errorf("high-acceptance paper refinement discarded %.1f%% of the lanes it priced, want ≤ 50%%", 100*wasted)
	}
}

// largeColdInstance is the large-cold workload's shape: an np=2000 random
// DAG (edge factor 3, sizes [1,20], weights [1,5]) on mesh-8x16 under
// random clustering, with a random incumbent.
func largeColdInstance(tb testing.TB) (*schedule.Evaluator, *schedule.Assignment) {
	tb.Helper()
	const np = 2000
	rng := rand.New(rand.NewSource(1991))
	p, err := gen.Random(gen.RandomConfig{
		Tasks: np, EdgeProb: 3.0 / np, MinTaskSize: 1, MaxTaskSize: 20,
		MinEdgeWeight: 1, MaxEdgeWeight: 5, Connected: true,
	}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	sys := topology.Mesh(8, 16)
	c, err := (&cluster.Random{Rand: rng}).Cluster(p, sys.NumNodes())
	if err != nil {
		tb.Fatal(err)
	}
	e, err := schedule.NewEvaluator(p, c, paths.New(sys))
	if err != nil {
		tb.Fatal(err)
	}
	return e, schedule.FromPerm(rng.Perm(sys.NumNodes()))
}

// TestCertifiedRefinersMatchUnrecorded pins the certificate's contract for
// the refiners that use it: without RecordTrials, where certified trials
// are rejected unpriced, Paper must match the always-batched reference and
// Pairwise must match its own recorded run (which prices every pair), in
// trials, improvements, final total and assignment, and at budget
// exhaustion in the random stream too. A trial at the lower bound ends the
// run, and the rng is not drawn from after it. Runs cover budgets that are
// and are not whole batches, pinned clusters, termination switched off,
// and a declared bound the run reaches part-way or drops below first,
// which switches the certificate off mid-run.
func TestCertifiedRefinersMatchUnrecorded(t *testing.T) {
	refiners := []struct {
		name      string
		lazy, ref refRun
	}{
		{"paper", Paper{}.Refine, batchedPaper},
		{"pairwise", Pairwise{}.Refine, func(ctx context.Context, sess *schedule.SwapSession, b Budget, rng *rand.Rand) Trace {
			b.RecordTrials = true
			return Pairwise{}.Refine(ctx, sess, b, rng)
		}},
	}
	systems := []*graph.System{topology.Mesh(4, 4), topology.Hypercube(5), topology.Mesh(5, 8)}
	certified, atBound := 0, 0
	for si, sys := range systems {
		for _, seed := range []int64{3, 1991} {
			ev, start := instance(t, sys, seed+int64(si))
			var free []int // every third cluster pinned
			for k := 0; k < sys.NumNodes(); k++ {
				if k%3 != 1 {
					free = append(free, k)
				}
			}
			for _, rf := range refiners {
				for _, budget := range []int{1, 5, 8, 13, 100, 203, 1000} {
					for variant, b := range []Budget{
						{Trials: budget, LowerBound: 1},
						{Trials: budget, LowerBound: 1, Free: free},
						{Trials: budget, LowerBound: 1, DisableTermination: true},
					} {
						label := fmt.Sprintf("%s %s seed %d budget %d variant %d", rf.name, sys.Name, seed, budget, variant)
						rb := b
						rb.RecordTrials = true
						recorded := rf.ref(context.Background(), ev.NewSwapSession(start), rb, rand.New(rand.NewSource(seed)))
						compareUnrecorded(t, label, ev, start, b, seed, rf.lazy, rf.ref)
						if len(recorded.Totals) > 2 {
							b.LowerBound = recorded.Totals[len(recorded.Totals)/2]
							if compareUnrecorded(t, label+" bound", ev, start, b, seed, rf.lazy, rf.ref).AtBound {
								atBound++
							}
						}
					}
				}
			}
			var q trialQueue
			Paper{}.refine(context.Background(), ev.NewSwapSession(start), Budget{Trials: 500, LowerBound: 1}, rand.New(rand.NewSource(seed)), &q)
			certified += q.stats.certified
		}
	}
	if certified == 0 || atBound == 0 {
		t.Fatalf("%d paper trials certified, %d runs stopped at the bound; the comparison missed a path", certified, atBound)
	}
}

// compareUnrecorded runs lazy and ref from the same start and generator
// state without recording totals, and fails on any difference in the
// trace or the final assignment, or, unless the run stopped at the lower
// bound, in the generator's next draw. It returns the reference trace.
func compareUnrecorded(t *testing.T, label string, ev *schedule.Evaluator, start *schedule.Assignment, b Budget, seed int64, lazy, ref refRun) Trace {
	t.Helper()
	refSess, lazySess := ev.NewSwapSession(start), ev.NewSwapSession(start)
	refRng, lazyRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	want := ref(context.Background(), refSess, b, refRng)
	got := lazy(context.Background(), lazySess, b, lazyRng)
	if got.Trials != want.Trials || got.Improved != want.Improved || got.Final != want.Final || got.AtBound != want.AtBound {
		t.Fatalf("%s: trace {trials %d improved %d final %d bound %v}, reference {%d %d %d %v}", label,
			got.Trials, got.Improved, got.Final, got.AtBound, want.Trials, want.Improved, want.Final, want.AtBound)
	}
	if got.Totals != nil {
		t.Fatalf("%s: totals recorded without RecordTrials", label)
	}
	if !slices.Equal(lazySess.ProcOf(), refSess.ProcOf()) || lazySess.TotalTime() != refSess.TotalTime() {
		t.Fatalf("%s: final incumbent differs from the reference", label)
	}
	if !want.AtBound {
		if g, w := lazyRng.Int63(), refRng.Int63(); g != w {
			t.Fatalf("%s: random streams diverged", label)
		}
	}
	return want
}
