package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mimdmap/internal/graph"
	"mimdmap/internal/schedule"
	"mimdmap/internal/topology"
)

// batchedPaper and batchedAnneal are the Paper and Anneal loops as they
// were when every trial was priced in batches: every full queue of
// SwapLanes candidates is priced as one TrySwapBatch, a partial queue at
// the end of the budget trial by trial through TrySwap. They pin the
// random streams, so they are the reference the production loops must
// reproduce exactly — traces, recorded totals, final assignment and the
// random stream.

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

// refinerPairs are the refiners whose production loops are compared with
// the always-batched reference: the paper loop, annealing with calibration,
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

// TestLazyPricingMatchesBatchedReference pins the Paper and Anneal loops,
// with every trial recorded and so priced, to the always-batched loops
// over random instances, budgets that are and are not
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

// TestCertifiedRefinersMatchUnrecorded pins the chain bound's contract
// for the refiners that use it: without RecordTrials, where trials the
// bound settles are rejected unpriced, Paper and Anneal must match their
// batched references, and Pairwise and FullReshuffle their own recorded
// runs (which price every trial), in trials, improvements, final total and
// assignment, and at budget exhaustion in the random stream too. A trial
// at the lower bound ends the run, and the rng is not drawn from after it.
// Runs cover budgets that are and are not whole draw buffers, pinned
// clusters, termination switched off, and a declared bound the run reaches
// part-way or drops below first, which switches the bound off mid-run.
// Every refiner must resolve some trials without pricing them.
func TestCertifiedRefinersMatchUnrecorded(t *testing.T) {
	recorded := func(r Refiner) refRun {
		return func(ctx context.Context, sess *schedule.SwapSession, b Budget, rng *rand.Rand) Trace {
			b.RecordTrials = true
			return r.Refine(ctx, sess, b, rng)
		}
	}
	annealRef := func(an *Anneal) refRun {
		return func(ctx context.Context, sess *schedule.SwapSession, b Budget, rng *rand.Rand) Trace {
			return batchedAnneal(an, ctx, sess, b, rng)
		}
	}
	calibrated, fixed := &Anneal{}, &Anneal{InitialTemp: 40, Cooling: 0.999}
	refiners := []struct {
		name      string
		lazy, ref refRun
	}{
		{"paper", Paper{}.Refine, batchedPaper},
		{"pairwise", Pairwise{}.Refine, recorded(Pairwise{})},
		{"full-reshuffle", FullReshuffle{}.Refine, recorded(FullReshuffle{})},
		{"anneal", calibrated.Refine, annealRef(calibrated)},
		{"anneal-fixed", fixed.Refine, annealRef(fixed)},
	}
	systems := []*graph.System{topology.Mesh(4, 4), topology.Hypercube(5), topology.Mesh(5, 8)}
	unpriced := map[string]int{}
	atBound := 0
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
						rec := rf.ref(context.Background(), ev.NewSwapSession(start), rb, rand.New(rand.NewSource(seed)))
						_, n := compareUnrecorded(t, label, ev, start, b, seed, rf.lazy, rf.ref)
						unpriced[rf.name] += n
						if len(rec.Totals) > 2 {
							b.LowerBound = rec.Totals[len(rec.Totals)/2]
							tr, n := compareUnrecorded(t, label+" bound", ev, start, b, seed, rf.lazy, rf.ref)
							unpriced[rf.name] += n
							if tr.AtBound {
								atBound++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("trials resolved without pricing: %v", unpriced)
	for _, rf := range refiners {
		if unpriced[rf.name] == 0 {
			t.Errorf("%s resolved every trial by pricing it; the bound never fired", rf.name)
		}
	}
	if atBound == 0 {
		t.Fatal("no run stopped at the declared bound; the comparison missed a path")
	}
}

// compareUnrecorded runs lazy and ref from the same start and generator
// state without recording totals, and fails on any difference in the
// trace or the final assignment, or, unless the run stopped at the lower
// bound, in the generator's next draw. It returns the reference trace and
// how many of lazy's trials its session resolved without pricing.
func compareUnrecorded(t *testing.T, label string, ev *schedule.Evaluator, start *schedule.Assignment, b Budget, seed int64, lazy, ref refRun) (Trace, int) {
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
	unpriced := got.Trials - lazySess.Priced()
	if unpriced < 0 {
		t.Fatalf("%s: %d trials priced %d times", label, got.Trials, lazySess.Priced())
	}
	return want, unpriced
}
