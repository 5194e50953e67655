package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"mimdmap/internal/baseline"
	"mimdmap/internal/core"
	"mimdmap/internal/critical"
	"mimdmap/internal/ideal"
	"mimdmap/internal/paths"
	"mimdmap/internal/schedule"
	"mimdmap/internal/search"
	"mimdmap/internal/textplot"
)

// comparisonSection renders one titled comparison block — a === title ===
// header, a textplot table, and optional footnote lines — the shared shape
// of every strategy-comparison report (clusterers, refiners, exact gap).
func comparisonSection(title string, headers []string, cells [][]string, notes ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", title)
	b.WriteString(textplot.Table(headers, cells))
	for _, note := range notes {
		b.WriteString(note)
		b.WriteByte('\n')
	}
	return b.String()
}

// ForEachPermutation calls fn with every permutation of [0,n); fn must not
// retain the slice. Used by the counterexample reports to verify claims
// exhaustively (n is 4, so 24 assignments).
func ForEachPermutation(n int, fn func(perm []int)) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			fn(perm)
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
}

// evaluatorFor builds the assignment evaluator of an example.
func evaluatorFor(ex *Example) (*schedule.Evaluator, error) {
	return schedule.NewEvaluator(ex.Prob, ex.Clus, paths.New(ex.Sys))
}

// CardinalityReport reproduces the §2.2 cardinality counterexample
// (Figs. 7–12): it exhaustively enumerates every assignment, reports the
// maximum cardinality, the best total time attainable at that cardinality
// (the paper's A1), and the overall time optimum (the paper's A2), with
// execution charts for both.
func CardinalityReport() (string, error) {
	ex := CardinalityExample()
	e, err := evaluatorFor(ex)
	if err != nil {
		return "", err
	}
	ig, err := ideal.Derive(ex.Prob, ex.Clus)
	if err != nil {
		return "", err
	}

	maxCard := -1
	bestTimeAtMaxCard := math.MaxInt
	var a1 *schedule.Assignment
	bestTime := math.MaxInt
	var a2 *schedule.Assignment
	var a2Card int
	ForEachPermutation(ex.Clus.K, func(perm []int) {
		a := schedule.FromPerm(perm)
		card := e.Cardinality(a)
		total := e.TotalTime(a)
		if card > maxCard || (card == maxCard && total < bestTimeAtMaxCard) {
			if card > maxCard {
				maxCard = card
				bestTimeAtMaxCard = math.MaxInt
			}
			if total < bestTimeAtMaxCard {
				bestTimeAtMaxCard = total
				a1 = a.Clone()
			}
		}
		if total < bestTime {
			bestTime = total
			a2 = a.Clone()
			a2Card = card
		}
	})

	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n%s\n\n", ex.Name, ex.Notes)
	fmt.Fprintf(&b, "lower bound (ideal graph): %d\n", ig.LowerBound)
	fmt.Fprintf(&b, "assignment A1 (maximum cardinality %d): best total time %d\n", maxCard, bestTimeAtMaxCard)
	b.WriteString(renderSchedule("Fig. 10 analogue — execution under A1", e, ex, a1))
	fmt.Fprintf(&b, "assignment A2 (time optimum, cardinality %d): total time %d\n", a2Card, bestTime)
	b.WriteString(renderSchedule("Fig. 12 analogue — execution under A2", e, ex, a2))
	fmt.Fprintf(&b, "=> cardinality-optimal total time %d > time optimum %d: the indirect measure misleads.\n",
		bestTimeAtMaxCard, bestTime)
	return b.String(), nil
}

// CommCostReport reproduces the §2.2 communication-cost counterexample
// (Figs. 13–17): it exhaustively enumerates every assignment, reports the
// minimum phased communication cost and the best total time attainable at
// that cost (the paper's A3), versus the overall time optimum (A4).
func CommCostReport() (string, error) {
	ex := CommCostExample()
	e, err := evaluatorFor(ex)
	if err != nil {
		return "", err
	}
	ig, err := ideal.Derive(ex.Prob, ex.Clus)
	if err != nil {
		return "", err
	}
	phases := baseline.Phases(e)

	minCost := math.MaxInt
	bestTimeAtMinCost := math.MaxInt
	var a3 *schedule.Assignment
	bestTime := math.MaxInt
	var a4 *schedule.Assignment
	var a4Cost int
	ForEachPermutation(ex.Clus.K, func(perm []int) {
		a := schedule.FromPerm(perm)
		cost := baseline.CommCost(e, phases, a)
		total := e.TotalTime(a)
		if cost < minCost {
			minCost = cost
			bestTimeAtMinCost = math.MaxInt
		}
		if cost == minCost && total < bestTimeAtMinCost {
			bestTimeAtMinCost = total
			a3 = a.Clone()
		}
		if total < bestTime {
			bestTime = total
			a4 = a.Clone()
			a4Cost = cost
		}
	})

	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n%s\n\n", ex.Name, ex.Notes)
	fmt.Fprintf(&b, "lower bound (ideal graph): %d\n", ig.LowerBound)
	fmt.Fprintf(&b, "communication phases (level-grouped, Fig. 15 analogue):\n")
	arcs := e.View().Arcs()
	for i, phase := range phases {
		fmt.Fprintf(&b, "  phase %d:", i+1)
		for _, id := range phase {
			fmt.Fprintf(&b, " (%d,%d)=%d", arcs[id].From, arcs[id].To, e.CEdge(id))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "assignment A3 (minimum comm cost %d): best total time %d\n", minCost, bestTimeAtMinCost)
	b.WriteString(renderSchedule("Fig. 15 analogue — execution under A3", e, ex, a3))
	fmt.Fprintf(&b, "assignment A4 (time optimum, comm cost %d): total time %d\n", a4Cost, bestTime)
	b.WriteString(renderSchedule("Fig. 17 analogue — execution under A4", e, ex, a4))
	fmt.Fprintf(&b, "=> comm-cost-optimal total time %d > time optimum %d: the indirect measure misleads.\n",
		bestTimeAtMinCost, bestTime)
	return b.String(), nil
}

// RunningReport reproduces the paper's running example (Figs. 2–6 and 24):
// the ideal graph's timeline, the critical edges, and the mapping produced
// by the full strategy, which meets the lower bound without refinement.
func RunningReport() (string, error) {
	ex := RunningExample()
	m, err := core.New(ex.Prob, ex.Clus, ex.Sys, core.Options{})
	if err != nil {
		return "", err
	}
	out, err := m.Run()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n%s\n\n", ex.Name, ex.Notes)
	fmt.Fprintf(&b, "lower bound (ideal graph): %d\n\n", out.LowerBound)

	// Fig. 6 analogue: the ideal graph as a processors×time chart, using
	// the identity cluster→"processor column" placement.
	identity := make([]int, ex.Clus.K)
	for i := range identity {
		identity[i] = i
	}
	idealRes := &schedule.Result{Start: out.Ideal.Start, End: out.Ideal.End, TotalTime: out.LowerBound}
	b.WriteString("Fig. 6 analogue — ideal graph timeline (columns are clusters):\n")
	b.WriteString(textplot.Gantt(idealRes, ex.Clus.Of, identity, ex.Clus.K))
	b.WriteByte('\n')

	fmt.Fprintf(&b, "critical problem edges (Fig. 22-c analogue):")
	arcs := ex.Prob.View().Arcs()
	for id, w := range out.Critical.ProbEdge {
		if w > 0 {
			fmt.Fprintf(&b, " (%d,%d)=%d", arcs[id].From, arcs[id].To, w)
		}
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "critical degrees per cluster (Fig. 20-b analogue): %v\n\n", out.Critical.Degree)

	fmt.Fprintf(&b, "initial assignment (cluster → processor): %v\n", out.Assignment.ProcOf)
	fmt.Fprintf(&b, "total time %d, refinements %d, optimal proven: %v\n\n",
		out.TotalTime, out.Refinements, out.OptimalProven)

	res := m.Evaluator().Evaluate(out.Assignment)
	b.WriteString("Fig. 24 analogue — execution under the produced assignment:\n")
	b.WriteString(textplot.Gantt(res, ex.Clus.Of, out.Assignment.ProcOf, ex.Sys.NumNodes()))
	return b.String(), nil
}

func renderSchedule(title string, e *schedule.Evaluator, ex *Example, a *schedule.Assignment) string {
	res := e.Evaluate(a)
	return title + " (cluster→processor " + fmt.Sprint(a.ProcOf) + "):\n" +
		textplot.Gantt(res, ex.Clus.Of, a.ProcOf, ex.Sys.NumNodes()) + "\n"
}

// AblationReport runs the ablations E8–E11 over the Table 2 workload
// (meshes), which has the most termination-condition activity:
//
//	E8  random-change refinement (paper) vs pairwise-exchange refinement
//	E9  Paper vs Full critical-edge propagation
//	E10 dataflow vs contention-aware evaluation of the final assignments
//	E11 link-contention evaluation of the final assignments
func AblationReport(cfg Config) (string, error) {
	cfg.defaults()
	var b strings.Builder
	// The header keeps its historical wording, DESIGN.md included, so
	// -ablation output stays byte-identical across releases.
	b.WriteString("=== Ablations (DESIGN.md E8-E10) ===\n")

	instances, err := MeshInstances(cfg)
	if err != nil {
		return "", err
	}

	// E8: refinement strategy.
	var randChange, pairwise []float64
	for _, in := range instances {
		m, err := core.New(in.Prob, in.Clus, in.Sys, core.Options{Rand: rand.New(rand.NewSource(11))})
		if err != nil {
			return "", err
		}
		out, err := m.Run()
		if err != nil {
			return "", err
		}
		randChange = append(randChange, 100*float64(out.TotalTime)/float64(out.LowerBound))

		// One full steepest-descent pairwise sweep over every pair of
		// movable clusters, from the same initial assignment with the same
		// frozen set. The sweep is not held to the ns-trial budget of the
		// random-change refinement: it prices all of its pairs.
		m2, err := core.New(in.Prob, in.Clus, in.Sys, core.Options{
			Refiner:        search.Pairwise{MaxRounds: 1},
			MaxRefinements: math.MaxInt,
		})
		if err != nil {
			return "", err
		}
		out2, err := m2.Run()
		if err != nil {
			return "", err
		}
		pairwise = append(pairwise, 100*float64(out2.TotalTime)/float64(out2.LowerBound))
	}
	fmt.Fprintf(&b, "E8 refinement strategy (mean %% over bound, %d mesh instances):\n", len(instances))
	fmt.Fprintf(&b, "   random-change (paper): %.1f%%   pairwise-exchange: %.1f%%\n", mean(randChange), mean(pairwise))

	// E9: propagation mode.
	var paperPct, fullPct []float64
	var paperBound, fullBound int
	for _, in := range instances {
		for _, mode := range []critical.Propagation{critical.Paper, critical.Full} {
			m, err := core.New(in.Prob, in.Clus, in.Sys, core.Options{
				Propagation: mode,
				Rand:        rand.New(rand.NewSource(13)),
			})
			if err != nil {
				return "", err
			}
			out, err := m.Run()
			if err != nil {
				return "", err
			}
			pct := 100 * float64(out.TotalTime) / float64(out.LowerBound)
			if mode == critical.Paper {
				paperPct = append(paperPct, pct)
				if out.OptimalProven {
					paperBound++
				}
			} else {
				fullPct = append(fullPct, pct)
				if out.OptimalProven {
					fullBound++
				}
			}
		}
	}
	fmt.Fprintf(&b, "E9 critical-edge propagation (mean %% over bound / at-bound count):\n")
	fmt.Fprintf(&b, "   paper: %.1f%% (%d at bound)   full: %.1f%% (%d at bound)\n",
		mean(paperPct), paperBound, mean(fullPct), fullBound)

	// E10: contention-aware re-evaluation of final assignments.
	var flowOurs, contOurs, flowRand, contRand []float64
	for _, in := range instances {
		m, err := core.New(in.Prob, in.Clus, in.Sys, core.Options{Rand: rand.New(rand.NewSource(17))})
		if err != nil {
			return "", err
		}
		out, err := m.Run()
		if err != nil {
			return "", err
		}
		e := m.Evaluator()
		rng := rand.New(rand.NewSource(19))
		randA := baseline.RandomAssignment(in.Clus.K, rng)
		flowOurs = append(flowOurs, float64(out.TotalTime))
		contOurs = append(contOurs, float64(e.ContendedTotalTime(out.Assignment)))
		flowRand = append(flowRand, float64(e.TotalTime(randA)))
		contRand = append(contRand, float64(e.ContendedTotalTime(randA)))
	}
	fmt.Fprintf(&b, "E10 evaluation model (mean total time, ours vs one random mapping):\n")
	fmt.Fprintf(&b, "   dataflow:   ours %.0f  random %.0f\n", mean(flowOurs), mean(flowRand))
	fmt.Fprintf(&b, "   contention: ours %.0f  random %.0f\n", mean(contOurs), mean(contRand))
	b.WriteString("   (the mapping advantage persists under processor-serialised execution)\n")

	// E11: link-contention re-evaluation of final assignments.
	var linkOurs, linkRand []float64
	for _, in := range instances {
		m, err := core.New(in.Prob, in.Clus, in.Sys, core.Options{Rand: rand.New(rand.NewSource(29))})
		if err != nil {
			return "", err
		}
		out, err := m.Run()
		if err != nil {
			return "", err
		}
		e := m.Evaluator()
		routes := paths.NewRoutes(in.Sys, m.Dist())
		randA := baseline.RandomAssignment(in.Clus.K, rand.New(rand.NewSource(31)))
		linkOurs = append(linkOurs, float64(e.LinkContendedTotalTime(out.Assignment, routes)))
		linkRand = append(linkRand, float64(e.LinkContendedTotalTime(randA, routes)))
	}
	fmt.Fprintf(&b, "E11 link contention (FCFS store-and-forward, mean total time):\n")
	fmt.Fprintf(&b, "   ours %.0f  random %.0f\n", mean(linkOurs), mean(linkRand))
	b.WriteString("   (critical-edge-adjacent placement also reduces network queueing)\n")
	return b.String(), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
