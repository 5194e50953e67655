package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"mimdmap/internal/baseline"
	"mimdmap/internal/core"
	"mimdmap/internal/parallel"
	"mimdmap/internal/paths"
	"mimdmap/internal/stats"
	"mimdmap/internal/textplot"
)

// HeteroRow is one experiment of the heterogeneous-link extension (E15):
// the Table 2 mesh workload re-run with random per-link delay factors.
type HeteroRow struct {
	Exp       int
	Topology  string
	NS        int
	Bound     int
	OursPct   float64
	RandomPct float64
	AtBound   bool
}

// Improvement is the percentage-point gain over random mapping.
func (r HeteroRow) Improvement() float64 { return r.RandomPct - r.OursPct }

// HeteroLinks re-runs the mesh workload on machines whose links have random
// delay factors in [1, maxDelay] — the paper's homogeneous-links assumption
// relaxed. The mapper is unchanged; only the distance table differs. The
// instances run concurrently under cfg.Workers, each with its own seeded
// generators, so the rows are identical at any worker count.
func HeteroLinks(cfg Config, maxDelay int) ([]HeteroRow, error) {
	cfg.defaults()
	if maxDelay < 1 {
		maxDelay = 3
	}
	instances, err := MeshInstances(cfg)
	if err != nil {
		return nil, err
	}
	return parallel.Map(context.Background(), len(instances), cfg.Workers,
		func(ctx context.Context, i int) (HeteroRow, error) {
			in := instances[i]
			seed := cfg.MasterSeed + int64(i)*15485863
			delayRng := rand.New(rand.NewSource(seed))
			mapRng := rand.New(rand.NewSource(seed + 1))
			randRng := rand.New(rand.NewSource(seed + 2))

			ns := in.Sys.NumNodes()
			delays := paths.NewLinkDelays(ns)
			for a := 0; a < ns; a++ {
				for _, b := range in.Sys.Neighbors(a) {
					if b > a {
						delays.Set(a, b, 1+delayRng.Intn(maxDelay))
					}
				}
			}
			m, err := core.New(in.Prob, in.Clus, in.Sys, core.Options{
				Rand:    mapRng,
				Delays:  delays,
				Starts:  cfg.Starts,
				Workers: cfg.Workers,
				Seed:    seed + 3,
			})
			if err != nil {
				return HeteroRow{}, err
			}
			out, err := m.RunParallel(ctx)
			if err != nil {
				return HeteroRow{}, err
			}
			randomMean, _, _ := baseline.RandomMapping(m.Evaluator(), cfg.RandomTrials, randRng)
			return HeteroRow{
				Exp:       i + 1,
				Topology:  in.Sys.Name,
				NS:        ns,
				Bound:     out.LowerBound,
				OursPct:   stats.PercentOver(out.LowerBound, float64(out.TotalTime)),
				RandomPct: stats.PercentOver(out.LowerBound, randomMean),
				AtBound:   out.OptimalProven,
			}, nil
		})
}

// HeteroLinksReport renders the heterogeneous-link extension table.
func HeteroLinksReport(cfg Config) (string, error) {
	rows, err := HeteroLinks(cfg, 3)
	if err != nil {
		return "", err
	}
	headers := []string{"expts", "topology", "ns", "bound", "ours %", "random %", "improvement"}
	var cells [][]string
	sumImp := 0.0
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Exp), r.Topology, fmt.Sprintf("%d", r.NS),
			fmt.Sprintf("%d", r.Bound),
			fmt.Sprintf("%d", stats.RoundPercent(r.OursPct)),
			fmt.Sprintf("%d", stats.RoundPercent(r.RandomPct)),
			fmt.Sprintf("%d", stats.RoundPercent(r.Improvement())),
		})
		sumImp += r.Improvement()
	}
	var b strings.Builder
	b.WriteString("=== Extension: heterogeneous link delays (1-3x per link, mesh workload) ===\n")
	b.WriteString(textplot.Table(headers, cells))
	fmt.Fprintf(&b, "mean improvement over random mapping: %.0f points\n", sumImp/float64(len(rows)))
	b.WriteString("(the bound uses closure distance 1, so percentages run higher than Table 2's;\n")
	b.WriteString(" the guided placement's advantage grows because slow links punish bad placement more)\n")
	return b.String(), nil
}
