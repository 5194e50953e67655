package graph_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
)

// BenchmarkReadProblem measures parsing the text form of a sparse random
// DAG (three expected edges per task, the density of the Table 1–3 and
// large-cold instances) at the sizes the service sees: np=64–160 for the
// paper's machines, np=2000 for a large cold request.
func BenchmarkReadProblem(b *testing.B) {
	for _, np := range []int{64, 128, 160, 2000} {
		p, err := gen.Random(gen.RandomConfig{
			Tasks: np, EdgeProb: 3.0 / float64(np), MinTaskSize: 1, MaxTaskSize: 20,
			MinEdgeWeight: 1, MaxEdgeWeight: 5, Connected: true,
		}, rand.New(rand.NewSource(int64(np))))
		if err != nil {
			b.Fatal(err)
		}
		var text strings.Builder
		if err := graph.WriteProblem(&text, p); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("np=%d", np), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := graph.ReadProblem(strings.NewReader(text.String())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
