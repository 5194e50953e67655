// Package stats provides the small statistical helpers the experiment
// harness needs to build the paper's tables: means, extremes,
// and percentage-over-lower-bound normalisation.
package stats

import (
	"fmt"
	"math"
	"slices"
)

// Mean returns the arithmetic mean of xs. It panics on an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: mean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the minimum of xs. It panics on an empty slice. It is the
// one slice-min helper of the module; reach for it instead of redeclaring
// a local.
func Min(xs []int) int {
	if len(xs) == 0 {
		panic("stats: min of empty slice")
	}
	return slices.Min(xs)
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []int) int {
	if len(xs) == 0 {
		panic("stats: max of empty slice")
	}
	return slices.Max(xs)
}

// PercentOver expresses value as a percentage of base, the normalisation of
// the paper's tables: the lower bound maps to 100. It panics when base is
// not positive.
func PercentOver(base int, value float64) float64 {
	if base <= 0 {
		panic(fmt.Sprintf("stats: percent over non-positive base %d", base))
	}
	return 100 * value / float64(base)
}

// RoundPercent rounds a percentage to the nearest integer, matching the
// whole-number columns of Tables 1–3.
func RoundPercent(p float64) int {
	return int(math.Round(p))
}
