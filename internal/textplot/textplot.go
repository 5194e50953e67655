// Package textplot renders the paper's two figure styles as plain text: the
// per-experiment range histograms of Figs. 25–27 (each experiment drawn as a
// dashed vertical line from the strategy's result up to the random-mapping
// result, over a percentage axis) and the processor/time execution charts of
// Figs. 6, 10, 12 and 24 (a Gantt-style grid with one column per processor
// and one row per time unit).
package textplot

import (
	"fmt"
	"strings"

	"mimdmap/internal/schedule"
)

// RangeSeries is one experiment of a range histogram: a lower value (our
// strategy) and an upper value (the random baseline), both as percentages
// over the lower bound.
type RangeSeries struct {
	Label    string
	Lo, Hi   float64
	AtBound  bool // the termination condition fired (Lo == 100)
	Comments string
}

// RangeHistogram renders experiments in the style of Figs. 25–27: the y-axis
// is percentage over the lower bound (100 at the bottom), each experiment is
// a vertical dashed column from Lo to Hi. rowsPerTick controls vertical
// resolution: one text row covers `step` percentage points.
func RangeHistogram(title string, series []RangeSeries, step float64) string {
	if step <= 0 {
		step = 5
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if len(series) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	maxPct := 100.0
	for _, s := range series {
		if s.Hi > maxPct {
			maxPct = s.Hi
		}
		if s.Lo > maxPct {
			maxPct = s.Lo
		}
	}
	top := 100.0
	for top < maxPct {
		top += step
	}
	rows := int((top-100)/step) + 1
	b.WriteString("  % over lower bound\n")
	for r := 0; r < rows; r++ {
		level := top - float64(r)*step
		fmt.Fprintf(&b, "%6.0f |", level)
		for _, s := range series {
			// The column is drawn where the [Lo,Hi] range covers this
			// level's band [level-step, level].
			lo, hi := level-step, level
			switch {
			case s.Hi > lo && s.Lo < hi:
				b.WriteString("  | ")
			default:
				b.WriteString("    ")
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("       +")
	for range series {
		b.WriteString("----")
	}
	b.WriteByte('\n')
	b.WriteString("        ")
	for i := range series {
		fmt.Fprintf(&b, "%3d ", i+1)
	}
	b.WriteString("  experiment\n")
	for _, s := range series {
		mark := " "
		if s.AtBound {
			mark = "*"
		}
		fmt.Fprintf(&b, "  %s%-10s ours=%6.1f%%  random=%6.1f%%  improvement=%5.1f %s\n",
			mark, s.Label, s.Lo, s.Hi, s.Hi-s.Lo, s.Comments)
	}
	b.WriteString("  (* = refinement stopped by the lower-bound termination condition)\n")
	return b.String()
}

// Gantt renders a processors × time-units execution chart like Figs. 6 and
// 24: each column is a processor, each row a time unit; a task's ID fills
// the rows it executes in its processor's column. clusterOf maps tasks to
// clusters, procOf clusters to processors. Tasks of size 0 are shown at
// their start instant with parentheses.
func Gantt(res *schedule.Result, clusterOf []int, procOf []int, numProcs int) string {
	cell := make(map[[2]int]string) // (time, proc) → label
	for task, start := range res.Start {
		proc := procOf[clusterOf[task]]
		end := res.End[task]
		if end == start {
			cell[[2]int{start, proc}] = fmt.Sprintf("(%d)", task)
			continue
		}
		for t := start; t < end; t++ {
			cell[[2]int{t, proc}] = fmt.Sprintf("%d", task)
		}
	}
	width := 4
	maxTime := res.TotalTime
	for key, v := range cell {
		if len(v)+1 > width {
			width = len(v) + 1
		}
		// A zero-size task may sit exactly at the makespan instant; give
		// it a row so it stays visible.
		if key[0]+1 > maxTime {
			maxTime = key[0] + 1
		}
	}
	var b strings.Builder
	b.WriteString("time |")
	for p := 0; p < numProcs; p++ {
		fmt.Fprintf(&b, "%*s", width, fmt.Sprintf("P%d", p))
	}
	b.WriteByte('\n')
	b.WriteString("-----+")
	b.WriteString(strings.Repeat("-", width*numProcs))
	b.WriteByte('\n')
	for t := 0; t < maxTime; t++ {
		fmt.Fprintf(&b, "%4d |", t)
		for p := 0; p < numProcs; p++ {
			label, ok := cell[[2]int{t, p}]
			if !ok {
				label = "."
			}
			fmt.Fprintf(&b, "%*s", width, label)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "total time = %d\n", res.TotalTime)
	return b.String()
}

// Table renders rows of cells with left-aligned headers and right-aligned
// numeric columns, in the visual style of the paper's Tables 1–3.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for i, h := range headers {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], h)
	}
	b.WriteByte('\n')
	for i := range headers {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
