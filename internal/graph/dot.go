package graph

import (
	"bufio"
	"fmt"
	"io"
)

// Graphviz DOT export, for visualising problem graphs and machines with
// standard tooling (`dot -Tsvg`). Task nodes show "id/size"; problem edges
// show their communication weight. Clusters, when provided, become
// Graphviz subgraph clusters.

// WriteProblemDOT writes p as a DOT digraph. c may be nil; when given, each
// cluster becomes a labelled subgraph.
func WriteProblemDOT(w io.Writer, p *Problem, c *Clustering) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "digraph problem {")
	fmt.Fprintln(bw, "  rankdir=TB;")
	fmt.Fprintln(bw, "  node [shape=circle];")
	if c != nil {
		for k := 0; k < c.K; k++ {
			fmt.Fprintf(bw, "  subgraph cluster_%d {\n", k)
			fmt.Fprintf(bw, "    label=\"cluster %d\";\n", k)
			for _, t := range c.Members(k) {
				fmt.Fprintf(bw, "    t%d [label=\"%d/%d\"];\n", t, t, p.Size[t])
			}
			fmt.Fprintln(bw, "  }")
		}
	} else {
		for t := 0; t < p.NumTasks(); t++ {
			fmt.Fprintf(bw, "  t%d [label=\"%d/%d\"];\n", t, t, p.Size[t])
		}
	}
	for _, e := range p.EdgeList() {
		fmt.Fprintf(bw, "  t%d -> t%d [label=\"%d\"];\n", e[0], e[1], e[2])
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// WriteSystemDOT writes s as an undirected DOT graph.
func WriteSystemDOT(w io.Writer, s *System) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "graph system {")
	if s.Name != "" {
		fmt.Fprintf(bw, "  label=%q;\n", s.Name)
	}
	fmt.Fprintln(bw, "  node [shape=box];")
	for v := 0; v < s.NumNodes(); v++ {
		fmt.Fprintf(bw, "  p%d [label=\"P%d\"];\n", v, v)
	}
	for a := 0; a < s.NumNodes(); a++ {
		for _, b := range s.Neighbors(a) {
			if b > a {
				fmt.Fprintf(bw, "  p%d -- p%d;\n", a, b)
			}
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
