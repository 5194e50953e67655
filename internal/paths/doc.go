// Package paths computes all-pairs shortest paths over system graphs.
//
// The mapping strategy needs the matrix shortest[ns][ns] (§3.4(b) of the
// paper): the hop count of the shortest route between every pair of
// processors, because a clustered problem edge mapped across distance d
// costs weight×d. System links are unweighted, so breadth-first search from
// every node is exact and fast; a Floyd–Warshall implementation is provided
// as an independent oracle for cross-checking.
//
// Two extensions go beyond the paper. NewWeighted computes distances under
// heterogeneous per-link delay factors (≥ 1), which keeps the ideal-graph
// lower bound valid; Routes derives one canonical shortest route per
// processor pair, the deterministic oblivious routing the link-contention
// evaluator assumes.
//
// Distance tables are immutable once built and safe to share: the solver
// layer caches one per machine, and every evaluator built from it reads
// its cells in place (Table.ToMajor), concurrently and without locks. The
// tables keep their cells in unexported flat slices; no other package
// depends on how they are laid out beyond ToMajor's documented order.
//
//mapcheck:deterministic
package paths
