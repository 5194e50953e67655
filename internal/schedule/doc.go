// Package schedule evaluates assignments: given a problem graph, a
// clustering, a mapping of clusters to processors, and the machine's
// shortest-path table, it prices every message's communication cost and
// derives the start and end time of every task and the total (complete)
// execution time of the parallel program — Algorithms I–III of §4.3.4 of
// the paper.
//
// The execution model is the paper's: pure dataflow with no processor or
// link contention. A task starts as soon as every predecessor has finished
// and its message has crossed the network:
//
//	start[i] = max over predecessors j of (end[j] + comm[j][i])
//	end[i]   = start[i] + task_size[i]
//	comm[j][i] = clus_edge[j][i] × shortest[proc(j)][proc(i)]
//
// The paper writes comm and clus_edge as np×np matrices; the evaluator
// keeps neither. Predecessor structure comes from the problem's frozen
// sparse view (graph.View) — every problem edge, including intra-cluster
// precedences whose clustered weight, and so communication cost, is zero —
// and a clustered weight is one value per edge (Evaluator.CEdge).
//
// # The hot path
//
// Evaluator.TotalTime is the cost function of the §4.3.3 refinement loop
// and of every baseline searcher; the whole system's throughput is bounded
// by how fast one trial assignment can be priced. An Evaluator therefore
// packs the view's predecessor lists, in the view's topological order, into
// a flattened, topologically renumbered predecessor CSR (packed int32 edge
// records, weight 0 for intra-cluster precedences so the loop stays
// branch-free) at construction, reads distances straight from the machine
// table's to-major int32 cells, and owns a reusable scratch arena so
// TotalTime and EvaluateInto perform no per-call allocation. The arena makes an
// Evaluator single-goroutine: concurrent evaluators (one per refinement
// chain, one per solver worker) must each use their own handle, obtained
// with Fork, which shares the read-only precomputation and costs only one
// fresh arena.
//
// Refinement goes one step further: its trials are single swaps or whole
// reshuffles of a shared incumbent, and most are rejected. A SwapSession
// (swap.go) prices a trial exactly and allocation-free with one full
// pass, as in the paper (TrySwap, TryAssign); pricing never changes the
// incumbent, and CommitSwap/CommitAssign accept a priced trial with the
// total its pricing call returned. The session also traces one critical
// chain of the incumbent and re-prices just that chain under a candidate
// (SwapBound, Certified, CertifiedAssign). Any DAG path priced under an
// assignment is a lower bound on its total, so a trial whose re-priced
// chain reaches the incumbent total cannot improve it and needs no pass.
// Every search strategy in internal/search runs on a SwapSession; see its
// documentation for the protocol.
//
// A contention-aware evaluator (an extension beyond the paper, used only by
// the ablation experiments) lives in contention.go; a link-contention
// variant in linkcontention.go.
//
//mapcheck:deterministic
package schedule
