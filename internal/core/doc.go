// Package core implements the paper's mapping strategy (§4.3): a
// critical-edge-guided initial assignment of abstract nodes to system
// nodes, followed by random-change refinement of the non-critical abstract
// nodes, terminated early the moment the total time reaches the
// ideal-graph lower bound (Theorem 3 proves such an assignment optimal).
//
// The pipeline of one mapping run (Mapper.Run / Mapper.RunParallel):
//
//  1. ideal.Derive builds the ideal graph and its lower bound (§4.1).
//  2. critical.Analyze finds the critical edges and per-cluster critical
//     degrees that guide placement (§4.2).
//  3. initialAssignment places the critical abstract nodes on adjacent
//     processors and the rest greedily (§4.3.2), freezing the critical
//     ones (definition 5 of §2.1).
//  4. refine applies random changes to the movable clusters and keeps
//     improvements (§4.3.3), stopping at the lower bound.
//
// Refinement is the hot path and a pluggable seam: every strategy is a
// search.Refiner improving a schedule.SwapSession, selected by
// Options.Refiner (or by name through the service layer); the default is
// the paper's §4.3.3 random-change refinement (search.Paper). It rejects
// a swap without pricing it when the incumbent's critical chain,
// re-priced under the swap, already reaches the incumbent total, and
// prices the rest with one allocation-free pass each, with results
// bit-identical to pricing every trial, including the random stream.
// Multi-start runs (Options.Starts > 1) race independent refinement
// chains from the shared initial assignment; each chain draws from its
// own derived generator and runs its session on its own evaluator fork,
// so chains share no mutable state and need no locks.
//
//mapcheck:deterministic
package core
