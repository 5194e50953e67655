// Package experiment regenerates every table and figure of the paper's
// evaluation (§2.2 counterexamples, the §4 running example, and the §5
// random-workload Tables 1–3 with their Figs. 25–27 histograms), plus the
// ablation experiments E8–E11 and several extensions: the
// exact-optimum gap (branch and bound), clustering-strategy and topology
// comparisons, heterogeneous link delays, and a workload calibration sweep.
//
// Ablations (AblationReport): E8 random-change vs pairwise-exchange
// refinement, E9 Paper vs Full critical-edge propagation, E10 dataflow vs
// processor-contention evaluation, E11 link-contention evaluation.
//
// Every experiment is deterministic: each instance derives its random
// streams from Config.MasterSeed, so a table regenerates bit-for-bit.
// Independent experiments fan out across Config.Workers goroutines on the
// shared internal/parallel pool, and because randomness is derived rather
// than shared, output is byte-identical at any worker count — the property
// the determinism test suite pins.
//
//mapcheck:deterministic
package experiment
