package graph

// FuzzSeedProblems exposes the fuzz seed corpus to the external test
// package, whose oracle tests also need the generators of internal/gen.
var FuzzSeedProblems = fuzzSeedProblems
