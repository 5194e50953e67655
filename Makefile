# Tier-1 verification plus the race/vet/lint/bench gates for the parallel
# execution engine. `make ci` is the one-command gate.

GO ?= go

# Label the bench targets record their trajectory entries under (empty =
# "current"). The flag plumbing has always honored -bench-label, but the
# targets never passed it, so every recorded entry in BENCH_*.json was
# indistinguishable from the seed entry. Usage:
#   make bench-search BENCH_LABEL=portfolio
BENCH_LABEL ?=

.PHONY: all build test race vet lint vuln bench bench-refine bench-search bench-serve bench-remap bench-replay bench-smoke bench-module fuzz-smoke examples-smoke ci clean

all: ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over every package; the worker pool, the multi-start
# mapper and the experiment fan-out all have tests that exercise shared
# state concurrently.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The repo's own invariant suite (internal/lint via cmd/mapcheck):
# determinism-contract, zero-alloc-contract, and registry-wiring analyzers
# over every package. Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/mapcheck ./...

# Known-vulnerability scan. Non-blocking: govulncheck is not vendored, so
# the target no-ops (with a note) where the tool is not installed, and CI
# runs it as a separate continue-on-error step.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... ; \
	else \
		echo "vuln: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Every benchmark once, no test re-run. Includes the sequential-versus-
# parallel Table 2 / Sweep comparisons and the multi-start mapper.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Measure the refinement hot path (median of 3) and append the entry to
# the recorded trajectory. See the README's "Performance & tuning".
bench-refine:
	$(GO) run ./cmd/mapbench -refinebench -bench-out BENCH_refine.json -bench-label "$(BENCH_LABEL)"

# Measure every registered search strategy on the batched swap kernel
# (median of 3, ns/trial + trials/sec per refiner) and append the entry to
# the recorded trajectory.
bench-search:
	$(GO) run ./cmd/mapbench -searchbench -bench-out BENCH_search.json -bench-label "$(BENCH_LABEL)"

# Measure the service layer's cold-vs-warm serving throughput (full staged
# pipeline vs response-cache replay) and append the entry to the recorded
# trajectory.
bench-serve:
	$(GO) run ./cmd/mapbench -servebench -bench-out BENCH_serve.json -bench-label "$(BENCH_LABEL)"

# Measure warm-start remapping against cold re-solving on perturbed
# workloads (service.Remap with the projected incumbent vs a full
# multi-start solve) and append the entry to the recorded trajectory.
bench-remap:
	$(GO) run ./cmd/mapbench -remapbench -bench-out BENCH_serve.json -bench-label "$(BENCH_LABEL)"

# Replay a synthetic million-request stream (hit/miss/remap mix over the
# Table 1–3 workloads) against an in-process multi-replica fleet —
# consistent-hash cache ownership, peer forwarding, bounded admission —
# and append the entry (throughput vs a single replica, latency
# percentiles, shed rate) to the recorded trajectory.
bench-replay:
	$(GO) run ./cmd/mapbench -replaybench -bench-out BENCH_serve.json -bench-label "$(BENCH_LABEL)"

# Fast benchmark gate for CI: the Go refinement benchmarks at a short
# benchtime plus one quick pass of each harness (refinement kernel, the
# per-refiner search benchmark — which covers every registered strategy,
# portfolio included — the cold-vs-warm serving benchmark and the
# warm-start remapping benchmark), so none can rot unnoticed. The Table 1
# portfolio run additionally smokes the multi-start lockstep path (elite
# exchange across chains), which the single-chain searchbench cannot reach,
# and BenchmarkSearchHeavy runs the search-heavy workload's shape (np=160 on
# mesh-5x8, portfolio, two chains, 2000 trials) through the same path.
bench-smoke:
	$(GO) test -bench Refine -benchtime 10x -run '^$$' ./internal/schedule/
	$(GO) test -bench SearchHeavy -benchtime 2x -run '^$$' .
	$(GO) run ./cmd/mapbench -refinebench -bench-quick
	$(GO) run ./cmd/mapbench -searchbench -bench-quick
	$(GO) run ./cmd/mapbench -table 1 -refiner portfolio -starts 4 -trials 2 > /dev/null
	$(GO) run ./cmd/mapbench -servebench -bench-quick
	$(GO) run ./cmd/mapbench -remapbench -bench-quick
	$(GO) run ./cmd/mapbench -replaybench -bench-quick

# The repository benchmark (bench/) is its own Go module, so `go test ./...`
# at the root neither builds nor tests it. Vet and test it here, so an API
# change in graph, ideal, critical or schedule that breaks the benchmark
# fails CI instead of the next benchmark run.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Short fuzzing pass so the checked-in fuzzers actually run in CI instead
# of only replaying their corpus seeds: ~10s each on the text-format
# problem, system and clustering parsers and the server's request
# decoding/solve, remap and fleet forwarding paths.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseProblem$$' -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSystem$$' -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzParseClustering$$' -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzSolveRequest$$' -fuzztime 10s ./cmd/mapserve/
	$(GO) test -run '^$$' -fuzz '^FuzzRemapRequest$$' -fuzztime 10s ./cmd/mapserve/
	$(GO) test -run '^$$' -fuzz '^FuzzForwardRequest$$' -fuzztime 10s ./cmd/mapserve/

# Run every program under examples/ once. They are the documented entry
# points into the library facade, and `go build ./...` only compiles them;
# this catches one that errors or panics at run time. Output is discarded:
# a non-zero exit fails the target.
examples-smoke:
	@for d in examples/*/; do \
		echo "examples-smoke: $$d"; \
		$(GO) run "./$$d" > /dev/null || exit 1; \
	done

ci: build vet lint test race bench-smoke bench-module fuzz-smoke examples-smoke

clean:
	$(GO) clean ./...
