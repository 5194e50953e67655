# Tier-1 verification plus the race/vet/lint/bench gates for the parallel
# execution engine. `make ci` is the one-command gate.

GO ?= go

.PHONY: all build test golden race vet fmt lint vuln bench bench-smoke bench-module fuzz-smoke examples-smoke loc ci clean

all: ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Rewrite cmd/mapbench/testdata/*.golden from the current mapbench output,
# and cmd/mapserve/testdata/*.golden from the current /solve and /remap
# response bodies. `make test` compares every reproduction mode's report and
# every pinned body against these files byte for byte; regenerate them only
# for an intended output change, and review the diff.
golden:
	$(GO) test ./cmd/mapbench -run TestGoldenReports -update
	$(GO) test ./cmd/mapserve -run TestGoldenBodies -update

# Race-detector pass over every package; the worker pool, the multi-start
# mapper and the experiment fan-out all have tests that exercise shared
# state concurrently.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fail when any tracked Go file is not gofmt-formatted; the offending files
# are listed.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "fmt: gofmt would reformat:"; echo "$$out"; exit 1; fi

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

# Fast benchmark gate for CI: the refinement-kernel benchmarks
# (BenchmarkSwapScalar, one priced trial per TrySwap on the five Table 1–3
# machines, the large-cold shape and a narrow pipelines one;
# BenchmarkRefineTotalTime and BenchmarkRefineEvaluateInto, the evaluator's
# own passes) and the search-strategy
# benchmark (BenchmarkRefiners: every registered refiner, portfolio
# included, on three of those machines) at a short benchtime, so none can
# rot unnoticed. BenchmarkSearchHeavy runs the search-heavy workload's shape
# (np=160 on mesh-5x8, portfolio, two chains, 2000 trials),
# BenchmarkColdMapLarge the large-cold one (np=2000 on mesh-8x16, a whole
# cold solve), BenchmarkInitialAssignment the §4.3.2 placement layer alone
# on the large-cold shape and a mesh-5x8 Table shape, and the Table 1
# portfolio run smokes the multi-start lockstep path (elite exchange across
# chains), which the single-chain BenchmarkRefiners cannot reach.
bench-smoke:
	$(GO) test -bench 'SwapScalar|RefineTotalTime|RefineEvaluateInto' -benchtime 10x -run '^$$' ./internal/schedule/
	$(GO) test -bench 'InitialAssignment' -benchtime 10x -run '^$$' ./internal/core/
	$(GO) test -run '^$$' -bench Refiners -benchtime 64x ./internal/search/
	$(GO) test -bench 'SearchHeavy|ColdMapLarge' -benchtime 2x -run '^$$' .
	$(GO) run ./cmd/mapbench -table 1 -refiner portfolio -starts 4 -trials 2 > /dev/null

# The repository benchmark (bench/) is its own Go module, so `go test ./...`
# at the root neither builds nor tests it. Vet and test it here, so an API
# change in graph, ideal, critical or schedule that breaks the benchmark
# fails CI instead of the next benchmark run.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Short fuzzing pass so the checked-in fuzzers actually run in CI instead
# of only replaying their corpus seeds: ~10s each on the text-format
# problem, system and clustering parsers, the swap session's
# critical-chain bound, whole solves through the service layer, and the
# server's request decoding/solve, remap and fleet forwarding paths.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseProblem$$' -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSystem$$' -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzParseClustering$$' -fuzztime 10s ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzCertificate$$' -fuzztime 10s ./internal/schedule/
	$(GO) test -run '^$$' -fuzz '^FuzzSolve$$' -fuzztime 10s ./internal/service/
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

# Count the non-test Go lines outside the benchmark module, the size
# ROADMAP quotes. Tracked files only; informational, so not part of ci.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^bench/' | xargs cat | wc -l

ci: build vet fmt lint test race bench-smoke bench-module fuzz-smoke examples-smoke

clean:
	$(GO) clean ./...
