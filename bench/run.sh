#!/usr/bin/env bash
# Builds the benchmark and cmd/mapserve from this checkout's sources into
# .bench_build/, then runs the benchmark from the repository root with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload large-cold --seed 1991 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the go command's local telemetry
# (kept under the user config directory) stay inside .bench_build/ too.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off

cd "$root/bench"
go build -buildvcs=false -o "$out/bench" .
go build -buildvcs=false -o "$out/mapserve" mimdmap/cmd/mapserve

commit=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

cd "$root"
exec "$out/bench" -mapserve "$out/mapserve" -commit "$commit" "$@"
