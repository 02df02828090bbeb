#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload serve_ingest --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# at the repository root: the Go build cache, the go command's config
# (telemetry counters), the binary, scratch stores and the traced run's
# span file (.bench_build/work/trace-<workload>.jsonl).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/work" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/gocache" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -buildvcs=false -o "$out/e2ebench" .)
commit=unknown
if [ -e "$root/.git" ]; then
	commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
exec "$out/e2ebench" -dir "$out/work" -commit "$commit" "$@"
