#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload wide-pdb --seed 42 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it writes — the Go build
# cache, the binary, the temporary directory and the run's scratch data —
# stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/home"
# HOME too: the go command keeps its config and telemetry counters there.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)

# A private temporary directory per run: the leak census expects it to
# end as empty as it started.
tmp="$build/tmp-$$"
scratch="$build/scratch-$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp" "$scratch"' EXIT
status=0
TMPDIR="$tmp" "$build/perfbench" --scratch "$scratch" --trace-dir "$build/traces" "$@" || status=$?
exit "$status"
