#!/usr/bin/env bash
# Builds perfbench from source and runs it with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload lookup-window --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# trace files stay under .bench_build/ in the current directory; build
# output goes to standard error so that the last line of standard output
# is the benchmark's JSON result. XDG_CONFIG_HOME and GOPATH point into
# .bench_build/ too, so that the go command's own state (telemetry
# counters among it) is written there and not under $HOME.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
