#!/usr/bin/env bash
# Builds the wmsn benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload spr-field --seed 1 --seconds 30 --trace 0
#
# Every build artefact and cache stays under .bench_build/ in the working
# directory; the last line of standard output is the result JSON.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export GOFLAGS="-mod=mod -buildvcs=false"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config"

# The benchmark module replaces the wmsn module with ../, so a directory that
# holds only the benchmark files fails here, before anything is measured.
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/scenario" ]; then
	echo "perfbench: no wmsn source tree in $root" >&2
	exit 2
fi
(cd "$root/perfbench" && go build -o "$build/wmsnperf" .)
exec "$build/wmsnperf" "$@"
