#!/usr/bin/env bash
# Builds perfbench from source and runs it from the repository root:
#   bash perfbench/run.sh --workload demo-quick --seed 1 --seconds 30 --trace 0
# Everything the build writes (binary, Go build cache, temporary files,
# the go command's own configuration and telemetry) stays under
# .bench_build/ in the checkout; no module download is ever attempted.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
  GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
