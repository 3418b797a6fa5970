#!/usr/bin/env bash
# Builds the benchmark program from source into .bench_build/ (inside
# the checkout, gitignored) and runs it from the checkout root, so the
# Go build cache, the toolchain's temporary and telemetry files, the
# binary, WAL scratch directories and trace files all stay inside the
# checkout. All arguments go to the program.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal/admitd ]; then
	echo "benchmark: the module under test (go.mod, internal/...) is not beside benchmark/" >&2
	exit 2
fi
mkdir -p .bench_build/gotmp
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$root/.bench_build/gotmp"
export GOTOOLCHAIN=local GOPROXY=off
XDG_CONFIG_HOME="$root/.bench_build/config" go build -C benchmark -o "$root/.bench_build/spbenchmark" .
exec "$root/.bench_build/spbenchmark" "$@"
