#!/usr/bin/env bash
# fuzz.sh — run one bounded fuzz target and say how much it ran.
#
#   scripts/fuzz.sh <FuzzTarget> <package> [fuzztime]   (default 10s)
#
# The Go fuzzer can sit at 0 execs/s for seconds while it works on new
# inputs, so a bounded step that passes may have run almost nothing.
# This prints the engine's last exec count after the run and, under
# GitHub Actions, adds a line with it to the job summary, so every fuzz
# step of a job is listed there with what it ran. The exit status is the
# fuzz run's.
set -uo pipefail
target=$1 pkg=$2 budget=${3:-10s}
log="$(mktemp)"
trap 'rm -f "$log"' EXIT
go test -run '^$' -fuzz "^${target}\$" -fuzztime "$budget" -fuzzminimizetime 1s "$pkg" 2>&1 | tee "$log"
status=$?
execs="$(grep -o 'execs: [0-9]*' "$log" | tail -n 1 | cut -d' ' -f2)"
line="$target ($pkg): ${execs:-0} execs in $budget, exit $status"
echo "fuzz: $line"
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
	echo "- $line" >>"$GITHUB_STEP_SUMMARY"
fi
exit "$status"
