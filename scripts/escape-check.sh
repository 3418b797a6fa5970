#!/bin/sh
# escape-check.sh — escape-analysis spot-check for the sweep engine's
# kernel files.
#
# The FP response-time and EDF demand-bound inner loops (rta.go,
# edf.go), the incremental probe engine every writer and reader probe
# runs in (engine.go) with its two owners — the recycling admission
# contexts (context_fp.go, context_edf.go) and the snapshot probers
# (snapshot.go) — the split-budget hint and search (hint.go, partition/budget.go), the
# bin-packers' fit-ordered placement (partition/partition.go), the
# pooled generator (taskgen.go NextInto/uuniFastInto) and the
# sweep worker loop (experiment.go runShard) are written to keep every
# per-iteration value on the stack; the allocation guards
# (alloc_test.go, sweep_alloc_test.go, partition's budget_test.go and
# place_test.go) prove the steady state, and
# this check catches the compiler-level cause early: a local in a
# kernel file being "moved to heap" means some refactor made scratch
# escape, and the next bench run would pay an allocation per probe.
#
# The daemon's non-holding try (admitd's handleTry and Session.tryRead)
# is held to the same rule function by function: its decoded request and
# core stay on the handler's stack. The holding branch (tryHold) moves
# its core to the heap on purpose, for the actor closure, and is not
# checked.
#
# Intentional heap allocations remain: entity construction on the
# setup path and panic-message strings report "escapes to heap" and are
# fine. Only "moved to heap" — a stack local forced off the stack — is
# a regression.
set -eu
cd "$(dirname "$0")/.."

fail=0

check() {
	# $1: label, $2: build target, $3: file regex, $4: allowlist regex
	# (variable names of known cold-path escapes; empty = none).
	out="$(go build -gcflags='-m' "$2" 2>&1 |
		grep -E "$3" |
		grep 'moved to heap' || true)"
	if [ -n "$4" ]; then
		out="$(printf '%s' "$out" | grep -vE "moved to heap: ($4)\$" || true)"
	fi
	if [ -n "$out" ]; then
		echo "escape-check: $1 locals moved to heap:" >&2
		echo "$out" >&2
		fail=1
	fi
}

check "analysis kernel" ./internal/analysis/ \
	'^(\./)?internal/analysis/(rta|edf|engine|hint|snapshot|context_fp|context_edf)\.go' ""

check "split-budget search and fit-ordered placement" ./internal/partition/ \
	'^(\./)?internal/partition/(budget|partition)\.go' ""

# Cold-path allowlist: rand.rng is the generator's RNG constructed
# once in New; name is the PeriodDist JSON decoder's scratch; cfg and
# wg are RunContext's per-run setup captured by worker goroutines.
# None of these sit inside the per-set sweep loop.
check "taskgen/experiment sweep kernel" ./internal/experiment/ \
	'^(\./)?internal/(taskgen/taskgen|taskgen/setcache|experiment/experiment)\.go' \
	'rand\.rng|name|cfg|wg'

# check_funcs: $1 label, $2 package directory, $3 file in it, $4 the
# functions to check (an alternation of names). A local of one of those
# functions moved to heap fails.
check_funcs() {
	out="$(go build -gcflags='-m' "./$2" 2>&1 | awk -v file="$3" -v names="$4" '
		FNR == NR {
			if ($0 ~ "^func (\\([^)]*\\) )?(" names ")\\(") start = FNR
			else if (start && $0 ~ /^}/) { lo[++n] = start; hi[n] = FNR; start = 0 }
			next
		}
		/moved to heap/ {
			split($0, f, ":")
			if (f[1] !~ ("(^|/)" file "$")) next
			for (i = 1; i <= n; i++) if (f[2] + 0 >= lo[i] && f[2] + 0 <= hi[i]) print
		}' "$2/$3" -)"
	if [ -n "$out" ]; then
		echo "escape-check: $1 locals moved to heap:" >&2
		echo "$out" >&2
		fail=1
	fi
}

check_funcs "admitd non-holding try (handler)" internal/admitd server.go 'handleTry'
check_funcs "admitd non-holding try (session)" internal/admitd session.go 'tryRead'

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "escape-check: sweep kernels (analysis, partition budget search and placement, taskgen, experiment) and admitd's non-holding try keep their locals on the stack"
