#!/usr/bin/env bash
# Guard the committed BENCH_*.json baselines: compare the median_ms of
# every case in a freshly regenerated bench file against the same label in
# the committed baseline, and flag cases that got slower by more than the
# tolerance. Used by the `bench-guard` CI job (a blocking counter step run
# with BENCH_GUARD_WARN_ONLY=1, then an advisory median step; the diffs are
# uploaded as an artifact); runnable locally after a bench run:
#
#   cargo bench -p kaleidoscope-bench --bench solver
#   scripts/bench_guard.sh BENCH_solver.json
#
# Knobs (environment):
#   BENCH_GUARD_REF        baseline git ref          (default: HEAD)
#   BENCH_GUARD_TOL_PCT    slower-than tolerance, %  (default: 25)
#   BENCH_GUARD_OUT        diff report path          (default: bench_guard_diff.txt)
#   BENCH_GUARD_WARN_ONLY  1 = never fail            (default: 1 on a 1-CPU
#                          machine, where medians measure scheduler noise,
#                          else 0)
#
# Deterministic counters: samples that carry the solver's cost counters
# (`pops`, `union_words`, `alloc_bytes`, `alloc_calls`, `peak_pts_bytes`
# in BENCH_solver.json) are also gated per sample on those: any change in
# `pops` or any rise in the other four fails the guard. These counters
# do not depend on the host, so warn-only mode (and its 1-CPU default)
# never excuses them — only the wall-clock medians get the tolerance.
#
# Exit code: 0 when clean or warn-only (medians only); 1 when a median
# regression exceeds the tolerance and warn-only is off, or when any
# deterministic counter regressed; 2 on usage errors.

set -euo pipefail

REF="${BENCH_GUARD_REF:-HEAD}"
TOL="${BENCH_GUARD_TOL_PCT:-25}"
OUT="${BENCH_GUARD_OUT:-bench_guard_diff.txt}"

CPUS="$(nproc 2>/dev/null || echo 1)"
if [[ -z "${BENCH_GUARD_WARN_ONLY:-}" ]]; then
    if [[ "$CPUS" -le 1 ]]; then
        BENCH_GUARD_WARN_ONLY=1
    else
        BENCH_GUARD_WARN_ONLY=0
    fi
fi

if [[ "$#" -lt 1 ]]; then
    echo "usage: $0 BENCH_xxx.json [more BENCH files...]" >&2
    exit 2
fi

# One "label median" pair per sample line. The bench writers emit one
# sample object per line, so line-oriented sed is exact, not heuristic.
medians() {
    sed -n 's/.*"label": "\([^"]*\)".*"median_ms": \([0-9.]*\).*/\1 \2/p'
}

# One "name value" pair per counter line (the `"counters"` object is also
# one entry per line). Counters are informational breakdowns — fe-cache
# hits, parse/gen milliseconds behind the serve/incr medians — and are
# diffed for the report but never fail the guard.
counters() {
    sed -n '/"counters"/,/}/s/^ *"\([a-z_]*\)": \([0-9]*\),\{0,1\}$/\1 \2/p'
}

# One "label pops union_words alloc_bytes alloc_calls peak_pts_bytes" line
# per sample
# that carries at least one of the deterministic counters; `-` marks a
# counter the sample lacks.
det_counters() {
    awk '
        /"label": "/ {
            match($0, /"label": "[^"]*"/)
            line = substr($0, RSTART + 10, RLENGTH - 11)
            found = 0
            n = split("pops union_words alloc_bytes alloc_calls peak_pts_bytes", keys, " ")
            for (i = 1; i <= n; i++) {
                if (match($0, "\"" keys[i] "\": [0-9]+")) {
                    v = substr($0, RSTART, RLENGTH)
                    sub(/.*: /, "", v)
                    line = line " " v
                    found = 1
                } else {
                    line = line " -"
                }
            }
            if (found) print line
        }
    '
}

: >"$OUT"
status=0
counter_status=0
for f in "$@"; do
    if [[ ! -f "$f" ]]; then
        echo "error: $f does not exist (run the bench first)" >&2
        exit 2
    fi
    if ! git cat-file -e "$REF:$f" 2>/dev/null; then
        echo "$f: no baseline at $REF (new file, nothing to compare)" | tee -a "$OUT"
        continue
    fi
    echo "== $f vs $REF (tolerance +$TOL%) ==" | tee -a "$OUT"
    if ! awk -v tol="$TOL" '
        NR == FNR { base[$1] = $2; next }
        {
            cur[$1] = $2
            if ($1 in base) {
                delta = base[$1] > 0 ? ($2 - base[$1]) / base[$1] * 100 : 0
                verdict = delta > tol ? "REGRESSION" : "ok"
                printf "%-11s %-46s %10.3f -> %10.3f ms  (%+.1f%%)\n", \
                    verdict, $1, base[$1], $2, delta
                if (delta > tol) bad = 1
            } else {
                printf "%-11s %-46s %23s %10.3f ms\n", "NEW", $1, "", $2
            }
        }
        END {
            for (l in base) if (!(l in cur))
                printf "%-11s %s\n", "REMOVED", l
            exit bad
        }
    ' <(git show "$REF:$f" | medians) <(medians <"$f") | tee -a "$OUT"; then
        status=1
    fi
    # Counter breakdown diff (informational only).
    awk '
        NR == FNR { base[$1] = $2; next }
        {
            if ($1 in base && base[$1] != $2)
                printf "%-11s %-46s %10d -> %10d\n", "counter", $1, base[$1], $2
            else if (!($1 in base))
                printf "%-11s %-46s %23s %10d\n", "counter-new", $1, "", $2
        }
    ' <(git show "$REF:$f" | counters) <(counters <"$f") | tee -a "$OUT"
    # Deterministic cost counters (gating, never warn-only).
    if ! awk '
        BEGIN { n = split("pops union_words alloc_bytes alloc_calls peak_pts_bytes", names, " ") }
        NR == FNR { for (i = 2; i <= n + 1; i++) base[$1, i] = $i; known[$1] = 1; next }
        ($1 in known) {
            for (i = 2; i <= n + 1; i++) {
                b = base[$1, i]
                c = $i
                if (b == "-" || c == "-") continue
                if (i == 2 ? c != b : c + 0 > b + 0) {
                    printf "%-11s %-46s %s %s -> %s\n", "COUNTER", $1, names[i - 1], b, c
                    bad = 1
                }
            }
        }
        END { exit bad }
    ' <(git show "$REF:$f" | det_counters) <(det_counters <"$f") | tee -a "$OUT"; then
        counter_status=1
    fi
done

if [[ "$counter_status" -ne 0 ]]; then
    echo "bench_guard: deterministic counters regressed (pops changed, or union_words/alloc_bytes/alloc_calls/peak_pts_bytes rose) — see $OUT" >&2
    exit 1
fi

if [[ "$status" -ne 0 ]]; then
    if [[ "$BENCH_GUARD_WARN_ONLY" -eq 1 ]]; then
        echo "bench_guard: regressions beyond +$TOL% (warn-only: $CPUS CPU(s))" | tee -a "$OUT"
        exit 0
    fi
    echo "bench_guard: regressions beyond +$TOL% — see $OUT" >&2
    exit 1
fi
echo "bench_guard: all medians within +$TOL% of $REF" | tee -a "$OUT"
