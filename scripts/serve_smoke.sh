#!/usr/bin/env bash
# Smoke test for the `kd serve` daemon: seed its cache with an offline
# `kd analyze`, start it, drive ~20 mixed requests (cold solves, warm cache
# repeats, a hit on the offline report, fingerprint queries, over-budget
# requests, an injected worker kill) through `kd request`, and assert that
# zero requests are dropped and every response carries the expected tier
# tag. Used by the `serve-smoke` CI job; runnable locally:
#
#   cargo build --release
#   scripts/serve_smoke.sh target/release/kd

set -euo pipefail

KD="${1:-target/release/kd}"
if [[ ! -x "$KD" ]]; then
    echo "error: kd binary not found at $KD (build with: cargo build --release)" >&2
    exit 1
fi

WORK="$(mktemp -d)"
CACHE="$WORK/cache"
SERVE_LOG="$WORK/serve.log"
DAEMON_PID=""

cleanup() {
    if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill "$DAEMON_PID" 2>/dev/null || true
        wait "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
# An EXIT trap alone does not run when a signal kills the shell, so ^C or
# a CI cancellation would leak the daemon and the temp dir. Catch INT/TERM
# explicitly, clean up once, and exit with the conventional 128+signal
# code so callers see the interruption, not a pass.
on_signal() {
    trap - EXIT INT TERM
    cleanup
    exit "$1"
}
trap cleanup EXIT
trap 'on_signal 130' INT
trap 'on_signal 143' TERM

# --- offline analyze into the shared cache ---------------------------------
# `kd analyze` and the daemon's `kd worker` shards write and read one cache
# contract: the report stored here must be a hit for the daemon below.
"$KD" analyze --model Libtiff --cache-dir "$CACHE" >"$WORK/offline.out"

# --- start the daemon and scrape its address -------------------------------
"$KD" serve --addr 127.0.0.1:0 --cache-dir "$CACHE" --shards 2 --unsafe-faults \
    >"$SERVE_LOG" 2>&1 &
DAEMON_PID=$!

ADDR=""
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^kd serve: listening on //p' "$SERVE_LOG" | head -n1)"
    [[ -n "$ADDR" ]] && break
    if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
        echo "error: daemon exited at startup:" >&2
        cat "$SERVE_LOG" >&2
        exit 1
    fi
    sleep 0.1
done
if [[ -z "$ADDR" ]]; then
    echo "error: daemon never printed its address" >&2
    exit 1
fi
echo "daemon up at $ADDR (pid $DAEMON_PID)"

# --- request driver --------------------------------------------------------
TOTAL=0
FAILED=0

# send <expected-tier-or-`-`> <expected-cache-or-`-`> <kd request args...>
send() {
    local want_tier="$1" want_cache="$2"
    shift 2
    TOTAL=$((TOTAL + 1))
    local meta
    if ! meta="$("$KD" request --addr "$ADDR" "$@" 2>&1 >"$WORK/report.out")"; then
        echo "FAIL request #$TOTAL ($*): dropped or errored: $meta" >&2
        FAILED=$((FAILED + 1))
        return
    fi
    if [[ ! -s "$WORK/report.out" ]]; then
        echo "FAIL request #$TOTAL ($*): empty report" >&2
        FAILED=$((FAILED + 1))
        return
    fi
    if [[ "$want_tier" != "-" && "$meta" != *"tier=$want_tier"* ]]; then
        echo "FAIL request #$TOTAL ($*): wanted tier=$want_tier, got: $meta" >&2
        FAILED=$((FAILED + 1))
        return
    fi
    if [[ "$want_cache" != "-" && "$meta" != *"cache=$want_cache"* ]]; then
        echo "FAIL request #$TOTAL ($*): wanted cache=$want_cache, got: $meta" >&2
        FAILED=$((FAILED + 1))
        return
    fi
    echo "ok   request #$TOTAL ($*): ${meta#kd request: }"
}

MODELS=(TinyDTLS Lighttpd Memcached Curl Wget)

# Cold solves: first sight of each module, full tier, stored to the cache.
for m in "${MODELS[@]}"; do
    send full stored --model "$m"
done

# Warm repeats: same modules again, served from the cache without a solve.
for m in "${MODELS[@]}"; do
    send full hit --model "$m"
done

# Stored by the offline `kd analyze` above: a hit with the same bytes.
send full hit --model Libtiff
if ! cmp -s "$WORK/offline.out" "$WORK/report.out"; then
    echo "FAIL: served Libtiff report differs from the offline kd analyze" >&2
    FAILED=$((FAILED + 1))
fi

# Fingerprint-only repeat: query by content hash, no module on the wire.
FP="$("$KD" request --addr "$ADDR" --model TinyDTLS 2>&1 >/dev/null |
    grep -o 'fingerprint=[0-9a-f]*' | head -n1 | cut -d= -f2)"
send full hit --fingerprint "$FP"

# Over-budget requests: a 1-iteration budget lands on the Steensgaard
# rung (single-config scope, so the warm cache above does not mask it).
for m in TinyDTLS Lighttpd Memcached; do
    send steensgaard miss --model "$m" --config all --budget 1
done

# Worker kill: the injected fault takes out the worker (and its retry
# replacement); the router sheds. Tagged degraded response, never dropped.
send steensgaard - --model MbedTLS --fault kill

# The daemon must still serve full-tier traffic after the kill.
send full stored --model MbedTLS
send full hit --model MbedTLS

# A second tenant gets its own shard pool over the same shared cache.
for m in TinyDTLS Lighttpd; do
    send full hit --model "$m" --tenant other
done

# Mixed stats-scope requests (distinct cache key, so: solve then hit).
send full stored --model TinyDTLS --stats
send full hit --model TinyDTLS --stats

# --- verdict ---------------------------------------------------------------
if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
    echo "FAIL: daemon died during the run" >&2
    cat "$SERVE_LOG" >&2
    exit 1
fi

echo "smoke: $TOTAL requests, $FAILED failed, daemon still serving"
if [[ "$FAILED" -ne 0 ]]; then
    exit 1
fi
if [[ "$TOTAL" -lt 20 ]]; then
    echo "FAIL: expected at least 20 requests in the mix, drove $TOTAL" >&2
    exit 1
fi
