#!/bin/sh
# Metrics smoke test: a race-built daemon under sustained load while
# /metrics and INFO are scraped in a tight loop. This is the live
# verification of the always-safe-scrape discipline (DESIGN.md §8):
# every scrape must succeed, parse, and show a monotonically
# non-decreasing command counter — concurrently with full traffic, with
# the race detector watching every interleaving.
set -eu

cd "$(dirname "$0")/.."
ADDR=${ADDR:-127.0.0.1:6399}
MADDR=${MADDR:-127.0.0.1:6398}
DUR=${DUR:-20s}
TMP=$(mktemp -d)
daemon=""
load=""
cleanup() {
    [ -n "$load" ] && kill "$load" 2>/dev/null || true
    [ -n "$daemon" ] && kill "$daemon" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

go build -race -o "$TMP/mvkvd" ./cmd/mvkvd
go build -o "$TMP/mvkvload" ./cmd/mvkvload

# Two shards so the scrape loop also crosses shard worker goroutines and
# the per-shard labeled series (SHARDS=1 to run everything inline).
GORACE=halt_on_error=1 "$TMP/mvkvd" -addr "$ADDR" -metrics-addr "$MADDR" -shards "${SHARDS:-2}" &
daemon=$!
sleep 1

"$TMP/mvkvload" -addr "$ADDR" -conns 8 -pipeline 16 -readpct 90 \
    -duration "$DUR" >"$TMP/load.out" &
load=$!

# Scrape until the load generator finishes. Each iteration hits the
# HTTP exposition, the RESP INFO command, and the RESP METRICS command,
# so both transports stay correct under concurrent traffic.
prev=0
scrapes=0
while kill -0 "$load" 2>/dev/null; do
    curl -fsS "http://$MADDR/metrics" >"$TMP/scrape" \
        || fail "/metrics scrape error (iteration $scrapes)"
    grep -q '^# TYPE server_commands_total counter$' "$TMP/scrape" \
        || fail "/metrics missing server_commands_total TYPE line"
    grep -q '^# TYPE mvrlu_cs_ns histogram$' "$TMP/scrape" \
        || fail "/metrics missing engine histogram series"
    cur=$(awk '$1=="server_commands_total"{print $2}' "$TMP/scrape")
    [ -n "$cur" ] || fail "server_commands_total sample missing"
    [ "$cur" -ge "$prev" ] \
        || fail "server_commands_total went backwards: $prev then $cur"
    prev=$cur
    "$TMP/mvkvload" -addr "$ADDR" -cmd INFO >"$TMP/info" \
        || fail "INFO over RESP (iteration $scrapes)"
    grep -q '^build:' "$TMP/info" || fail "INFO reply missing build line"
    "$TMP/mvkvload" -addr "$ADDR" -cmd METRICS >"$TMP/resp-metrics" \
        || fail "METRICS over RESP (iteration $scrapes)"
    grep -q '^mvrlu_commit_ns_count' "$TMP/resp-metrics" \
        || fail "METRICS reply missing engine commit histogram"
    scrapes=$((scrapes+1))
    sleep 0.5
done

wait "$load" || fail "load generator reported errors"
load=""
[ "$scrapes" -ge 5 ] || fail "only $scrapes scrape iterations completed"
[ "$prev" -gt 0 ] || fail "command counter never advanced"

"$TMP/mvkvload" -addr "$ADDR" -conns 1 -duration 0s -preload=false \
    -shutdown >/dev/null
wait "$daemon" || fail "daemon exited non-zero (race detected?)"
daemon=""
echo "PASS: $scrapes scrape iterations, server_commands_total reached $prev"
