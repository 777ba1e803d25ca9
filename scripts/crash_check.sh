#!/bin/sh
# Crash-recovery check: "acknowledged implies durable", verified the
# hard way. A race-built daemon runs with a WAL; mvkvload hammers it
# with a write burst while recording every acknowledged key group to a
# local file; the daemon is SIGKILLed mid-burst; a fresh daemon recovers
# from the same WAL directory; mvkvload then audits that every
# acknowledged group is present, uniform and at its acknowledged (or a
# later acked) value. Three phases, each at 1 shard and at 4: plain
# one-key SETs on mvrlu-kv (the per-op commit hook), and MULTI/EXEC
# bodies over 4-key same-shard groups (one WAL record group each) on
# mvrlu-idx and mvrlu-kv. Any lost, torn or stale group fails the script.
set -eu

cd "$(dirname "$0")/.."
ADDR=${ADDR:-127.0.0.1:6397}
BURST=${BURST:-6s}
KILL_AFTER=${KILL_AFTER:-3}
TMP=$(mktemp -d)
daemon=""
cleanup() {
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

# wait_ready ADDR: poll PING until the daemon serves.
wait_ready() {
    i=0
    while ! "$TMP/mvkvload" -addr "$1" -cmd ping >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -ge 100 ] && fail "daemon on $1 never became ready"
        sleep 0.1
    done
}

for phase in plain:mvrlu-kv multi:mvrlu-idx multi:mvrlu-kv; do
for shards in 1 4; do
    mode=${phase%%:*}
    build=${phase#*:}
    multi=""
    [ "$mode" = multi ] && multi=-multi
    run="$mode-$build-$shards"
    echo "=== crash check: $mode writes, store=$build shards=$shards ==="
    WALDIR="$TMP/wal-$run"
    ACKED="$TMP/acked-$run.json"

    # Short snapshot interval so the kill usually lands with a snapshot
    # AND a live log tail in play — the recovery path that matters.
    GORACE=halt_on_error=1 "$TMP/mvkvd" -addr "$ADDR" -store "$build" -shards "$shards" \
        -wal "$WALDIR" -snapshot-interval 2s >"$TMP/d1-$run.log" 2>&1 &
    daemon=$!
    wait_ready "$ADDR"

    "$TMP/mvkvload" -addr "$ADDR" -durability-check "$ACKED" $multi \
        -conns 8 -pipeline 8 -duration "$BURST" >"$TMP/burst-$run.log" 2>&1 &
    load=$!
    sleep "$KILL_AFTER"

    echo "SIGKILL daemon (pid $daemon) mid-burst"
    kill -9 "$daemon" 2>/dev/null || true
    wait "$daemon" 2>/dev/null || true
    daemon=""
    wait "$load" || fail "durability-check burst failed (not a conn drop)"
    cat "$TMP/burst-$run.log"

    # Restart over the same WAL directory and audit every acked group.
    GORACE=halt_on_error=1 "$TMP/mvkvd" -addr "$ADDR" -store "$build" -shards "$shards" \
        -wal "$WALDIR" -snapshot-interval 2s >"$TMP/d2-$run.log" 2>&1 &
    daemon=$!
    wait_ready "$ADDR"
    grep "wal recovery" "$TMP/d2-$run.log" || true

    "$TMP/mvkvload" -addr "$ADDR" -durability-verify "$ACKED" ||
        fail "acked writes lost, torn or stale after kill -9 ($mode, store=$build shards=$shards)"

    "$TMP/mvkvload" -addr "$ADDR" -cmd shutdown >/dev/null 2>&1 || true
    wait "$daemon" 2>/dev/null || true
    daemon=""
done
done

echo "PASS: zero acknowledged writes lost and zero torn transactions across kill -9 (shards=1 and shards=4; MULTI on mvrlu-idx and mvrlu-kv)"
