#!/bin/sh
# Crash-recovery check: "acknowledged implies durable", verified the
# hard way. A race-built daemon runs with a WAL; mvkvload hammers it
# with a write burst while recording every acknowledged write to a local
# file; the daemon is SIGKILLed mid-burst; a fresh daemon recovers from
# the same WAL directory; mvkvload then audits that every single
# acknowledged write is present with its acknowledged (or a later acked)
# value. Runs the whole cycle at 1 shard and at 4. Any lost write fails
# the script.
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

for shards in 1 4; do
    echo "=== crash check: shards=$shards ==="
    WALDIR="$TMP/wal-$shards"
    ACKED="$TMP/acked-$shards.json"

    # Short snapshot interval so the kill usually lands with a snapshot
    # AND a live log tail in play — the recovery path that matters.
    GORACE=halt_on_error=1 "$TMP/mvkvd" -addr "$ADDR" -shards "$shards" \
        -wal "$WALDIR" -snapshot-interval 2s >"$TMP/d1-$shards.log" 2>&1 &
    daemon=$!
    wait_ready "$ADDR"

    "$TMP/mvkvload" -addr "$ADDR" -durability-check "$ACKED" \
        -conns 8 -pipeline 8 -duration "$BURST" >"$TMP/burst-$shards.log" 2>&1 &
    load=$!
    sleep "$KILL_AFTER"

    echo "SIGKILL daemon (pid $daemon) mid-burst"
    kill -9 "$daemon" 2>/dev/null || true
    wait "$daemon" 2>/dev/null || true
    daemon=""
    wait "$load" || fail "durability-check burst failed (not a conn drop)"
    cat "$TMP/burst-$shards.log"

    # Restart over the same WAL directory and audit every acked write.
    GORACE=halt_on_error=1 "$TMP/mvkvd" -addr "$ADDR" -shards "$shards" \
        -wal "$WALDIR" -snapshot-interval 2s >"$TMP/d2-$shards.log" 2>&1 &
    daemon=$!
    wait_ready "$ADDR"
    grep "wal recovery" "$TMP/d2-$shards.log" || true

    "$TMP/mvkvload" -addr "$ADDR" -durability-verify "$ACKED" ||
        fail "acked writes lost after kill -9 (shards=$shards)"

    "$TMP/mvkvload" -addr "$ADDR" -cmd shutdown >/dev/null 2>&1 || true
    wait "$daemon" 2>/dev/null || true
    daemon=""
done

# Second phase: multi-key transactions, on the ordered-index build and on
# the default hash build (every build commits a MULTI body atomically).
# Each connection bursts MULTI/EXEC bodies writing a same-shard key group
# to one sequence value; the WAL logs each body as an atomic record
# group, so after the kill the restarted store must show every group
# uniform — a group with mixed values is a transaction torn by recovery.
for build in mvrlu-idx mvrlu-kv; do
for shards in 1 4; do
    echo "=== crash check (MULTI): store=$build shards=$shards ==="
    WALDIR="$TMP/wal-txn-$build-$shards"
    ACKED="$TMP/acked-txn-$build-$shards.json"

    GORACE=halt_on_error=1 "$TMP/mvkvd" -addr "$ADDR" -store "$build" -shards "$shards" \
        -wal "$WALDIR" -snapshot-interval 2s >"$TMP/d1-txn-$build-$shards.log" 2>&1 &
    daemon=$!
    wait_ready "$ADDR"

    "$TMP/mvkvload" -addr "$ADDR" -durability-check "$ACKED" -multi -txn-keys 4 \
        -conns 8 -pipeline 8 -duration "$BURST" >"$TMP/burst-txn-$build-$shards.log" 2>&1 &
    load=$!
    sleep "$KILL_AFTER"

    echo "SIGKILL daemon (pid $daemon) mid-burst"
    kill -9 "$daemon" 2>/dev/null || true
    wait "$daemon" 2>/dev/null || true
    daemon=""
    wait "$load" || fail "MULTI durability-check burst failed (not a conn drop)"
    cat "$TMP/burst-txn-$build-$shards.log"

    GORACE=halt_on_error=1 "$TMP/mvkvd" -addr "$ADDR" -store "$build" -shards "$shards" \
        -wal "$WALDIR" -snapshot-interval 2s >"$TMP/d2-txn-$build-$shards.log" 2>&1 &
    daemon=$!
    wait_ready "$ADDR"
    grep "wal recovery" "$TMP/d2-txn-$build-$shards.log" || true

    "$TMP/mvkvload" -addr "$ADDR" -durability-verify "$ACKED" -multi ||
        fail "MULTI transaction torn or lost after kill -9 (store=$build shards=$shards)"

    "$TMP/mvkvload" -addr "$ADDR" -cmd shutdown >/dev/null 2>&1 || true
    wait "$daemon" 2>/dev/null || true
    daemon=""
done
done

echo "PASS: zero acknowledged writes lost and zero torn transactions across kill -9 (shards=1 and shards=4; MULTI on mvrlu-idx and mvrlu-kv)"
