#!/bin/sh
# Tracing smoke test: a race-built daemon with request tracing armed
# and a failpoint injecting an 8ms sleep between the WAL write and its
# fsync, under a write-heavy load. This is the live verification of the
# span recorder's attribution (DESIGN.md §13): with fsync artificially
# slow, the flight recorder's slowest trace MUST blame the group-fsync
# barrier (dominant=wal_barrier) — and the /debug/traces JSON view and
# the exemplar comments on the scrape must hold up at the same time.
set -eu

cd "$(dirname "$0")/.."
ADDR=${ADDR:-127.0.0.1:6399}
MADDR=${MADDR:-127.0.0.1:6398}
DUR=${DUR:-6s}
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

GORACE=halt_on_error=1 "$TMP/mvkvd" -addr "$ADDR" -metrics-addr "$MADDR" \
    -store mvrlu-kv -shards 1 -wal "$TMP/wal" -trace \
    -failpoints 'wal-before-fsync=sleep(8ms)' &
daemon=$!
sleep 1

# Preload first, then drop its traces: the preload is one giant MSET
# whose accumulated per-op engine time can out-weigh a single 8ms
# barrier sleep, which would muddy the attribution check below.
"$TMP/mvkvload" -addr "$ADDR" -conns 1 -duration 0s >/dev/null \
    || fail "preload failed"
"$TMP/mvkvload" -addr "$ADDR" -cmd "TRACELOG RESET" >/dev/null \
    || fail "TRACELOG RESET failed"

# Write-heavy load so every batch crosses the WAL and waits out the
# injected sleep at the group-commit barrier.
"$TMP/mvkvload" -addr "$ADDR" -conns 8 -pipeline 16 -readpct 10 \
    -preload=false -duration "$DUR" >"$TMP/load.out" \
    || fail "load generator reported errors"

# 1. The slowest retained trace must attribute its time to the barrier.
"$TMP/mvkvload" -addr "$ADDR" -cmd "TRACELOG 1" >"$TMP/tracelog" \
    || fail "TRACELOG over RESP"
grep -q '^tracing=on' "$TMP/tracelog" || fail "TRACELOG header: $(cat "$TMP/tracelog")"
grep -q 'wal_barrier=' "$TMP/tracelog" || fail "slowest trace has no wal_barrier stage"
grep -q 'dominant=wal_barrier' "$TMP/tracelog" \
    || fail "slowest trace not dominated by the WAL barrier: $(grep '^id=' "$TMP/tracelog")"

# 2. The GC/event timeline must have recorded the slow fsyncs. Query
# near the ring's full depth: the GP detector keeps ticking
# watermark/broadcast events after the load stops, so a shallow window
# would show only those.
"$TMP/mvkvload" -addr "$ADDR" -cmd "TRACELOG GC 4000" >"$TMP/gclog" \
    || fail "TRACELOG GC over RESP"
grep -q '^events total=' "$TMP/gclog" || fail "TRACELOG GC header: $(cat "$TMP/gclog")"
grep -q 'kind=wal_fsync' "$TMP/gclog" || fail "no wal_fsync events in timeline"

# 3. /debug/traces?gc=1 must parse as JSON and carry the same story.
curl -fsS "http://$MADDR/debug/traces?gc=1" >"$TMP/traces.json" \
    || fail "/debug/traces scrape error"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$TMP/traces.json" <<'EOF' || fail "/debug/traces JSON invalid or incomplete"
import json, sys
page = json.load(open(sys.argv[1]))
assert page["tracing"] is True, "tracing flag off"
assert page["recorded"] > 0, "nothing recorded"
assert page["slowest"], "no slowest traces"
# This script's own TRACELOG queries are traced too, and rendering the
# 4000-event timeline above can out-last an 8ms barrier: skip them.
top = next(t for t in page["slowest"] if t["cmd"] != "tracelog")
assert top["dominant"] == "wal_barrier", f"dominant={top['dominant']}"
assert top["stages"].get("wal_barrier", 0) > 0, "no wal_barrier stage time"
assert any(e["kind"] == "wal_fsync" for e in page.get("events", [])), "no wal_fsync event"
EOF
else
    grep -q '"tracing": true' "$TMP/traces.json" || fail "/debug/traces tracing flag"
    grep -q '"dominant": "wal_barrier"' "$TMP/traces.json" \
        || fail "/debug/traces slowest not barrier-dominated"
    grep -q '"kind": "wal_fsync"' "$TMP/traces.json" || fail "/debug/traces missing fsync events"
fi

# 4. The scrape carries exemplars pointing at retained trace IDs.
curl -fsS "http://$MADDR/metrics" >"$TMP/scrape" || fail "/metrics scrape error"
grep -q '^# EXEMPLAR server_batch_ns_bucket' "$TMP/scrape" \
    || fail "/metrics missing server_batch_ns exemplars"
grep -q 'trace_id=' "$TMP/scrape" || fail "exemplar lines carry no trace_id"

"$TMP/mvkvload" -addr "$ADDR" -conns 1 -duration 0s -preload=false \
    -shutdown >/dev/null
wait "$daemon" || fail "daemon exited non-zero (race detected?)"
daemon=""
echo "PASS: slowest trace blamed wal_barrier; timeline, JSON view, and exemplars intact"
