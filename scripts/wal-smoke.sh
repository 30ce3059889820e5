#!/usr/bin/env bash
# WAL smoke test (run by `make wal-smoke` and the CI wal-smoke job):
# boot dsks-serve with a write-ahead log, drive a concurrent insert storm
# over HTTP while recording every acknowledged response, kill -9 the
# server mid-storm, then reboot it on the same log and assert
#   - the reopen replays the log (the server refuses to boot on a log
#     that contradicts its base, so booting is itself a consistency check),
#   - every acknowledged insert survived: liveObjects grew by at least
#     the acked count, and by at most acked + one in-flight per worker
#     (the indeterminate writes the durability contract allows),
#   - the replayed-record count and durable LSN agree with that delta,
# then run the hammer's mutation mix against the revived server in
# -strict mode, assert the group commit batched >1 record per fsync,
# and finally SIGTERM it and require a clean drain (exit 0).
set -u

BIN="${1:?usage: wal-smoke.sh <path-to-dsks-serve>}"
ADDR="127.0.0.1:18085"
WORK="$(mktemp -d)"
WORKERS=4
STORM_ACKS=120

SERVER=""
cleanup() {
    [ -n "$SERVER" ] && kill "$SERVER" 2>/dev/null
    rm -rf "$WORK"
}
trap cleanup EXIT

boot() {
    "$BIN" -addr "$ADDR" -preset SYN -scale 400 -index SIF -wal "$WORK/wal" &
    SERVER=$!
    for _ in $(seq 1 50); do
        curl -sf -m 2 "http://$ADDR/healthz" >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "wal-smoke: server at $ADDR never became healthy" >&2
    return 1
}

varz() { # varz <python-expression over the parsed /varz dict v>
    curl -sf -m 5 "http://$ADDR/varz" | python3 -c "
import json, sys
v = json.load(sys.stdin)
print($1)"
}

boot || exit 1
BASE=$(varz "v['liveObjects']") || exit 1
echo "wal-smoke: serving $BASE objects, storming with $WORKERS workers"

# One acked insert per line; a worker stops at the first failed or
# unacknowledged request (the kill -9 below). Responses are single-line
# JSON, and acks are counted as lines carrying the assigned "id", so a
# stray blank or error line never counts as one.
storm() {
    while :; do
        resp=$(curl -s -m 2 -X POST -H 'Content-Type: application/json' \
            -d "{\"edge\":$1,\"offset\":0.5,\"terms\":[1,2]}" \
            "http://$ADDR/v1/insert") || return 0
        case "$resp" in
        *'"id"'*) echo "$resp" >>"$WORK/acks.$1" ;;
        *) return 0 ;;
        esac
    done
}
PIDS=""
for w in $(seq 1 "$WORKERS"); do
    storm "$w" &
    PIDS="$PIDS $!"
done
for _ in $(seq 1 300); do
    [ "$(cat "$WORK"/acks.* 2>/dev/null | grep -c '"id"')" -ge "$STORM_ACKS" ] && break
    sleep 0.1
done

kill -9 "$SERVER"
wait "$SERVER" 2>/dev/null
for p in $PIDS; do wait "$p" 2>/dev/null; done
ACKED=$(cat "$WORK"/acks.* 2>/dev/null | grep -c '"id"')
if [ "$ACKED" -lt "$STORM_ACKS" ]; then
    echo "wal-smoke: only $ACKED inserts acked before the kill, want >= $STORM_ACKS" >&2
    exit 1
fi
echo "wal-smoke: kill -9 after $ACKED acked inserts; rebooting on the log"

boot || {
    echo "wal-smoke: server failed to reopen snapshotless base + log" >&2
    exit 1
}
LIVE=$(varz "v['liveObjects']") || exit 1
REPLAYED=$(varz "v['metrics']['Counters']['wal_replayed_records_total']") || exit 1
DURABLE=$(varz "v['durableLSN']") || exit 1
GREW=$((LIVE - BASE))
echo "wal-smoke: reopened with $LIVE objects (acked $ACKED, replayed $REPLAYED, durable LSN $DURABLE)"
if [ "$GREW" -lt "$ACKED" ]; then
    echo "wal-smoke: LOST ACKED WRITES: $GREW survived of $ACKED acknowledged" >&2
    exit 1
fi
if [ "$GREW" -gt $((ACKED + WORKERS)) ]; then
    echo "wal-smoke: $GREW inserts survived but only $ACKED acked + $WORKERS in flight" >&2
    exit 1
fi
if [ "$REPLAYED" -ne "$GREW" ] || [ "$DURABLE" -ne "$GREW" ]; then
    echo "wal-smoke: replayed=$REPLAYED durableLSN=$DURABLE disagree with object growth $GREW" >&2
    exit 1
fi

# Phase 2: the load driver's mutation mix against the revived server.
# -strict asserts zero 5xx and per-worker version monotonicity.
if ! "$BIN" -hammer -target "http://$ADDR" -preset SYN -scale 400 \
    -n 600 -c 8 -mix 'search:1,insert:3,remove:2' -strict; then
    echo "wal-smoke: mutation hammer failed against the revived server" >&2
    exit 1
fi
FSYNCS=$(varz "v['metrics']['Counters']['wal_fsyncs_total']") || exit 1
SYNCED=$(varz "v['metrics']['Counters']['wal_synced_records_total']") || exit 1
if [ "$FSYNCS" -le 0 ] || [ "$SYNCED" -le "$FSYNCS" ]; then
    echo "wal-smoke: no group commit: $SYNCED records over $FSYNCS fsyncs" >&2
    exit 1
fi
echo "wal-smoke: group commit batched $SYNCED records into $FSYNCS fsyncs"

kill -TERM "$SERVER"
wait "$SERVER"
CODE=$?
SERVER=""
if [ "$CODE" -ne 0 ]; then
    echo "wal-smoke: server exited $CODE after SIGTERM, want 0" >&2
    exit 1
fi
echo "wal-smoke: ok (acked writes survived kill -9, group commit batching, clean drain)"
