#!/usr/bin/env bash
# Serve smoke test (run by `make serve-smoke` and the CI serve-smoke job):
# boot dsks-serve deliberately under-provisioned so the hammer provokes
# load shedding, then assert
#   - zero 5xx / transport errors and a warm result cache (-strict),
#   - 429s observed, every one carrying Retry-After (-expect-429),
#   - SIGTERM drains cleanly with exit code 0,
#   - so does a SIGTERM sent the moment /healthz first answers.
set -u

BIN="${1:?usage: serve-smoke.sh <path-to-dsks-serve>}"
ADDR="127.0.0.1:18080"

"$BIN" -addr "$ADDR" -preset SYN -scale 2000 -index SIF \
    -max-inflight 2 -queue-depth 4 -iolat 200us -cache-size 1024 &
SERVER=$!
trap 'kill "$SERVER" 2>/dev/null' EXIT

if ! "$BIN" -hammer -target "http://$ADDR" -preset SYN -scale 2000 \
    -n 600 -c 24 -distinct 24 -strict -expect-429; then
    echo "serve-smoke: hammer assertions failed" >&2
    exit 1
fi

kill -TERM "$SERVER"
wait "$SERVER"
CODE=$?
trap - EXIT
if [ "$CODE" -ne 0 ]; then
    echo "serve-smoke: server exited $CODE after SIGTERM, want 0" >&2
    exit 1
fi
# A second boot, signalled as early as a client can tell it is up: the
# signal handler must already be installed when the listener binds.
"$BIN" -addr "$ADDR" -preset SYN -scale 2000 -index SIF &
SERVER=$!
trap 'kill "$SERVER" 2>/dev/null' EXIT
until curl -sf -m 2 -o /dev/null "http://$ADDR/healthz"; do
    if ! kill -0 "$SERVER" 2>/dev/null; then
        echo "serve-smoke: second boot died before turning healthy" >&2
        exit 1
    fi
done
kill -TERM "$SERVER"
wait "$SERVER"
CODE=$?
trap - EXIT
if [ "$CODE" -ne 0 ]; then
    echo "serve-smoke: server exited $CODE on a SIGTERM at first /healthz, want 0" >&2
    exit 1
fi
echo "serve-smoke: ok (shed under load, warm cache, clean drain, early SIGTERM)"
