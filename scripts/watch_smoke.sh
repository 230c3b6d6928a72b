#!/usr/bin/env bash
# Watch smoke test: the /v1/watch answer-subscription subsystem end to end —
# generate a small dataset, serve it with cisgraphd, and drive the stream
# with loadgen while 16 SSE subscribers fold the pushed deltas into private
# views that must converge onto the polled /v1/answers (and the whole stream
# must verify against an offline engine). Then exercise the raw wire: an SSE
# subscription must open with an init event, a stale SSE resume (?from=0)
# must open with an init event that demands a resync, the watch metric families must be exported, and a SIGTERM
# with a live subscriber attached must drain promptly (the shutdown hook ends
# watch streams; they must not pin the HTTP server to its deadline) while the
# subscriber receives a clean bye event — on a stream that has by then been
# open longer than the daemon's HTTP WriteTimeout, which must not apply to it.
#
# Usage: scripts/watch_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
WORK="${1:-}"
KEEP_WORK="$WORK" # a work directory the caller named is never removed
[[ -n "$WORK" ]] || WORK="$(mktemp -d)"
mkdir -p "$WORK"
ADDR="127.0.0.1:${SMOKE_PORT:-8372}"
DAEMON_PID=""
CURL_PID=""

cleanup() {
    local status=$?
    for pid in "$CURL_PID" "$DAEMON_PID"; do
        if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
            kill -9 "$pid" 2>/dev/null || true
        fi
    done
    # A passing run removes the directory it made; a failing one keeps it
    # for inspection.
    if [[ $status -eq 0 && -z "$KEEP_WORK" ]]; then
        rm -rf "$WORK"
    else
        echo "work directory kept: $WORK" >&2
    fi
}
trap cleanup EXIT

echo "== build"
go build -o "$WORK/datagen" ./cmd/datagen
go build -o "$WORK/cisgraphd" ./cmd/cisgraphd
go build -o "$WORK/loadgen" ./cmd/loadgen

echo "== generate dataset + stream (~1.1k updates across 64 batches)"
"$WORK/datagen" -gen rmat -scale 9 -out "$WORK/g.bel" -split -batches 64 -seed 7

echo "== start cisgraphd (-request-timeout 1s => HTTP WriteTimeout 6s)"
"$WORK/cisgraphd" -addr "$ADDR" -file "$WORK/g.bel.initial" \
    -request-timeout 1s &
DAEMON_PID=$!

echo "== replay with 16 SSE subscribers riding along"
"$WORK/loadgen" -addr "http://$ADDR" \
    -trace "$WORK/g.bel.batches" -initial "$WORK/g.bel.initial" \
    -queries 16 -watch 16 -post-size 48 -verify -json "$WORK/loadgen.json"

grep -q '"watch_checked"' "$WORK/loadgen.json" \
    || { echo "FAIL: loadgen report carries no watch cross-check"; cat "$WORK/loadgen.json"; exit 1; }

echo "== raw SSE handshake: init event with the current position"
curl -fsS -N --max-time 2 "http://$ADDR/v1/watch" >"$WORK/sse_init.txt" || true
grep -q '^event: init' "$WORK/sse_init.txt" \
    || { echo "FAIL: no init event on /v1/watch"; cat "$WORK/sse_init.txt"; exit 1; }

echo "== stale SSE resume must be told to resync"
curl -fsS -N --max-time 2 "http://$ADDR/v1/watch?from=0" >"$WORK/sse_stale.txt" || true
grep -A1 '^event: init' "$WORK/sse_stale.txt" | grep -q '"resync":true' \
    || { echo "FAIL: ?from=0 did not open with a resync"; cat "$WORK/sse_stale.txt"; exit 1; }

echo "== watch metric families exported"
METRICS=$(curl -fsS "http://$ADDR/metrics")
for fam in cisgraph_watch_subscribers cisgraph_watch_deltas cisgraph_watch_drops cisgraph_watch_resyncs; do
    grep -q "^$fam" <<<"$METRICS" \
        || { echo "FAIL: $fam missing from /metrics"; exit 1; }
done

echo "== SIGTERM with a subscriber older than the WriteTimeout: drain must not hang, stream must say bye"
curl -fsS -N --max-time 30 "http://$ADDR/v1/watch" >"$WORK/sse_drain.txt" &
CURL_PID=$!
sleep 7 # outlive the 6s WriteTimeout: the bye below is written after it
kill -TERM "$DAEMON_PID"
DEADLINE=$((SECONDS + 15))
while kill -0 "$DAEMON_PID" 2>/dev/null; do
    if ((SECONDS >= DEADLINE)); then
        echo "FAIL: daemon still running ${DEADLINE}s after SIGTERM (watch stream pinned the drain?)"
        exit 1
    fi
    sleep 0.2
done
wait "$DAEMON_PID" || true
DAEMON_PID=""
wait "$CURL_PID" || true
CURL_PID=""
grep -q '^event: bye' "$WORK/sse_drain.txt" \
    || { echo "FAIL: drained stream ended without a bye event"; cat "$WORK/sse_drain.txt"; exit 1; }

echo "== OK: watch deltas match polled answers, resync/metrics live, drain clean"
echo "   report: $WORK/loadgen.json"
