#!/usr/bin/env bash
# Serving-layer smoke test: generate a small dataset, stream it through a
# live cisgraphd in two halves with a SIGTERM drain + checkpoint/WAL resume
# in between, and verify the served answers are identical to an offline
# engine over the same stream (loadgen -verify).
#
# Usage: scripts/serve_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
WORK="${1:-}"
KEEP_WORK="$WORK" # a work directory the caller named is never removed
[[ -n "$WORK" ]] || WORK="$(mktemp -d)"
mkdir -p "$WORK"
ADDR="127.0.0.1:${SMOKE_PORT:-8372}"
DAEMON_PID=""

cleanup() {
    local status=$?
    if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill -9 "$DAEMON_PID" 2>/dev/null || true
    fi
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

start_daemon() {
    "$WORK/cisgraphd" -addr "$ADDR" -file "$WORK/g.bel.initial" \
        -wal "$WORK/srv.wal" -checkpoint "$WORK/srv.ckpt" \
        "$@" &
    DAEMON_PID=$!
}

echo "== phase 1: first 600 updates against a fresh daemon"
start_daemon
"$WORK/loadgen" -addr "http://$ADDR" -trace "$WORK/g.bel.batches" \
    -initial "$WORK/g.bel.initial" -queries 4 -limit 600 -post-size 48

echo "== SIGTERM drain"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
DAEMON_PID=""

echo "== phase 2: resume from checkpoint + WAL, stream the rest, verify"
start_daemon -resume
"$WORK/loadgen" -addr "http://$ADDR" -trace "$WORK/g.bel.batches" \
    -initial "$WORK/g.bel.initial" -offset 600 -post-size 48 \
    -verify -json "$WORK/loadgen.json"

kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
DAEMON_PID=""

echo "== OK: served answers match the offline engine across drain + restart"
# A passing run's own work directory is removed on exit; name the report
# only when the directory stays.
if [[ -n "$KEEP_WORK" ]]; then
    echo "   report: $WORK/loadgen.json"
fi
