#!/usr/bin/env bash
# Crash-loop chaos harness: repeatedly SIGKILL a live cisgraphd mid-ingest,
# restart it with -resume, and verify after every restart that the served
# answers are identical to an offline replay of the durable prefix
# (checkpoint + segmented WAL), via loadgen -verify-durable.
#
# SIGKILL means no drain runs: torn WAL tails, stranded checkpoint temp
# files and half-finished retention are all fair game — every cycle must
# absorb whatever the previous kill left behind.
#
# Usage: scripts/chaos_loop.sh [cycles] [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
CYCLES="${1:-5}"
WORK="${2:-}"
KEEP_WORK="$WORK" # a work directory the caller named is never removed
[[ -n "$WORK" ]] || WORK="$(mktemp -d)"
mkdir -p "$WORK"
ADDR="127.0.0.1:${CHAOS_PORT:-8373}"
DAEMON_PID=""
LOADGEN_PID=""

cleanup() {
    local status=$?
    for pid in "$DAEMON_PID" "$LOADGEN_PID"; do
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

echo "== generate dataset + stream"
"$WORK/datagen" -gen rmat -scale 9 -out "$WORK/g.bel" -split -batches 64 -seed 7

# Small segments and frequent checkpoints so every cycle exercises segment
# rolls, retention, and recovery across both artefacts.
start_daemon() {
    "$WORK/cisgraphd" -addr "$ADDR" -file "$WORK/g.bel.initial" \
        -wal "$WORK/srv.wal" -wal-segment-bytes 4096 \
        -checkpoint "$WORK/srv.ckpt" -checkpoint-every 4 \
        "$@" \
        >>"$WORK/daemon.log" 2>&1 &
    DAEMON_PID=$!
}

verify_durable() {
    "$WORK/loadgen" -addr "http://$ADDR" -verify-durable \
        -wal "$WORK/srv.wal" -checkpoint "$WORK/srv.ckpt" \
        -initial "$WORK/g.bel.initial"
}

CHUNK=200

echo "== cycle 0: fresh daemon, register queries, first ingest burst"
start_daemon -queries "3:99,0:7,12:45,8:90"
"$WORK/loadgen" -addr "http://$ADDR" -trace "$WORK/g.bel.batches" \
    -initial "$WORK/g.bel.initial" -limit "$CHUNK" -post-size 32 -readers 0

for ((cycle = 1; cycle <= CYCLES; cycle++)); do
    echo "== cycle $cycle: SIGKILL mid-ingest"
    # Background poster: paced so the kill reliably lands mid-replay. It
    # dies with a connection error when the daemon does — expected.
    "$WORK/loadgen" -addr "http://$ADDR" -trace "$WORK/g.bel.batches" \
        -initial "$WORK/g.bel.initial" -offset "$CHUNK" -post-size 32 \
        -rate 4000 -readers 0 >/dev/null 2>&1 &
    LOADGEN_PID=$!
    sleep 0.15
    kill -9 "$DAEMON_PID"
    wait "$DAEMON_PID" 2>/dev/null || true
    DAEMON_PID=""
    wait "$LOADGEN_PID" 2>/dev/null || true
    LOADGEN_PID=""

    echo "   restart with -resume, verify served answers == durable replay"
    start_daemon -resume
    verify_durable
done

echo "== final: SIGTERM drain and last durable check"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
DAEMON_PID=""
start_daemon -resume
verify_durable
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
DAEMON_PID=""

SEGMENTS=$(ls "$WORK/srv.wal" | wc -l)
echo "== OK: $CYCLES SIGKILL cycles survived, answers identical to durable replay each time ($SEGMENTS WAL segments retained)"
