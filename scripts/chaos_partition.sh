#!/usr/bin/env bash
# Partition/failover chaos harness: a leader, a follower on a direct link,
# and a follower connected through replproxy (a fault-injecting TCP relay).
# Cycles rotate three failure modes mid-ingest — SIGKILL the leader and
# restart it with -resume, SIGSTOP/SIGCONT it, and drop the proxied link via
# SIGUSR1/SIGUSR2. After every heal, both followers must drain their
# replication lag to zero and serve answers identical to the leader
# (loadgen -replicas cross-check); at the end the leader's own answers are
# verified against an offline replay of its durable prefix
# (loadgen -verify-durable).
#
# Usage: scripts/chaos_partition.sh [cycles] [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
CYCLES="${1:-5}"
WORK="${2:-}"
KEEP_WORK="$WORK" # a work directory the caller named is never removed
[[ -n "$WORK" ]] || WORK="$(mktemp -d)"
mkdir -p "$WORK"
BASE_PORT="${CHAOS_REPL_PORT:-8378}"
LEADER="127.0.0.1:$BASE_PORT"
FOL_A="127.0.0.1:$((BASE_PORT + 1))"
FOL_B="127.0.0.1:$((BASE_PORT + 2))"
PROXY="127.0.0.1:$((BASE_PORT + 3))"
LEADER_PID=""
PROXY_PID=""
PIDS=()

cleanup() {
    local status=$?
    for pid in "$LEADER_PID" "$PROXY_PID" "${PIDS[@]:-}"; do
        if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
            kill -CONT "$pid" 2>/dev/null || true
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

wait_healthy() { # addr
    for _ in $(seq 1 150); do
        curl -fsS "http://$1/healthz" >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "FAIL: $1 never became healthy" >&2
    return 1
}

wait_caught_up() { # follower addr
    for _ in $(seq 1 600); do
        if curl -fsS "http://$1/healthz" 2>/dev/null | grep -q '"lag_batches":0'; then
            return 0
        fi
        sleep 0.1
    done
    echo "FAIL: follower $1 never drained its replication lag" >&2
    curl -fsS "http://$1/healthz" >&2 || true
    return 1
}

echo "== build"
go build -o "$WORK/datagen" ./cmd/datagen
go build -o "$WORK/cisgraphd" ./cmd/cisgraphd
go build -o "$WORK/loadgen" ./cmd/loadgen
go build -o "$WORK/replproxy" ./cmd/replproxy

echo "== generate dataset + stream"
"$WORK/datagen" -gen rmat -scale 9 -out "$WORK/g.bel" -split -batches 64 -seed 7

start_leader() {
    "$WORK/cisgraphd" -addr "$LEADER" -file "$WORK/g.bel.initial" \
        -wal "$WORK/srv.wal" -wal-segment-bytes 4096 \
        -checkpoint "$WORK/srv.ckpt" -checkpoint-every 4 \
        -repl-longpoll 500ms "$@" \
        >>"$WORK/leader.log" 2>&1 &
    LEADER_PID=$!
}

echo "== start leader, fault proxy, and 2 followers (B rides the proxy)"
start_leader
wait_healthy "$LEADER"
"$WORK/replproxy" -listen "$PROXY" -target "$LEADER" >>"$WORK/proxy.log" 2>&1 &
PROXY_PID=$!
for spec in "$FOL_A http://$LEADER" "$FOL_B http://$PROXY"; do
    set -- $spec
    "$WORK/cisgraphd" -addr "$1" -file "$WORK/g.bel.initial" \
        -follow "$2" -repl-longpoll 500ms -repl-seed 9 \
        >>"$WORK/followers.log" 2>&1 &
    PIDS+=("$!")
done
wait_healthy "$FOL_A"
wait_healthy "$FOL_B"

CHUNK=150
ingest_and_crosscheck() { # offset [extra loadgen flags...]
    local off=$1
    shift
    "$WORK/loadgen" -addr "http://$LEADER" -replicas "http://$FOL_A,http://$FOL_B" \
        -trace "$WORK/g.bel.batches" -initial "$WORK/g.bel.initial" \
        -offset "$off" -limit "$CHUNK" -post-size 32 -readers 1 "$@"
}

# Registration is not WAL-shipped: loadgen registers the same pairs on the
# leader and on every replica, in the same order, so ids line up everywhere.
echo "== cycle 0: register queries everywhere, baseline ingest + cross-check"
ingest_and_crosscheck 0 -queries 4

for ((cycle = 1; cycle <= CYCLES; cycle++)); do
    case $((cycle % 3)) in
    1) MODE="SIGKILL leader + resume" ;;
    2) MODE="SIGSTOP/SIGCONT leader" ;;
    0) MODE="drop proxied link" ;;
    esac
    echo "== cycle $cycle: $MODE mid-ingest"

    # Background poster keeps updates in flight while the fault lands. It
    # may die with a connection error when the leader does — expected.
    "$WORK/loadgen" -addr "http://$LEADER" -trace "$WORK/g.bel.batches" \
        -initial "$WORK/g.bel.initial" -offset $((CHUNK * cycle)) -limit "$CHUNK" \
        -post-size 32 -rate 4000 -readers 0 >/dev/null 2>&1 &
    POSTER=$!
    sleep 0.15

    case $((cycle % 3)) in
    1)
        kill -9 "$LEADER_PID"
        wait "$LEADER_PID" 2>/dev/null || true
        LEADER_PID=""
        sleep 0.3
        start_leader -resume
        wait_healthy "$LEADER"
        ;;
    2)
        kill -STOP "$LEADER_PID"
        sleep 0.5
        kill -CONT "$LEADER_PID"
        ;;
    0)
        kill -USR1 "$PROXY_PID" # partition follower B
        sleep 0.5
        kill -USR2 "$PROXY_PID" # heal
        ;;
    esac
    wait "$POSTER" 2>/dev/null || true

    echo "   heal: converge both followers, cross-check against the leader"
    wait_caught_up "$FOL_A"
    wait_caught_up "$FOL_B"
    ingest_and_crosscheck $((CHUNK * (cycle + 1)))
done

echo "== final: leader answers == offline replay of its durable prefix"
"$WORK/loadgen" -addr "http://$LEADER" -verify-durable \
    -wal "$WORK/srv.wal" -checkpoint "$WORK/srv.ckpt" \
    -initial "$WORK/g.bel.initial"

echo "== OK: $CYCLES partition/failover cycles survived; followers matched the leader after every heal"
