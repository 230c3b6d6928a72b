#!/usr/bin/env bash
# Failover chaos smoke: a three-node cluster (leader + two promotable
# followers) survives a SIGKILL of the leader with an exactly-once binary
# ingest session live on the wire. Asserts the whole §17 protocol from the
# outside: explicit /v1/admin/promote, epoch monotonicity in /healthz and
# /metrics and the X-CISGraph-Epoch replication header, loadgen's CGBIN/2
# session resuming onto the new leader without duplicates or loss, JSON
# writes following 421 Location handoffs, and the deposed leader rejoining
# as a fenced follower — with every node's /v1/answers byte-identical at
# the end.
#
# Usage: scripts/chaos_failover.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
WORK="${1:-}"
KEEP_WORK="$WORK" # a work directory the caller named is never removed
[[ -n "$WORK" ]] || WORK="$(mktemp -d)"
mkdir -p "$WORK"
PORT="${FAILOVER_PORT:-8394}"
N0="127.0.0.1:$PORT"
N1="127.0.0.1:$((PORT + 1))"
N2="127.0.0.1:$((PORT + 2))"
B0="127.0.0.1:$((PORT + 3))"
B1="127.0.0.1:$((PORT + 4))"
B2="127.0.0.1:$((PORT + 5))"
PEERS="http://$N0,http://$N1,http://$N2"
PIDS=()

cleanup() {
    local status=$?
    for pid in "${PIDS[@]:-}"; do
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

wait_healthy() { # addr
    for _ in $(seq 1 150); do
        curl -fsS "http://$1/healthz" >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "FAIL: $1 never became healthy" >&2
    return 1
}

healthz_num() { # addr field -> numeric value
    curl -fsS "http://$1/healthz" | grep -o "\"$2\":[0-9]*" | head -1 | cut -d: -f2
}

wait_role() { # addr role
    for _ in $(seq 1 200); do
        if curl -fsS "http://$1/healthz" 2>/dev/null | grep -q "\"role\":\"$2\""; then
            return 0
        fi
        sleep 0.1
    done
    echo "FAIL: $1 never reached role $2" >&2
    curl -fsS "http://$1/healthz" >&2 || true
    return 1
}

wait_converged() { # follower-addr leader-batches
    for _ in $(seq 1 300); do
        if [[ "$(healthz_num "$1" batches)" == "$2" ]]; then
            return 0
        fi
        sleep 0.1
    done
    echo "FAIL: $1 never converged to $2 batches" >&2
    curl -fsS "http://$1/healthz" >&2 || true
    return 1
}

echo "== build"
go build -o "$WORK/datagen" ./cmd/datagen
go build -o "$WORK/cisgraphd" ./cmd/cisgraphd
go build -o "$WORK/loadgen" ./cmd/loadgen

echo "== generate dataset + stream"
"$WORK/datagen" -gen rmat -scale 10 -out "$WORK/g.bel" -split -batches 64 -seed 7

start_node() { # idx extra-args...
    local i=$1 addr bin
    shift
    case "$i" in
        0) addr=$N0 bin=$B0 ;;
        1) addr=$N1 bin=$B1 ;;
        2) addr=$N2 bin=$B2 ;;
    esac
    "$WORK/cisgraphd" -addr "$addr" -binary-addr "$bin" -file "$WORK/g.bel.initial" \
        -wal "$WORK/wal$i" -checkpoint "$WORK/ckpt$i" -checkpoint-every 4 \
        -repl-longpoll 500ms \
        -peers "$PEERS" -advertise "http://$addr" \
        -promote-on-leader-loss -promote-after 1s \
        -sync-followers 1 -sync-ack-timeout 2s "$@" \
        >>"$WORK/node$i.log" 2>&1 &
    eval "PID$i=$!"
    PIDS+=("$!")
}

echo "== start leader + 2 promotable followers"
start_node 0
wait_healthy "$N0"
start_node 1 -follow "http://$N0"
start_node 2 -follow "http://$N0"
wait_healthy "$N1"
wait_healthy "$N2"

echo "== phase 1: register queries everywhere, stream a CGBIN/2 session,"
echo "   cross-check both followers against the leader"
"$WORK/loadgen" -addr "http://$N0" -replicas "http://$N1,http://$N2" \
    -proto binary -session 51966 -binary-addrs "$B0,$B1,$B2" -window 8 \
    -trace "$WORK/g.bel.batches" -initial "$WORK/g.bel.initial" \
    -queries 4 -limit 800 -post-size 32
E0=$(healthz_num "$N0" epoch)
echo "   leader at epoch $E0"

echo "== phase 2 in background, then SIGKILL the leader mid-stream"
"$WORK/loadgen" -addr "http://$N1" -proto binary -session 51966 \
    -binary-addrs "$B0,$B1,$B2" -window 8 -readers 0 \
    -trace "$WORK/g.bel.batches" -initial "$WORK/g.bel.initial" \
    -offset 800 -limit 1100 -rate 600 -post-size 32 \
    -json "$WORK/phase2.json" >"$WORK/phase2.out" 2>&1 &
LG_PID=$!
PIDS+=("$LG_PID")
sleep 0.6
kill -9 "$PID0"
wait "$PID0" 2>/dev/null || true

echo "== promote follower 1"
PROMOTE=$(curl -fsS -X POST "http://$N1/v1/admin/promote")
echo "   $PROMOTE"
echo "$PROMOTE" | grep -q '"promoted":true' \
    || { echo "FAIL: promote did not promote"; exit 1; }
wait_role "$N1" leader
E1=$(healthz_num "$N1" epoch)
[[ "$E1" -gt "$E0" ]] \
    || { echo "FAIL: epoch did not advance on promotion ($E0 -> $E1)"; exit 1; }
curl -fsS "http://$N1/metrics" | grep -q "^cisgraph_epoch $E1\$" \
    || { echo "FAIL: cisgraph_epoch gauge != $E1"; curl -fsS "http://$N1/metrics" | grep cisgraph_epoch; exit 1; }
curl -fsSi "http://$N1/v1/repl/segments" | grep -qi "^X-CISGraph-Epoch: $E1" \
    || { echo "FAIL: replication response missing X-CISGraph-Epoch: $E1"; exit 1; }
echo "   epoch $E0 -> $E1, fenced in /metrics and replication headers"

echo "== phase-2 session must finish exactly-once on the new leader"
if ! wait "$LG_PID"; then
    echo "FAIL: phase-2 loadgen failed"; cat "$WORK/phase2.out"; exit 1
fi
grep -q '"binary_reconnects"' "$WORK/phase2.json" \
    || { echo "FAIL: session finished without reconnecting (kill landed too late?)"; cat "$WORK/phase2.out"; exit 1; }
grep 'failover:' "$WORK/phase2.out" || true

echo "== phase 3: JSON writes at a follower must follow 421 Location handoffs"
for _ in $(seq 1 100); do  # wait until N2 has located the new leader
    curl -fsS "http://$N2/healthz" | grep -q "\"leader\":\"http://$N1\"" && break
    sleep 0.1
done
"$WORK/loadgen" -addr "http://$N2" -proto json \
    -trace "$WORK/g.bel.batches" -initial "$WORK/g.bel.initial" \
    -offset 1900 -post-size 32 -json "$WORK/phase3.json" | tee "$WORK/phase3.out"
grep -q '"redirects"' "$WORK/phase3.json" \
    || { echo "FAIL: no 421 redirect was followed"; exit 1; }

echo "== deposed leader rejoins and must demote to follower (epoch fence)"
start_node 0 -resume
wait_healthy "$N0"
wait_role "$N0" follower
echo "   node 0 back as follower"

echo "== converge + cross-check: every node serves byte-identical answers"
LEADER_BATCHES=$(healthz_num "$N1" batches)
wait_converged "$N0" "$LEADER_BATCHES"
wait_converged "$N2" "$LEADER_BATCHES"
curl -fsS "http://$N1/v1/answers" >"$WORK/ans1.json"
curl -fsS "http://$N0/v1/answers" >"$WORK/ans0.json"
curl -fsS "http://$N2/v1/answers" >"$WORK/ans2.json"
cmp -s "$WORK/ans1.json" "$WORK/ans0.json" \
    || { echo "FAIL: rejoined node 0 answers differ from the leader"; exit 1; }
cmp -s "$WORK/ans1.json" "$WORK/ans2.json" \
    || { echo "FAIL: follower 2 answers differ from the leader"; exit 1; }

echo "== OK: leader SIGKILLed mid-session; epoch $E0 -> $E1 fenced the deposed"
echo "   leader out, the CGBIN/2 session resumed exactly-once, JSON writes"
echo "   followed the 421 handoff, and all 3 nodes serve identical answers"
# A passing run's own work directory is removed on exit; name the report
# only when the directory stays.
if [[ -n "$KEEP_WORK" ]]; then
    echo "   reports: $WORK/phase2.json $WORK/phase3.json"
fi
