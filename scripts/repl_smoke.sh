#!/usr/bin/env bash
# Replication smoke test: one leader, two WAL-shipping read replicas.
# Streams a trace through the leader while loadgen fans reads across the
# replicas and cross-checks every follower answer against the leader, then
# SIGKILLs the leader and asserts the followers keep serving reads — with
# staleness surfaced in headers and /healthz — until the leader resumes and
# they converge again.
#
# Usage: scripts/repl_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
WORK="${1:-}"
KEEP_WORK="$WORK" # a work directory the caller named is never removed
[[ -n "$WORK" ]] || WORK="$(mktemp -d)"
mkdir -p "$WORK"
LEADER="127.0.0.1:${REPL_PORT:-8374}"
FOL_A="127.0.0.1:$((${REPL_PORT:-8374} + 1))"
FOL_B="127.0.0.1:$((${REPL_PORT:-8374} + 2))"
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

wait_caught_up() { # follower addr
    for _ in $(seq 1 300); do
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

echo "== generate dataset + stream"
"$WORK/datagen" -gen rmat -scale 9 -out "$WORK/g.bel" -split -batches 64 -seed 7

start_leader() {
    "$WORK/cisgraphd" -addr "$LEADER" -file "$WORK/g.bel.initial" \
        -wal "$WORK/srv.wal" -checkpoint "$WORK/srv.ckpt" -checkpoint-every 4 \
        -repl-longpoll 500ms "$@" \
        >>"$WORK/leader.log" 2>&1 &
    LEADER_PID=$!
    PIDS+=("$LEADER_PID")
}

echo "== start leader + 2 followers"
start_leader
wait_healthy "$LEADER"
for fol in "$FOL_A" "$FOL_B"; do
    "$WORK/cisgraphd" -addr "$fol" -file "$WORK/g.bel.initial" \
        -follow "http://$LEADER" -repl-longpoll 500ms -max-staleness 2s \
        >>"$WORK/followers.log" 2>&1 &
    PIDS+=("$!")
done
wait_healthy "$FOL_A"
wait_healthy "$FOL_B"

echo "== epoch fencing surfaced: /healthz field + replication header"
curl -fsS "http://$LEADER/healthz" | grep -q '"epoch":' \
    || { echo "FAIL: /healthz does not surface the leadership epoch"; curl -fsS "http://$LEADER/healthz"; exit 1; }
curl -fsSi "http://$LEADER/v1/repl/segments" | grep -qi '^X-CISGraph-Epoch:' \
    || { echo "FAIL: replication response missing X-CISGraph-Epoch"; exit 1; }

echo "== phase 1: stream against the leader, reads fanned across replicas,"
echo "   then cross-check every follower answer against the leader"
"$WORK/loadgen" -addr "http://$LEADER" -replicas "http://$FOL_A,http://$FOL_B" \
    -trace "$WORK/g.bel.batches" -initial "$WORK/g.bel.initial" \
    -queries 4 -limit 600 -post-size 48

echo "== failover: SIGKILL the leader, followers must keep serving reads"
kill -9 "$LEADER_PID"
wait "$LEADER_PID" 2>/dev/null || true
sleep 1
HDRS=$(curl -fsS -D - -o /dev/null "http://$FOL_A/v1/answers")
echo "$HDRS" | grep -qi '^X-CISGraph-Role: follower' \
    || { echo "FAIL: follower answer without role header"; echo "$HDRS"; exit 1; }
echo "$HDRS" | grep -qi '^X-CISGraph-Staleness:' \
    || { echo "FAIL: follower answer without staleness header"; echo "$HDRS"; exit 1; }
echo "   followers still answer, staleness header present"

echo "== staleness bound: wait out -max-staleness, expect degraded healthz"
sleep 2.5
curl -fsS "http://$FOL_B/healthz" | grep -q '"status":"degraded"' \
    || { echo "FAIL: follower not degraded after exceeding -max-staleness"; curl -fsS "http://$FOL_B/healthz"; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' -H 'X-CISGraph-Max-Staleness: 100ms' "http://$FOL_B/v1/answers")
[[ "$CODE" == 503 ]] || { echo "FAIL: bounded-staleness read returned $CODE, want 503"; exit 1; }
echo "   degraded surfaced, bounded-staleness read refused with 503"

echo "== heal: restart leader with -resume, stream the rest, re-cross-check"
start_leader -resume
wait_healthy "$LEADER"
wait_caught_up "$FOL_A"
wait_caught_up "$FOL_B"
"$WORK/loadgen" -addr "http://$LEADER" -replicas "http://$FOL_A,http://$FOL_B" \
    -trace "$WORK/g.bel.batches" -initial "$WORK/g.bel.initial" \
    -offset 600 -post-size 48 -json "$WORK/loadgen.json"

echo "== writes stay misdirected on followers"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
    -d '{"updates":[{"op":"add","from":0,"to":1,"w":1}]}' "http://$FOL_A/v1/updates")
[[ "$CODE" == 421 ]] || { echo "FAIL: follower write returned $CODE, want 421"; exit 1; }

echo "== OK: replicas converged through a leader crash; every follower answer matched the leader"
# A passing run's own work directory is removed on exit; name the report
# only when the directory stays.
if [[ -n "$KEEP_WORK" ]]; then
    echo "   report: $WORK/loadgen.json"
fi
