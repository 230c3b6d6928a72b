GO ?= go

.PHONY: build test race vet staticcheck govulncheck bench bench-smoke bench-compare serve-smoke fastpath-smoke watch-smoke chaos repl-smoke chaos-partition chaos-failover experiments

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

## staticcheck: deeper static analysis than vet. Needs the staticcheck
## binary on PATH (CI installs it with `go install
## honnef.co/go/tools/cmd/staticcheck@latest`).
staticcheck:
	staticcheck ./...

## govulncheck: known-vulnerability scan over the module's call graph.
## Needs the govulncheck binary on PATH (CI installs it with `go install
## golang.org/x/vuln/cmd/govulncheck@latest`); skipped with a notice when
## it is absent so offline runs stay green.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

## bench: full benchmark-regression suite; writes BENCH_<date>.json.
bench:
	$(GO) run ./cmd/bench

## bench-smoke: CI smoke mode — micro suite only, reduced benchtime,
## fixed output name for artifact upload.
bench-smoke:
	$(GO) run ./cmd/bench -quick -benchtime 10ms -out bench-smoke.json

## bench-compare: run a fresh quick suite and diff it against the newest
## committed BENCH_*.json baseline. Reduced benchtime makes absolute deltas
## indicative only — use `make bench` + benchcmp for a real comparison.
bench-compare:
	$(GO) run ./cmd/bench -quick -benchtime 10ms -out bench-new.json
	$(GO) run ./cmd/benchcmp "$$(ls BENCH_*.json | sort | tail -n 1)" bench-new.json

## serve-smoke: end-to-end serving check — cisgraphd + loadgen over a small
## generated stream, with a SIGTERM drain and checkpoint/WAL resume in the
## middle, verified against an offline engine.
serve-smoke:
	bash scripts/serve_smoke.sh

## fastpath-smoke: the serve-smoke scenario over the CGBIN/2 binary ingest
## protocol — per-update fast path, group-committed WAL, SIGTERM drain and
## checkpoint/WAL resume, verified against an offline engine.
fastpath-smoke:
	bash scripts/fastpath_smoke.sh

## watch-smoke: /v1/watch subscription check — loadgen drives a stream with
## 16 SSE subscribers whose delta-built views must converge onto the polled
## answers, then raw-wire checks (init/resync/metrics) and a SIGTERM drain
## with a live subscriber that must end cleanly with a bye event.
watch-smoke:
	bash scripts/watch_smoke.sh

## chaos: crash-loop chaos harness — SIGKILL a live cisgraphd mid-ingest
## five times, resume from checkpoint + segmented WAL after each kill, and
## verify the served answers equal an offline replay of the durable prefix
## (loadgen -verify-durable). CHAOS_CYCLES overrides the kill count.
chaos:
	bash scripts/chaos_loop.sh $${CHAOS_CYCLES:-5}

## repl-smoke: replication smoke — a leader plus two WAL-shipping read
## replicas, loadgen cross-checking every follower answer against the
## leader, a SIGKILL failover with staleness-bounded reads, and a -resume
## reconvergence.
repl-smoke:
	bash scripts/repl_smoke.sh

## chaos-partition: partition/failover chaos harness — leader + direct
## follower + proxied follower, cycling SIGKILL/-resume, SIGSTOP/SIGCONT
## and link drops (replproxy) mid-ingest; after every heal both followers
## must converge to answers identical to the leader, and the leader's
## answers to an offline durable replay. CHAOS_CYCLES overrides the count.
chaos-partition:
	bash scripts/chaos_partition.sh $${CHAOS_CYCLES:-5}

## chaos-failover: leader-failover chaos harness — 3-node cluster with a
## live CGBIN/2 exactly-once ingest session, SIGKILL of the leader,
## explicit promotion, epoch-fence assertions (/healthz, /metrics,
## X-CISGraph-Epoch), 421 write handoff, deposed-leader demotion on
## rejoin, and a byte-identical answers cross-check on all 3 nodes.
chaos-failover:
	bash scripts/chaos_failover.sh

experiments:
	$(GO) run ./cmd/experiments
