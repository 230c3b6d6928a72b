package server

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/replication"
	"cisgraph/internal/resilience"
)

// Partition/failover chaos harness (DESIGN.md §13.4): a real cisgraphd
// leader with two follower processes — one on a direct link, one behind a
// fault-injecting TCP proxy. Five cycles rotate the failure mode mid-ingest:
// SIGKILL the leader and restart it with -resume, SIGSTOP/SIGCONT it, and
// drop the proxied link. After every heal, both followers must converge to
// answers identical to an offline replay of the leader's durable prefix
// (checkpoint + WAL) AND byte-identical to the leader's own /v1/answers
// body, with cisgraph_repl_lag_batches back at 0.
//
// Everything is seeded: the ingest stream, the follower backoff jitter, and
// the fault schedule. A failure reproduces.

const replChaosCycles = 5

type replChaosHealthz struct {
	Status  string `json:"status"`
	Batches uint64 `json:"batches"`
	Role    string `json:"role"`
	Repl    *struct {
		LagBatches uint64  `json:"lag_batches"`
		Staleness  float64 `json:"staleness_s"`
		Connected  bool    `json:"connected"`
	} `json:"repl"`
}

func getReplHealthz(t *testing.T, client *http.Client, base string) replChaosHealthz {
	t.Helper()
	var hz replChaosHealthz
	getJSONChaos(t, client, base+"/healthz", &hz)
	return hz
}

func TestChaosReplicationPartitionFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("replication chaos skipped in -short")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	ckpt := filepath.Join(dir, "ckpt")
	leaderAddr := freeAddr(t)
	leaderBase := "http://" + leaderAddr
	client := &http.Client{Timeout: 5 * time.Second}
	a, err := algo.ByName("PPSP")
	if err != nil {
		t.Fatal(err)
	}
	initTopo := func() *graph.Dynamic {
		return graph.FromEdgeList(graph.StandInOR.MustBuild(8, 7))
	}
	n := initTopo().NumVertices()

	leaderArgs := []string{
		"-standin", "OR", "-scale", "8", "-seed", "7", "-algo", "PPSP",
		"-addr", leaderAddr,
		"-wal", walDir, "-wal-segment-bytes", "4096",
		"-checkpoint", ckpt, "-checkpoint-every", "4",
		"-repl-longpoll", "300ms",
	}
	leader, leaderLog := startDaemon(t, bin, append(leaderArgs, "-queries", chaosQueryPairs))
	waitDaemonHealthy(t, client, leaderBase, leader, leaderLog)

	// Ingest past the first checkpoint so followers bootstrap from it and
	// inherit the leader's query registrations.
	rng := rand.New(rand.NewSource(4242))
	ingestUntil(t, client, leaderBase, rng, n, 6, leaderLog)

	// Follower A: direct link. Follower B: behind the drop/heal proxy.
	proxy, err := replication.NewProxy(leaderAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	folBases := make([]string, 2)
	folLogs := make([]*bytes.Buffer, 2)
	for i, up := range []string{leaderBase, "http://" + proxy.Addr()} {
		addr := freeAddr(t)
		folBases[i] = "http://" + addr
		cmd, logBuf := startDaemon(t, bin, []string{
			"-standin", "OR", "-scale", "8", "-seed", "7", "-algo", "PPSP",
			"-addr", addr, "-follow", up, "-repl-longpoll", "300ms",
			"-repl-seed", "9", "-max-staleness", "30s",
		})
		folLogs[i] = logBuf
		waitDaemonHealthy(t, client, folBases[i], cmd, logBuf)
	}

	for cycle := 0; cycle < replChaosCycles; cycle++ {
		// Keep POSTs in the air so every fault lands inside live ingestion.
		stopFlood := make(chan struct{})
		floodDone := make(chan struct{})
		go func() {
			defer close(floodDone)
			for {
				select {
				case <-stopFlood:
					return
				default:
					postChaosUpdates(client, leaderBase, rng, n)
				}
			}
		}()

		switch cycle % 3 {
		case 0: // leader dies without drain; restarts from the durable prefix
			time.Sleep(50 * time.Millisecond)
			if err := leader.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			leader.Wait()
			time.Sleep(200 * time.Millisecond) // followers see the dead leader
			leader, leaderLog = startDaemon(t, bin, append(leaderArgs, "-resume"))
			waitDaemonHealthy(t, client, leaderBase, leader, leaderLog)
		case 1: // leader freezes mid-stream, then resumes
			if err := leader.Process.Signal(syscall.SIGSTOP); err != nil {
				t.Fatal(err)
			}
			time.Sleep(400 * time.Millisecond)
			if err := leader.Process.Signal(syscall.SIGCONT); err != nil {
				t.Fatal(err)
			}
		case 2: // the proxied follower's link drops, the direct one keeps up
			proxy.Drop()
			time.Sleep(400 * time.Millisecond)
			proxy.Heal()
		}

		close(stopFlood)
		<-floodDone

		// Heal phase: push a little more traffic, let the leader go idle,
		// then require both followers to drain their lag to zero.
		ingestUntil(t, client, leaderBase, rng, n, getHealthz(t, client, leaderBase).Batches+4, leaderLog)
		leaderBatches := waitLeaderIdle(t, client, leaderBase)
		for i, fb := range folBases {
			waitFollowerConverged(t, client, fb, leaderBatches, cycle, i, folLogs[i])
		}

		// Ground truth: offline replay of the leader's on-disk prefix. The
		// leader is idle, so checkpoint + WAL are stable under our feet.
		qs, want := replayDurableAnswers(t, a, walDir, ckpt, leaderBatches, cycle)
		leaderBody := answersBody(t, client, leaderBase)
		for i, fb := range folBases {
			body := answersBody(t, client, fb)
			if !bytes.Equal(body, leaderBody) {
				t.Fatalf("cycle %d: follower %d answers body differs from leader\nleader: %s\nfollower: %s",
					cycle, i, leaderBody, body)
			}
			checkServedAnswers(t, client, fb, qs, want, cycle, i)
			assertFollowerCaughtUpMetrics(t, client, fb, cycle, i)
		}
		t.Logf("cycle %d (%s): %d batches durable, both followers identical to offline replay",
			cycle, [...]string{"SIGKILL+resume", "SIGSTOP/CONT", "link drop"}[cycle%3], leaderBatches)
	}

	// Read-only discipline survived the whole run: a write to a follower is
	// still misdirected to the leader.
	resp, err := client.Post(folBases[0]+"/v1/updates", "application/json",
		strings.NewReader(`{"updates":[{"op":"add","from":0,"to":1,"w":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower write after chaos: status %d, want 421", resp.StatusCode)
	}
	if resp.Header.Get("Location") == "" {
		t.Error("421 without a Location pointing at the leader")
	}
}

// ingestUntil posts seeded updates until the leader has applied `target`
// batches.
func ingestUntil(t *testing.T, client *http.Client, base string, rng *rand.Rand, n int, target uint64, logBuf *bytes.Buffer) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for getHealthz(t, client, base).Batches < target {
		if time.Now().After(deadline) {
			t.Fatalf("ingest stalled before batch %d\ndaemon log:\n%s", target, logBuf.String())
		}
		postChaosUpdates(client, base, rng, n)
	}
}

// waitLeaderIdle waits for the leader's applied count to stop moving (two
// identical reads 100ms apart) and returns it; with no traffic in flight the
// durable artefacts are stable for offline replay.
func waitLeaderIdle(t *testing.T, client *http.Client, base string) uint64 {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	prev := getHealthz(t, client, base).Batches
	for {
		time.Sleep(100 * time.Millisecond)
		cur := getHealthz(t, client, base).Batches
		if cur == prev {
			return cur
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader never went idle (batches still moving at %d)", cur)
		}
		prev = cur
	}
}

func waitFollowerConverged(t *testing.T, client *http.Client, base string, leaderBatches uint64, cycle, idx int, logBuf *bytes.Buffer) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		hz := getReplHealthz(t, client, base)
		if hz.Role == "follower" && hz.Repl != nil && hz.Repl.LagBatches == 0 &&
			hz.Batches >= leaderBatches && hz.Repl.Connected {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cycle %d: follower %d stuck at batch %d (leader %d, repl %+v)\nfollower log:\n%s",
				cycle, idx, hz.Batches, leaderBatches, hz.Repl, logBuf.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// replayDurableAnswers rebuilds the leader's durable state offline
// (checkpoint topology + WAL suffix) and runs the checkpointed queries
// through an independent single-engine replay.
func replayDurableAnswers(t *testing.T, a algo.Algorithm, walDir, ckpt string, leaderBatches uint64, cycle int) ([]core.Query, []algo.Value) {
	t.Helper()
	through, _, payload, err := resilience.ReadCheckpointMeta(ckpt)
	if err != nil {
		t.Fatalf("cycle %d: checkpoint read: %v", cycle, err)
	}
	g, qs, err := DecodeCheckpointState(payload)
	if err != nil {
		t.Fatalf("cycle %d: checkpoint decode: %v", cycle, err)
	}
	recs, err := resilience.ReplaySegmented(walDir)
	if err != nil {
		t.Fatalf("cycle %d: WAL replay: %v", cycle, err)
	}
	durable := through
	for _, rec := range recs {
		if rec.Index < through {
			continue
		}
		if rec.Index != durable {
			t.Fatalf("cycle %d: WAL gap: record %d, expected %d", cycle, rec.Index, durable)
		}
		g.Apply(rec.Batch)
		durable++
	}
	if durable != leaderBatches {
		t.Fatalf("cycle %d: leader serves batch %d, durable prefix holds %d", cycle, leaderBatches, durable)
	}
	ref := core.NewMultiCISO()
	ref.Reset(g, a, qs)
	return qs, ref.Answers()
}

func checkServedAnswers(t *testing.T, client *http.Client, base string, qs []core.Query, want []algo.Value, cycle, idx int) {
	t.Helper()
	var served answersPayloadTest
	getJSONChaos(t, client, base+"/v1/answers", &served)
	if len(served.Answers) != len(qs) {
		t.Fatalf("cycle %d: follower %d serves %d answers, durable state has %d queries",
			cycle, idx, len(served.Answers), len(qs))
	}
	for i, ans := range served.Answers {
		if ans.S != qs[i].S || ans.D != qs[i].D {
			t.Fatalf("cycle %d: follower %d answer %d is Q(%d->%d), durable query is Q(%d->%d)",
				cycle, idx, i, ans.S, ans.D, qs[i].S, qs[i].D)
		}
		if float64(ans.Value) != want[i] {
			t.Errorf("cycle %d: follower %d Q(%d->%d): serves %v, durable replay gives %v",
				cycle, idx, ans.S, ans.D, float64(ans.Value), want[i])
		}
	}
}

// answersBody fetches /v1/answers raw and asserts the follower-facing
// replication headers ride along.
func answersBody(t *testing.T, client *http.Client, base string) []byte {
	t.Helper()
	resp, err := client.Get(base + "/v1/answers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/v1/answers: status %d", base, resp.StatusCode)
	}
	if role := resp.Header.Get(replication.HeaderRole); role == "follower" {
		if resp.Header.Get(replication.HeaderStaleness) == "" {
			t.Errorf("%s: follower answer without %s header", base, replication.HeaderStaleness)
		}
	}
	return body
}

func assertFollowerCaughtUpMetrics(t *testing.T, client *http.Client, base string, cycle, idx int) {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	m := buf.String()
	if !strings.Contains(m, "cisgraph_repl_lag_batches 0") {
		t.Errorf("cycle %d: follower %d metrics lack cisgraph_repl_lag_batches 0", cycle, idx)
	}
	if !strings.Contains(m, `cisgraph_role{role="follower"} 1`) {
		t.Errorf("cycle %d: follower %d metrics lack the follower role gauge", cycle, idx)
	}
}
