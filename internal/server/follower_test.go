package server

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/replication"
)

// leaderConfig is durable artefacts plus a tight replication long-poll, so
// follower tests converge in milliseconds.
func leaderConfig(t *testing.T) Config {
	t.Helper()
	dir := t.TempDir()
	cfg := Config{}
	cfg.WALPath = filepath.Join(dir, "srv.wal")
	cfg.CheckpointPath = filepath.Join(dir, "srv.ckpt")
	cfg.CheckpointEvery = 4
	cfg.ReplLongPoll = 100 * time.Millisecond
	return cfg
}

func followerConfig(leaderURL string) Config {
	cfg := Config{}
	cfg.FollowURL = leaderURL
	cfg.ReplLongPoll = 100 * time.Millisecond
	cfg.ReplBackoffBase = 5 * time.Millisecond
	cfg.ReplBackoffMax = 50 * time.Millisecond
	cfg.ReplSeed = 7
	return cfg
}

// waitFollowerAt blocks until the follower has applied `want` batches.
func waitFollowerAt(t *testing.T, fol *Server, want uint64) {
	t.Helper()
	waitFor(t, 10*time.Second, func() bool { return fol.Applied() >= want },
		"follower did not catch up to the leader")
}

// matchAnswers asserts two servers publish identical answers for identical
// query ids.
func matchAnswers(t *testing.T, leader, fol *Server) {
	t.Helper()
	ls, fs := leader.Pool().Answers(), fol.Pool().Answers()
	if len(ls.Values) != len(fs.Values) {
		t.Fatalf("leader has %d answers, follower %d", len(ls.Values), len(fs.Values))
	}
	for i := range ls.Values {
		if ls.Queries[i] != fs.Queries[i] {
			t.Fatalf("query %d: leader %v, follower %v", i, ls.Queries[i], fs.Queries[i])
		}
		if ls.Values[i] != fs.Values[i] {
			t.Fatalf("answer %d Q(%d->%d): leader %v, follower %v",
				i, ls.Queries[i].S, ls.Queries[i].D, ls.Values[i], fs.Values[i])
		}
	}
}

// End to end in-process: a follower bootstraps from the leader's checkpoint,
// tails its WAL, converges to identical answers, refuses writes with 421 +
// the leader's location, and stamps reads with role and staleness headers.
func TestFollowerConvergesAndServesReadOnly(t *testing.T) {
	w := testWorkload(t)
	a := testAlgo(t)
	leader, err := New(w.Initial(), a, leaderConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Drain()
	lsrv := httptest.NewServer(leader.Handler())
	defer lsrv.Close()
	client := lsrv.Client()

	for _, p := range w.QueryPairsConnected(6) {
		leader.Pool().Register(core.Query{S: p[0], D: p[1]})
	}
	// Enough batches to pass a checkpoint boundary, so the follower
	// bootstrap exercises the checkpoint path (not just init + WAL tail).
	// Quiesce between posts: back-to-back posts coalesce into one window,
	// which could leave the leader short of CheckpointEvery applied batches.
	for i := 0; i < 6; i++ {
		postUpdatesHTTP(t, client, lsrv.URL, w.NextBatch())
		waitQuiescedSrv(t, leader)
	}

	fol, err := StartFollower(a, followerConfig(lsrv.URL), func() (*graph.Dynamic, error) {
		return w.Initial(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Drain()
	if fol.Role() != "follower" || leader.Role() != "leader" {
		t.Fatalf("roles: leader=%q follower=%q", leader.Role(), fol.Role())
	}
	waitFollowerAt(t, fol, leader.Applied())

	// Keep streaming: the follower must track via the long-poll tail.
	for i := 0; i < 4; i++ {
		postUpdatesHTTP(t, client, lsrv.URL, w.NextBatch())
	}
	waitQuiescedSrv(t, leader)
	waitFollowerAt(t, fol, leader.Applied())
	waitFor(t, 5*time.Second, func() bool { return fol.ReplLagBatches() == 0 }, "lag did not return to 0")
	matchAnswers(t, leader, fol)

	fsrv := httptest.NewServer(fol.Handler())
	defer fsrv.Close()

	// Writes are misdirected.
	resp, body := postJSON(t, client, fsrv.URL+"/v1/updates", updatesRequest{
		Updates: []updateJSON{{Op: "add", From: 0, To: 1, W: 1}},
	})
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower POST /v1/updates: status %d (%s), want 421", resp.StatusCode, body)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, lsrv.URL) {
		t.Fatalf("421 Location %q does not point at the leader %s", loc, lsrv.URL)
	}

	// Reads carry role + staleness headers.
	resp = getJSON(t, client, fsrv.URL+"/v1/answers", nil)
	if got := resp.Header.Get(replication.HeaderRole); got != "follower" {
		t.Fatalf("%s=%q, want follower", replication.HeaderRole, got)
	}
	if resp.Header.Get(replication.HeaderStaleness) == "" {
		t.Fatalf("missing %s header on follower read", replication.HeaderStaleness)
	}

	// A caught-up follower passes any staleness bound.
	req, _ := http.NewRequest(http.MethodGet, fsrv.URL+"/v1/answers", nil)
	req.Header.Set(replication.HeaderMaxStaleness, "50ms")
	r2, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("bounded read on caught-up follower: status %d, want 200", r2.StatusCode)
	}

	// Follower healthz exposes the replication block.
	var hz healthzResponse
	getJSON(t, client, fsrv.URL+"/healthz", &hz)
	if hz.Role != "follower" || hz.Repl == nil || hz.Repl.LagBatches != 0 {
		t.Fatalf("follower healthz: %+v", hz)
	}
}

// A leader with no checkpoint yet: the follower bootstraps from init at
// index 0 and replays the whole WAL over the tail.
func TestFollowerBootstrapsWithoutCheckpoint(t *testing.T) {
	w := testWorkload(t)
	a := testAlgo(t)
	cfg := leaderConfig(t)
	cfg.CheckpointPath = ""
	cfg.CheckpointEvery = 0
	leader, err := New(w.Initial(), a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Drain()
	lsrv := httptest.NewServer(leader.Handler())
	defer lsrv.Close()

	for i := 0; i < 3; i++ {
		postUpdatesHTTP(t, lsrv.Client(), lsrv.URL, w.NextBatch())
	}
	waitQuiescedSrv(t, leader)

	fol, err := StartFollower(a, followerConfig(lsrv.URL), func() (*graph.Dynamic, error) {
		return w.Initial(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Drain()
	waitFollowerAt(t, fol, leader.Applied())
	if fol.edges.Load() != leader.edges.Load() {
		t.Fatalf("edges: leader %d, follower %d", leader.edges.Load(), fol.edges.Load())
	}
}

// Retention race: while the link is down, the leader checkpoints past the
// follower and deletes the WAL segments it still needs. On heal the tail
// gets 410, re-bootstraps from the leader's checkpoint (preserving local
// query registrations), and converges. During the partition the follower
// reports degraded staleness and 503s bounded-staleness clients.
func TestFollowerRetentionRaceRebootstraps(t *testing.T) {
	w := testWorkload(t)
	a := testAlgo(t)
	cfg := leaderConfig(t)
	cfg.WALSegmentBytes = 256 // roll nearly every batch
	cfg.CheckpointEvery = 2   // aggressive retention
	leader, err := New(w.Initial(), a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Drain()
	lsrv := httptest.NewServer(leader.Handler())
	defer lsrv.Close()
	client := lsrv.Client()

	proxy, err := replication.NewProxy(lsrv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	postUpdatesHTTP(t, client, lsrv.URL, w.NextBatch())
	waitQuiescedSrv(t, leader)

	fcfg := followerConfig("http://" + proxy.Addr())
	fcfg.MaxStaleness = 50 * time.Millisecond
	fol, err := StartFollower(a, fcfg, func() (*graph.Dynamic, error) {
		return w.Initial(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Drain()
	for _, p := range w.QueryPairsConnected(4) {
		fol.Pool().Register(core.Query{S: p[0], D: p[1]})
	}
	waitFollowerAt(t, fol, leader.Applied())

	// Partition, then advance the leader until retention deletes the WAL
	// segments the follower still needs. Quiesce per post so each post is
	// its own batch; retention trails by the active segment, so keep
	// feeding until the oldest retained record passes the follower.
	proxy.Drop()
	folAt := fol.Applied()
	waitFor(t, 20*time.Second, func() bool {
		if leader.wal.OldestIndex() > folAt {
			return true
		}
		postUpdatesHTTP(t, client, lsrv.URL, w.NextBatch())
		waitQuiescedSrv(t, leader)
		return false
	}, "retention never advanced past the follower")

	// Staleness grows past MaxStaleness while partitioned: degraded healthz,
	// bounded reads 503, unbounded reads still 200.
	waitFor(t, 5*time.Second, func() bool { return fol.replDegraded() },
		"follower did not degrade on staleness")
	fsrv := httptest.NewServer(fol.Handler())
	defer fsrv.Close()
	var hz healthzResponse
	getJSON(t, client, fsrv.URL+"/healthz", &hz)
	if hz.Status != "degraded" || !strings.Contains(hz.DegradedReason, "staleness") {
		t.Fatalf("partitioned follower healthz: %+v", hz)
	}
	req, _ := http.NewRequest(http.MethodGet, fsrv.URL+"/v1/answers", nil)
	req.Header.Set(replication.HeaderMaxStaleness, "10ms")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("bounded read on stale follower: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if r := getJSON(t, client, fsrv.URL+"/v1/answers", nil); r.StatusCode != http.StatusOK {
		t.Fatalf("unbounded read on stale follower: status %d, want 200", r.StatusCode)
	}

	// Heal: 410 → checkpoint re-bootstrap → convergence, queries intact.
	proxy.Heal()
	waitFollowerAt(t, fol, leader.Applied())
	waitFor(t, 10*time.Second, func() bool {
		return fol.ReplLagBatches() == 0 && fol.tail.Rebootstraps.Load() > 0
	}, "follower did not re-bootstrap and catch up after heal")
	if got := fol.Pool().NumQueries(); got != 4 {
		t.Fatalf("re-bootstrap lost queries: %d, want 4", got)
	}
	// Answers on the follower's own queries must equal a fresh leader-side
	// registration of the same pairs.
	fsnap := fol.Pool().Answers()
	for i, q := range fsnap.Queries {
		_, want, err := leader.Pool().Register(q)
		if err != nil {
			t.Fatal(err)
		}
		if fsnap.Values[i] != want {
			t.Fatalf("post-rebootstrap answer Q(%d->%d): follower %v, leader %v",
				q.S, q.D, fsnap.Values[i], want)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return !fol.replDegraded() },
		"follower still degraded after catching up")
}
