package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cisgraph/internal/core"
	"cisgraph/internal/graph"
)

func TestDedupTableExactlyOnce(t *testing.T) {
	d := newDedupTable(3)
	if d.dup(7, 1) {
		t.Fatal("fresh table reported a duplicate")
	}
	d.advance(7, 1)
	d.advance(7, 2)
	if !d.dup(7, 1) || !d.dup(7, 2) {
		t.Fatal("accepted seqs not recognized as duplicates")
	}
	if d.dup(7, 3) {
		t.Fatal("unseen seq reported duplicate")
	}
	if d.dup(0, 1) {
		t.Fatal("session 0 must never deduplicate")
	}
	d.advance(0, 99)
	if d.size() != 1 {
		t.Fatalf("session 0 entered the table (size %d)", d.size())
	}

	// Eviction is least-recently-ADVANCED: touch order 7,8,9 then re-advance
	// 7 — adding 10 must evict 8.
	d.advance(8, 1)
	d.advance(9, 1)
	d.advance(7, 3)
	d.advance(10, 1)
	if d.size() != 3 {
		t.Fatalf("size %d after eviction, want 3", d.size())
	}
	if d.dup(8, 1) {
		t.Fatal("evicted session 8 still deduplicates")
	}
	if !d.dup(7, 3) || !d.dup(9, 1) || !d.dup(10, 1) {
		t.Fatal("survivors lost state across eviction")
	}

	// snapshot → load round-trips both the seqs and the eviction order.
	snap := d.snapshot()
	d2 := newDedupTable(3)
	d2.load(snap)
	if got := d2.snapshot(); fmt.Sprint(got) != fmt.Sprint(snap) {
		t.Fatalf("load(snapshot()) mutated the table: %v -> %v", snap, got)
	}
	d2.advance(11, 1) // evicts the same victim the original would pick
	d.advance(11, 1)
	if fmt.Sprint(d.snapshot()) != fmt.Sprint(d2.snapshot()) {
		t.Fatalf("post-restore eviction diverged:\n live %v\n restored %v", d.snapshot(), d2.snapshot())
	}
}

func TestCheckpointStateSessionRoundTrip(t *testing.T) {
	g := graph.NewDynamic(4)
	g.Apply([]graph.Update{graph.Add(0, 1, 2), graph.Add(1, 3, 5)})
	qs := []core.Query{{S: 0, D: 3}}
	sessions := []dedupSession{{SID: 0xbeef, Seq: 17}, {SID: 1, Seq: 999}}

	payload := encodeState(g, qs, sessions)
	g2, qs2, sess2, err := decodeState(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs2) != 1 || qs2[0] != qs[0] {
		t.Fatalf("queries mutated: %v", qs2)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("topology mutated: %d edges, want %d", g2.NumEdges(), g.NumEdges())
	}
	if fmt.Sprint(sess2) != fmt.Sprint(sessions) {
		t.Fatalf("sessions mutated: %v, want %v", sess2, sessions)
	}

	// No sessions → the same CGSRVS2 payload with a zero session count.
	empty := encodeState(g, qs, nil)
	if !bytes.HasPrefix(empty, []byte("CGSRVS2\n")) {
		t.Fatalf("empty session table wrote prefix %q, want CGSRVS2", empty[:8])
	}
	if _, _, sessNone, err := decodeState(empty); err != nil || len(sessNone) != 0 {
		t.Fatalf("empty-session payload decode: sessions=%v err=%v", sessNone, err)
	}
}

func TestFollowerMarksKth(t *testing.T) {
	m := newFollowerMarks()
	if got := m.kth(1); got != 0 {
		t.Fatalf("kth(1) with no followers = %d, want 0", got)
	}
	if got := m.kth(0); got != ^uint64(0) {
		t.Fatalf("kth(0) = %d, want max (vacuous sync requirement)", got)
	}
	m.observe("a", 10)
	m.observe("b", 7)
	if got := m.kth(1); got != 10 {
		t.Fatalf("kth(1) = %d, want 10", got)
	}
	if got := m.kth(2); got != 7 {
		t.Fatalf("kth(2) = %d, want 7", got)
	}
	if got := m.kth(3); got != 0 {
		t.Fatalf("kth(3) with 2 followers = %d, want 0", got)
	}
	// Marks only advance: a re-bootstrapping follower asking from 0 again
	// must not un-prove what it already fsynced.
	m.observe("a", 3)
	if got := m.kth(1); got != 10 {
		t.Fatalf("kth(1) after regressing observe = %d, want 10", got)
	}
}

// TestLeaderDemotesOnHigherEpoch drives the fencing invariant in-process: a
// leader that learns of a higher epoch (as the replication Source does when
// a promoted sibling proves one) must demote before committing anything
// else, and its write surface must answer 421 from then on.
func TestLeaderDemotesOnHigherEpoch(t *testing.T) {
	g := graph.NewDynamic(8)
	g.Apply([]graph.Update{graph.Add(0, 1, 1)})
	srv, err := New(g, testAlgo(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if srv.Role() != "leader" || srv.Epoch() != 0 {
		t.Fatalf("fresh node: role=%q epoch=%d", srv.Role(), srv.Epoch())
	}
	srv.onPeerEpoch(5)
	if srv.Role() != "follower" {
		t.Fatalf("role %q after peer proved epoch 5, want follower", srv.Role())
	}
	resp, err := http.Post(ts.URL+"/v1/updates", "application/json",
		strings.NewReader(`{"updates":[{"op":"add","from":2,"to":3,"w":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("demoted node accepted a write: status %d, want 421", resp.StatusCode)
	}

	// Idempotent: a second, lower peer epoch must not resurrect leadership.
	srv.onPeerEpoch(3)
	if srv.Role() != "follower" {
		t.Fatalf("role %q after stale peer epoch, want follower", srv.Role())
	}
}
