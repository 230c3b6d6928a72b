package server

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
)

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// holdFirst holds the commit stage and queues first, then waits until the
// commit loop has taken it alone and parked on the held stage: whatever is
// queued next waits for one later group.
func holdFirst(t *testing.T, srv *Server, queue func()) (release func()) {
	t.Helper()
	release = holdCommits(srv)
	queue()
	waitFor(t, 10*time.Second, func() bool { return srv.in.pending.Load() == 1 && srv.in.queuedUpdates() == 0 },
		"the commit loop to take the first entry")
	return release
}

// frontModel is the mixed-front differential's reference. It takes every
// update in queue order against its own graph — the topology plus every
// update accepted before it — and a CGBIN/2 update whose (sid, seq) an
// earlier group applied as a duplicate, and it lists the WAL records that
// must result: one per JSON body with a clean update, one per applied
// CGBIN/2 update.
type frontModel struct {
	g    *graph.Dynamic
	san  *resilience.Sanitizer
	have map[uint64]uint64 // sid → highest applied seq when the group began
	next map[uint64]uint64 // sid → highest applied seq so far
	recs []resilience.Record
}

func newFrontModel(g *graph.Dynamic) *frontModel {
	return &frontModel{g: g, san: resilience.NewSanitizer(resilience.PolicyDrop, nil),
		have: map[uint64]uint64{}, next: map[uint64]uint64{}}
}

// take validates u against the model's graph alone and applies it if clean.
func (m *frontModel) take(u graph.Update) bool {
	if m.san.Stream(m.g).Check(u) != "" {
		return false
	}
	m.g.Apply([]graph.Update{u})
	return true
}

// group starts a group commit: duplicates are judged against the session
// table as the group finds it.
func (m *frontModel) group() {
	for sid, seq := range m.next {
		m.have[sid] = seq
	}
}

func (m *frontModel) body(ups []graph.Update) {
	var clean []graph.Update
	for _, u := range ups {
		if m.take(u) {
			clean = append(clean, u)
		}
	}
	if len(clean) > 0 {
		m.recs = append(m.recs, resilience.Record{Batch: clean})
	}
}

// frame returns the ack the frame must get.
func (m *frontModel) frame(sid, seq uint64, ups []graph.Update) BinAck {
	var acc uint32
	for i, u := range ups {
		s := seq + uint64(i)
		if have, ok := m.have[sid]; ok && s <= have {
			acc++
			continue
		}
		if m.take(u) {
			acc++
			m.recs = append(m.recs, resilience.Record{Batch: []graph.Update{u}, SID: sid, Seq: s})
			m.next[sid] = max(m.next[sid], s)
		}
	}
	return BinAck{Pos: uint64(len(m.recs)), Accepted: acc, Dropped: uint32(len(ups)) - acc, Status: BinStatusOK}
}

// TestIngestMixedFrontDifferential drives JSON bodies of 1, 7 and 512
// updates (some invalid) and CGBIN/2 frames (some replaying an acked
// (sid, seq)) through one ingest queue, three rounds of shared groups forced
// by holding the commit stage. Within a group a frame adds a query's direct
// edge that a later body deletes, and a body adds an edge that a later frame
// adds again: every record must be sanitized against the updates queued
// before it, whatever its front. The server must match frontModel: the
// binary acks, the WAL's records (one per body, one per update), and
// /v1/answers byte for byte against one core.ColdStart per query on the
// model's graph; a Restore from the durable artefacts serves the same bytes.
func TestIngestMixedFrontDifferential(t *testing.T) {
	w := testWorkload(t)
	a := testAlgo(t)
	dir := t.TempDir()
	cfg := Config{WALPath: filepath.Join(dir, "srv.wal"), CheckpointPath: filepath.Join(dir, "srv.ckpt")}
	srv, err := New(w.Initial(), a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	m := newFrontModel(w.Initial())

	// A query whose pair has no direct edge: the edge the frame adds and the
	// body deletes moves its answer.
	var qs []core.Query
	for _, p := range w.QueryPairsConnected(6) {
		qs = append(qs, core.Query{S: p[0], D: p[1]})
	}
	for i, q := range qs {
		if _, ok := m.g.HasEdge(q.S, q.D); !ok {
			qs[0], qs[i] = qs[i], qs[0]
			break
		}
	}
	if _, ok := m.g.HasEdge(qs[0].S, qs[0].D); ok {
		t.Fatal("every query pair is one edge apart")
	}
	if _, _, err := srv.Pool().RegisterAll(qs); err != nil {
		t.Fatal(err)
	}
	if err := srv.writeCheckpoint(); err != nil { // carries the queries; covers no update
		t.Fatal(err)
	}

	var pending []graph.Update
	next := func(n int) []graph.Update {
		for len(pending) < n {
			pending = append(pending, w.NextBatch()...)
		}
		ups := append([]graph.Update(nil), pending[:n]...)
		pending = pending[n:]
		return ups
	}
	b1, closeB1 := dialBinary(t, srv)
	defer closeB1()
	b2, closeB2 := dialBinary(t, srv)
	defer closeB2()
	nv := uint32(w.NumVertices())

	type sent struct {
		c    *binTestClient
		want BinAck
	}
	var lastB1 struct {
		seq uint64
		ups []graph.Update
	}
	for round := 0; round < 3; round++ {
		queued := 0
		waitQueued := func(n int) {
			queued += n
			waitFor(t, 10*time.Second, func() bool { return srv.in.queuedUpdates() == queued }, "an entry to queue")
		}
		postBody := func(ups []graph.Update) {
			postUpdatesHTTP(t, client, ts.URL, ups)
			m.body(ups)
			waitQueued(len(ups))
		}
		var acks []sent
		sendFrame := func(c *binTestClient, sid, seq uint64, ups []graph.Update) {
			c.buf = AppendBinFrameSession(c.buf[:0], sid, seq, ups)
			if _, err := c.conn.Write(c.buf); err != nil {
				t.Fatal(err)
			}
			acks = append(acks, sent{c, m.frame(sid, seq, ups)})
			waitQueued(len(ups))
		}

		m.group()
		leader := next(1)
		release := holdFirst(t, srv, func() {
			postUpdatesHTTP(t, client, ts.URL, leader)
			m.body(leader)
		})
		m.group()

		f1 := append(next(6), graph.Add(1, 2, math.NaN()))
		body7 := append(next(4), graph.Add(3, 3, 1), graph.Add(nv+5, 0, 1))
		body512 := next(499)
		for i := 0; i < 12; i++ {
			body512 = append(body512, graph.Add(uint32(i), uint32(i), 1))
		}
		var f2 []graph.Update
		f2sid, f2seq := b2.sid, b2.seq
		if round == 0 {
			// The frame adds q0's direct edge, the body after it deletes it;
			// the big body adds an absent edge, the frame after it adds it too.
			f1 = append(f1, graph.Add(qs[0].S, qs[0].D, 1e-3))
			body7 = append(body7, graph.Del(qs[0].S, qs[0].D, 1e-3))
			var add graph.Update
			for _, u := range absentAdds(m.g, 64) {
				if u.From != qs[0].S || u.To != qs[0].D {
					add = u
				}
			}
			body512 = append(body512, add)
			f2 = append(next(3), add)
			b2.seq += uint64(len(f2))
		} else {
			// The second connection replays the first one's frame acked in
			// the previous round, under its (sid, seq).
			body7 = append(body7, next(1)...)
			body512 = append(body512, next(1)...)
			f2sid, f2seq = b1.sid, lastB1.seq
			f2 = lastB1.ups
		}

		lastB1.seq, lastB1.ups = b1.seq, f1
		sendFrame(b1, b1.sid, b1.seq, f1)
		b1.seq += uint64(len(f1))
		postBody(body7)
		postBody(body512)
		sendFrame(b2, f2sid, f2seq, f2)
		postBody([]graph.Update{graph.Del(0, nv-1, 1)}) // very likely absent
		release()
		for i, s := range acks {
			if got := s.c.recv(); got != s.want {
				t.Fatalf("round %d, frame %d: ack %+v, want %+v", round, i, got, s.want)
			}
		}
		waitQuiescedSrv(t, srv)
	}

	if srv.Applied() != uint64(len(m.recs)) {
		t.Fatalf("position %d, want one per body and one per update: %d", srv.Applied(), len(m.recs))
	}
	logged, err := resilience.ReplaySegmented(cfg.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(logged) != len(m.recs) {
		t.Fatalf("the WAL holds %d records, want %d", len(logged), len(m.recs))
	}
	for i, rec := range logged {
		want := m.recs[i]
		if rec.SID != want.SID || rec.Seq != want.Seq || fmt.Sprint(rec.Batch) != fmt.Sprint(want.Batch) {
			t.Fatalf("WAL record %d: %d updates tagged (%d, %d), want %d tagged (%d, %d)",
				i, len(rec.Batch), rec.SID, rec.Seq, len(want.Batch), want.SID, want.Seq)
		}
	}
	if !sameTopology(srv.Pool().Topology(), m.g) {
		t.Fatal("the server's topology differs from the model's")
	}
	snap := srv.Pool().Answers()
	cold := &Snapshot{Queries: snap.Queries, Values: make([]algo.Value, len(snap.Queries))}
	for i, q := range snap.Queries {
		cs := core.NewColdStart()
		cs.Reset(m.g.Clone(), a, q)
		cold.Values[i] = cs.Answer()
	}
	want := appendAnswers(nil, uint64(len(m.recs)), true, cold, 0, len(cold.Values))
	served := answersBody(t, client, ts.URL)
	if !bytes.Equal(served, want) {
		t.Fatalf("/v1/answers differs from one cold start per query on the model's graph:\nserved %s\nwant   %s", served, want)
	}

	// The durable artefacts as a kill would leave them: the checkpoint
	// taken before the stream and every record since, no drain checkpoint.
	killed := t.TempDir()
	copyDir(t, dir, killed)
	rcfg := Config{WALPath: filepath.Join(killed, "srv.wal"), CheckpointPath: filepath.Join(killed, "srv.ckpt")}
	srv2, err := Restore(a, rcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Drain()
	if got := servedAnswers(t, srv2); !bytes.Equal(got, served) {
		t.Fatalf("restored /v1/answers differ:\nbefore %s\nafter  %s", served, got)
	}
}

// TestIngestRefusesWholeBody: a POST that does not fit beside what is
// queued is refused whole with 429 — none of its updates is queued, applied
// or logged — while the bodies queued before it all commit.
func TestIngestRefusesWholeBody(t *testing.T) {
	w := testWorkload(t)
	srv, err := New(w.Initial(), testAlgo(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	bc, closeBin := dialBinary(t, srv)
	defer closeBin()

	first := w.NextBatch()
	release := holdFirst(t, srv, func() { postUpdatesHTTP(t, client, ts.URL, first) })
	defer release()
	fill := make([]graph.Update, groupMax-8) // self-loops: queued, then dropped
	for i := range fill {
		fill[i] = graph.Add(1, 1, 1)
	}
	bc.send(fill)
	waitFor(t, 10*time.Second, func() bool { return srv.in.queuedUpdates() == len(fill) }, "the filler frame to queue")
	fits := w.NextBatch()[:8]
	after := srv.Pool().Topology().Clone() // the commit loop is parked: no writer runs
	after.Apply(first)
	after.Apply(fits)
	over := absentAdds(after, 9)
	resp, _ := postJSON(t, client, ts.URL+"/v1/updates", updatesReq(over))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("a body one update over the room left: status %d, want 429", resp.StatusCode)
	}
	if q, p := srv.in.queuedUpdates(), srv.in.pending.Load(); q != len(fill) || p != 2 {
		t.Fatalf("after a refused body the queue holds %d updates in %d entries, want %d in 2", q, p, len(fill))
	}
	postUpdatesHTTP(t, client, ts.URL, fits)
	release()
	if ack := bc.recv(); ack.Status != BinStatusOK || ack.Dropped != uint32(len(fill)) {
		t.Fatalf("filler frame: ack %+v", ack)
	}
	waitQuiescedSrv(t, srv)
	if srv.Applied() != 2 {
		t.Fatalf("position %d, want the two accepted bodies", srv.Applied())
	}
	for _, u := range over {
		if _, ok := srv.Pool().Topology().HasEdge(u.From, u.To); ok {
			t.Fatalf("refused update %v was applied", u)
		}
	}
}

// TestIngestDrainCommitsAccepted: Drain refuses new writes at once (503 for
// a POST) but commits every body and frame accepted before it, so the final
// checkpoint covers them all.
func TestIngestDrainCommitsAccepted(t *testing.T) {
	w := testWorkload(t)
	dir := t.TempDir()
	cfg := Config{WALPath: filepath.Join(dir, "srv.wal"), CheckpointPath: filepath.Join(dir, "srv.ckpt")}
	srv, err := New(w.Initial(), testAlgo(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	bc, closeBin := dialBinary(t, srv)
	defer closeBin()

	first := w.NextBatch()
	release := holdFirst(t, srv, func() { postUpdatesHTTP(t, client, ts.URL, first) })
	defer release()
	frame := w.NextBatch()
	bc.send(frame)
	waitFor(t, 10*time.Second, func() bool { return srv.in.queuedUpdates() == len(frame) }, "the frame to queue")
	for i := 0; i < 3; i++ {
		postUpdatesHTTP(t, client, ts.URL, w.NextBatch())
	}
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain() }()
	waitFor(t, 10*time.Second, srv.in.isClosed, "drain to close the queue")
	resp, _ := postJSON(t, client, ts.URL+"/v1/updates", updatesReq(w.NextBatch()))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST during drain: status %d, want 503", resp.StatusCode)
	}
	release()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	want := uint64(4 + len(frame))
	if !srv.Quiesced() || srv.Applied() != want {
		t.Fatalf("drained at position %d (quiesced %v), want %d", srv.Applied(), srv.Quiesced(), want)
	}
	if covered, _, _, err := resilience.ReadCheckpointMeta(cfg.CheckpointPath); err != nil || covered != want {
		t.Fatalf("final checkpoint covers %d (%v), want %d", covered, err, want)
	}
}

// TestIngestQueuesBesideCommit: while a group commits, POSTs are answered
// 202 at once and queue behind it; the next group takes all of them — the
// gathering of group N+1 overlaps the commit of group N.
func TestIngestQueuesBesideCommit(t *testing.T) {
	w := testWorkload(t)
	srv, err := New(w.Initial(), testAlgo(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	groups0, bodies0 := srv.Counters().Get(CntFastGroups), srv.Counters().Get(CntCutSize)

	first := w.NextBatch()
	release := holdFirst(t, srv, func() { postUpdatesHTTP(t, client, ts.URL, first) })
	defer release()
	queued := 0
	for i := 0; i < 5; i++ {
		b := w.NextBatch()
		postUpdatesHTTP(t, client, ts.URL, b) // 202 with the commit held
		queued += len(b)
	}
	if q := srv.in.queuedUpdates(); q != queued {
		t.Fatalf("%d updates queued behind the held commit, want %d", q, queued)
	}
	release()
	waitQuiescedSrv(t, srv)
	if g, b := srv.Counters().Get(CntFastGroups)-groups0, srv.Counters().Get(CntCutSize)-bodies0; g != 2 || b != 6 {
		t.Fatalf("%d group commits of %d bodies, want the held body then one group of the other five", g, b)
	}
	if srv.Applied() != 6 {
		t.Fatalf("position %d, want one per body", srv.Applied())
	}
}
