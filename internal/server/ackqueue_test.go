package server

import (
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cisgraph/internal/graph"
	"cisgraph/internal/stream"
)

// badFrame is a CGBIN/2 frame whose payload length is not a record multiple:
// the stream is desynced and the server acks BadFrame, then closes.
var badFrame = []byte{5, 0, 0, 0, 1, 2, 3, 4, 9, 9, 9, 9, 9}

// noAckYet fails if any ack byte reaches the client within a short window.
func (c *binTestClient) noAckYet(why string) {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := c.br.Peek(1); err == nil {
		c.t.Fatalf("an ack arrived %s", why)
	}
}

// expectEOF fails unless the server closed the connection after the last ack.
func (c *binTestClient) expectEOF() {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if a, err := ReadBinAck(c.br); err == nil {
		c.t.Fatalf("connection still open: ack %+v", a)
	}
}

// framesOf cuts n frames of distinct lengths 2, 3, … from the workload, so
// each ack's counts name the frame it answers.
func framesOf(w *stream.Workload, n int) [][]graph.Update {
	var frames [][]graph.Update
	for i := 0; i < n; i++ {
		frames = append(frames, w.NextBatch()[:2+i])
	}
	return frames
}

// holdCommits takes the commit lock, stalling the ingest queue's commit
// goroutine at its next group; the returned release is idempotent.
func holdCommits(srv *Server) (release func()) {
	srv.commitMu.Lock()
	return sync.OnceFunc(srv.commitMu.Unlock)
}

// expectOKAcks reads one OK ack per frame, in frame order, with cumulative
// positions from pos; it returns the position after the last.
func (c *binTestClient) expectOKAcks(frames [][]graph.Update, pos uint64) uint64 {
	c.t.Helper()
	for i, f := range frames {
		a := c.recv()
		pos += uint64(len(f))
		if a.Status != BinStatusOK || a.Accepted != uint32(len(f)) || a.Pos != pos {
			c.t.Fatalf("frame %d (%d updates): ack %+v, want OK accepted %d at %d", i, len(f), a, len(f), pos)
		}
	}
	return pos
}

// TestAckQueueBadFrameBehindPending: a bad frame read behind N frames the
// commit goroutine has not resolved is acked after all N, in frame order,
// though the reader resolved it first.
func TestAckQueueBadFrameBehindPending(t *testing.T) {
	w := testWorkload(t)
	srv, err := New(w.Initial(), testAlgo(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	bc, closeBin := dialBinary(t, srv)
	defer closeBin()

	frames := framesOf(w, 5)
	release := holdCommits(srv)
	defer release()
	for _, f := range frames {
		bc.send(f)
	}
	if _, err := bc.conn.Write(badFrame); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return srv.Counters().Get(CntBinBadFrames) == 1 },
		"the reader never saw the bad frame")
	bc.noAckYet("while every frame ahead of the bad one was unresolved")
	release()

	bc.expectOKAcks(frames, 0)
	if a := bc.recv(); a.Status != BinStatusBadFrame {
		t.Fatalf("after %d frames: ack %+v, want BadFrame", len(frames), a)
	}
	bc.expectEOF()
}

// TestAckQueueDrainingMidStream: a frame refused because the ingest queue
// began draining is acked Draining behind the frames admitted before it,
// each of which is still committed and acked OK.
func TestAckQueueDrainingMidStream(t *testing.T) {
	w := testWorkload(t)
	srv, err := New(w.Initial(), testAlgo(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	bc, closeBin := dialBinary(t, srv)
	defer closeBin()

	frames := framesOf(w, 5)
	late := w.NextBatch()[:7]
	release := holdCommits(srv)
	defer release()
	for _, f := range frames {
		bc.send(f)
	}
	waitFor(t, 10*time.Second, func() bool { return srv.in.pending.Load() == int64(len(frames)) },
		"the frames were never admitted")
	srv.in.close() // what shutdown does first
	bc.send(late)
	bc.noAckYet("while the frames ahead of the refused one were unresolved")
	release()

	bc.expectOKAcks(frames, 0)
	if a := bc.recv(); a.Status != BinStatusDraining || a.Dropped != uint32(len(late)) || a.Accepted != 0 {
		t.Fatalf("refused frame: ack %+v, want Draining with %d dropped", a, len(late))
	}
	bc.expectEOF()
}

// TestAckQueueSyncResolverOrder: replication-gated acks reach the client
// in frame order whether the sync-ack resolver releases them (a follower mark
// passes) or degrades them (the timeout), and a bad frame read behind gated
// frames waits for them.
func TestAckQueueSyncResolverOrder(t *testing.T) {
	w := testWorkload(t)
	cfg := Config{}
	cfg.WALPath = filepath.Join(t.TempDir(), "srv.wal")
	cfg.SyncFollowers = 1
	cfg.SyncAckTimeout = 300 * time.Millisecond
	srv, err := New(w.Initial(), testAlgo(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	bc, closeBin := dialBinary(t, srv)
	defer closeBin()

	// Release: committed, gated until a follower proves the position durable.
	frames := framesOf(w, 3)
	var total uint64
	for _, f := range frames {
		bc.send(f)
		total += uint64(len(f))
	}
	waitFor(t, 10*time.Second, func() bool { return srv.Applied() == total }, "the gated frames never committed")
	bc.noAckYet("before any follower covered the commit")
	srv.marks.observe("follower-a", srv.Applied())
	pos := bc.expectOKAcks(frames, 0)

	// Degrade: no follower covers these; a bad frame queues behind them.
	frames = framesOf(w, 2)
	for _, f := range frames {
		bc.send(f)
		total += uint64(len(f))
	}
	waitFor(t, 10*time.Second, func() bool { return srv.Applied() == total }, "the gated frames never committed")
	if _, err := bc.conn.Write(badFrame); err != nil {
		t.Fatal(err)
	}
	// A degraded ack carries its group's commit position.
	last := pos
	for i, f := range frames {
		a := bc.recv()
		if a.Status != BinStatusDegraded || a.Dropped != uint32(len(f)) || a.Accepted != 0 || a.Pos <= pos || a.Pos < last {
			t.Fatalf("degraded frame %d (%d updates): ack %+v, want Degraded with %d dropped past %d", i, len(f), a, len(f), last)
		}
		last = a.Pos
	}
	if last != total {
		t.Fatalf("last degraded ack at %d, want %d", last, total)
	}
	if a := bc.recv(); a.Status != BinStatusBadFrame {
		t.Fatalf("after the degraded frames: ack %+v, want BadFrame", a)
	}
	bc.expectEOF()
	if pos >= total || srv.Counters().Get(CntSyncAckTimeouts) == 0 {
		t.Fatalf("released through %d of %d, %d sync-ack timeouts", pos, total, srv.Counters().Get(CntSyncAckTimeouts))
	}
}

// within fails the test unless f returns inside a generous bound.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("blocked: %s", what)
	}
}

// TestAckQueueWriteErrorDoesNotBlockCommit: resolving acks never waits on
// the connection. A writer stuck in a write to a peer that does not read, and
// then failed by the peer's death, blocks no resolver; after the failure it
// keeps freeing window slots, so the reader is never wedged either.
func TestAckQueueWriteErrorDoesNotBlockCommit(t *testing.T) {
	const depth = 4
	q := newAckQueue(depth)
	conn, peer := net.Pipe() // nobody reads peer: the writer's first write blocks
	written := make(chan struct{})
	go func() {
		defer close(written)
		q.writeAcks(conn)
	}()
	var woken []*ackQueue
	group := func(n int) {
		entries := make([]*entry, n)
		acks := make([]BinAck, n)
		for i := range entries {
			entries[i] = new(entry)
			q.admit(entries[i])
			acks[i] = BinAck{Pos: uint64(i), Status: BinStatusOK}
		}
		woken = resolveGroup(entries, acks, woken)
	}
	within(t, "a window of frames beside a writer that cannot write", func() { group(depth) })
	within(t, "a second window while the writer is stuck in its write", func() { group(depth) })
	peer.Close()
	within(t, "frames past the window after the write failed", func() {
		for i := 0; i < 4; i++ {
			group(depth)
		}
	})
	q.close()
	within(t, "the writer's exit", func() { <-written })
}

// TestBinaryPeerGoneMidStream: a client that pipelines frames and vanishes
// without reading its acks costs the server nothing: its frames commit, and
// another connection keeps getting prompt acks.
func TestBinaryPeerGoneMidStream(t *testing.T) {
	w := testWorkload(t)
	srv, err := New(w.Initial(), testAlgo(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	gone, closeGone := dialBinary(t, srv)
	var total uint64
	for _, f := range framesOf(w, 8) {
		gone.send(f)
		total += uint64(len(f))
	}
	closeGone()

	bc, closeBin := dialBinary(t, srv)
	defer closeBin()
	waitFor(t, 10*time.Second, func() bool { return srv.Applied() == total }, "the vanished client's frames never committed")
	for _, f := range framesOf(w, 4) {
		bc.send(f)
		total = bc.expectOKAcks([][]graph.Update{f}, total)
	}
	waitQuiescedSrv(t, srv)
}
