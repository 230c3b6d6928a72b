package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
)

// Errors returned by ingest.offer.
var (
	// errQueueFull reports that the ingest queue cannot take the offered
	// body (HTTP 429 + Retry-After at the API).
	errQueueFull = errors.New("server: ingest queue full")
	// errDraining reports that the queue no longer accepts writes because
	// shutdown has begun (HTTP 503 at the API).
	errDraining = errors.New("server: draining, not accepting updates")
)

// entry is one queued write. A JSON body (q == nil) is one untagged record
// and nobody waits on an ack for it. A CGBIN/2 frame is one record per
// update, tagged with its session's (sid, seq+i), and its ack goes back
// through its connection's queue q; ack and done are guarded by q.mu, and a
// frame is resolved exactly once.
type entry struct {
	ups      []graph.Update
	sid, seq uint64
	q        *ackQueue
	ack      BinAck
	done     bool
}

// pendingAck is one group commit whose acks are gated on sync-follower
// durability (Config.SyncFollowers): the acks release when the k-th highest
// follower tail mark passes `need`, or degrade at `expires`.
type pendingAck struct {
	need    uint64
	expires time.Time
	entries []*entry
	acks    []BinAck
}

// groupMax bounds the ingest queue, and so one group commit: one maximal
// CGBIN/2 frame of updates, a size the wire already admits in one piece.
const groupMax = BinMaxFramePayload / BinUpdateSize

// pipelineDepth bounds the unacked frames of one binary connection (its ack
// queue's window).
const pipelineDepth = 256

// drainAckGrace bounds how long a drain waits for a binary client to take
// its last acks: a peer that stops reading cannot hold the drain open.
const drainAckGrace = 2 * time.Second

// ingest is the one ingest queue every client write goes through (DESIGN.md
// §10.1): POST bodies and CGBIN/2 frames wait in one queue bounded at
// groupMax updates, and one commit goroutine takes the whole queue as one
// group commit — one WAL write and fsync, one engine apply. Group size
// adapts to load: a lone update commits at once, a burst pays one commit per
// queue drain, and while a group commits the next one gathers, which is the
// paper's overlap of batch gathering with the previous batch's delayed work.
type ingest struct {
	s    *Server
	done chan struct{} // closed when the commit loop exits

	// The queue. ready wakes the commit loop, room wakes frames waiting to
	// fit; both also wake on close.
	mu     sync.Mutex
	ready  sync.Cond
	room   sync.Cond
	queue  []*entry
	queued int  // updates in queue
	closed bool // drain began: nothing more is queued

	// pending counts entries queued or in a group commit: Quiesced is
	// pending == 0.
	pending  atomic.Int64
	stopOnce sync.Once

	// Sync-ack resolver (nil channels when SyncFollowers == 0).
	syncCh   chan *pendingAck
	syncQuit chan struct{}
	syncDone chan struct{}

	// Binary listeners and connections; live counts the connection
	// handlers still running.
	connMu sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	live   sync.WaitGroup

	// Commit-goroutine-private scratch, reused across groups. spare is the
	// queue's other buffer: the commit loop swaps it for the queue.
	spare    []*entry
	recs     []resilience.Record
	verdicts []verdict
	frames   []*entry
	acks     []BinAck
	woken    []*ackQueue
}

func newIngest(s *Server) *ingest {
	in := &ingest{
		s:     s,
		done:  make(chan struct{}),
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	in.ready.L, in.room.L = &in.mu, &in.mu
	if s.cfg.SyncFollowers > 0 {
		in.syncCh = make(chan *pendingAck, 64)
		in.syncQuit = make(chan struct{})
		in.syncDone = make(chan struct{})
		go in.runSyncResolver()
	}
	go in.run()
	return in
}

// offer queues a POST body whole, or refuses it whole: errQueueFull when it
// does not fit beside what is queued (a body over groupMax never fits), and
// errDraining after drain began. offer never blocks, and an update once
// queued is never dropped.
func (in *ingest) offer(ups []graph.Update) error {
	if len(ups) == 0 {
		return nil
	}
	e := &entry{ups: slices.Clone(ups)}
	in.mu.Lock()
	var err error
	switch {
	case in.closed:
		err = errDraining
	case len(ups) > groupMax-in.queued:
		err = errQueueFull
	default:
		in.pushLocked(e)
	}
	in.mu.Unlock()
	if err == nil {
		in.ready.Signal()
	}
	return err
}

// submit queues a CGBIN/2 frame, blocking its connection's reader until the
// frame fits — on a persistent connection that is the natural backpressure.
// false means drain began and the frame was not queued (the caller acks
// BinStatusDraining itself).
func (in *ingest) submit(e *entry) bool {
	in.mu.Lock()
	for !in.closed && len(e.ups) > groupMax-in.queued {
		in.room.Wait()
	}
	ok := !in.closed
	if ok {
		in.pushLocked(e)
	}
	in.mu.Unlock()
	if ok {
		in.ready.Signal()
	}
	return ok
}

// pushLocked queues e; the caller holds mu, and signals ready once it has
// let go of mu, so the commit loop does not wake only to wait for it.
func (in *ingest) pushLocked(e *entry) {
	in.queue = append(in.queue, e)
	in.queued += len(e.ups)
	in.pending.Add(1)
}

// queuedUpdates reports the updates queued and not yet taken into a group.
func (in *ingest) queuedUpdates() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.queued
}

// close refuses every later offer and submit, and wakes every waiter.
func (in *ingest) close() {
	in.mu.Lock()
	in.closed = true
	in.mu.Unlock()
	in.ready.Broadcast()
	in.room.Broadcast()
}

func (in *ingest) isClosed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.closed
}

// run is the commit loop: wait for the queue to hold something, take all of
// it as one group and commit it. After close it keeps taking what is queued
// and returns once the queue is empty.
func (in *ingest) run() {
	defer close(in.done)
	for {
		in.mu.Lock()
		for len(in.queue) == 0 && !in.closed {
			in.ready.Wait()
		}
		group := in.queue
		in.queue, in.spare = in.spare[:0], group
		in.queued = 0
		in.mu.Unlock()
		if len(group) == 0 {
			return
		}
		in.room.Broadcast()
		in.commitGroup(group)
		clear(group) // the spare buffer pins no entry
	}
}

// commitGroup turns one group into records — a JSON body as one untagged
// record, a frame as one record per update carrying its CGBIN/2 (sid, seq) —
// commits them in queue order, and resolves every frame's ack. Each applied
// record is its own WAL record and stream position, so replica tailing and
// crash replay see exactly the records the bodies and frames would have
// produced committed one by one.
//
// Exactly-once (DESIGN.md §17): an update whose (sid, seq) the dedup table
// already holds is a client replay of something durable — the stage skips
// it (no new record, no position), and the ack counts it in Accepted,
// because from the client's perspective it IS accepted.
func (in *ingest) commitGroup(entries []*entry) {
	s := in.s
	defer in.pending.Add(-int64(len(entries)))
	recs := in.recs[:0]
	var bodies int64
	for _, e := range entries {
		if e.q == nil {
			recs = append(recs, resilience.Record{Batch: e.ups})
			bodies++
			continue
		}
		for i := range e.ups {
			recs = append(recs, resilience.Record{Batch: e.ups[i : i+1], SID: e.sid, Seq: e.seq + uint64(i)})
		}
	}
	in.recs = recs
	if cap(in.verdicts) < len(recs) {
		in.verdicts = make([]verdict, len(recs))
	}
	verdicts := in.verdicts[:len(recs)]
	res := s.commit(fromClient, recs, verdicts)
	s.h.cutSize.Add(bodies)

	// Acks carry each frame's cumulative commit position; the snapshot is
	// published, so receiving the ack means the frame's updates are visible
	// to /v1/answers readers. Duplicates count as accepted (they are
	// durable) without advancing the position; an applied body advances it
	// by one.
	pos := res.pos - uint64(res.applied)
	frames, acks := in.frames[:0], in.acks[:0]
	var accepted, dropped int64
	for _, e := range entries {
		if e.q == nil {
			if verdicts[0] == vApplied {
				pos++
			}
			verdicts = verdicts[1:]
			continue
		}
		n := uint32(len(e.ups))
		ack := BinAck{Pos: res.pos, Dropped: n, Status: res.status}
		if res.status == BinStatusOK {
			var acc, dup uint32
			for _, v := range verdicts[:n] {
				switch v {
				case vApplied:
					acc++
				case vDuplicate:
					dup++
				}
			}
			pos += uint64(acc)
			ack = BinAck{Pos: pos, Accepted: acc + dup, Dropped: n - acc - dup, Status: BinStatusOK}
			accepted += int64(acc)
			dropped += int64(ack.Dropped)
		}
		verdicts = verdicts[n:]
		frames, acks = append(frames, e), append(acks, ack)
	}
	in.frames, in.acks = frames, acks
	defer clear(frames) // the scratch pins no connection's entries
	if res.applied > 0 {
		s.h.fastGroups.Inc()
		s.h.fastUpdates.Add(int64(res.updates))
	}
	s.h.accepted.Add(accepted)
	s.h.fastDropped.Add(dropped)
	if len(frames) == 0 {
		return
	}
	if res.status == BinStatusOK && s.cfg.SyncFollowers > 0 && s.wal != nil {
		// Replication-gated acks: hold them until SyncFollowers followers
		// prove (via their tail positions) that every record up to this
		// commit — including the originals behind any duplicates — is durable
		// off-box. Positions are WAL records, so res.pos is the log's next
		// index.
		in.syncCh <- &pendingAck{
			need:    res.pos,
			expires: time.Now().Add(s.cfg.SyncAckTimeout),
			entries: slices.Clone(frames),
			acks:    slices.Clone(acks),
		}
		return
	}
	in.woken = resolveGroup(frames, acks, in.woken)
}

// runSyncResolver releases replication-gated acks. Pending groups form a
// FIFO — commit order makes both `need` and `expires` monotone — so only the
// head ever needs examining. A group whose deadline passes without enough
// follower coverage degrades: the client treats the updates as not applied
// and replays them (locally they ARE durable; the dedup table absorbs the
// replay), which converts "leader committed but replication stalled" into
// at-least-once delivery with exactly-once application.
func (in *ingest) runSyncResolver() {
	s := in.s
	defer close(in.syncDone)
	var queue []*pendingAck
	var woken []*ackQueue
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	release := func(p *pendingAck) {
		woken = resolveGroup(p.entries, p.acks, woken)
	}
	degrade := func(p *pendingAck, timedOut bool) {
		if timedOut {
			s.h.syncAckTimeouts.Inc()
		}
		pos := p.acks[len(p.acks)-1].Pos
		for i, e := range p.entries {
			p.acks[i] = BinAck{Pos: pos, Dropped: uint32(len(e.ups)), Status: BinStatusDegraded}
		}
		woken = resolveGroup(p.entries, p.acks, woken)
	}
	for {
		k := s.cfg.SyncFollowers
		for len(queue) > 0 && s.marks.kth(k) >= queue[0].need {
			release(queue[0])
			queue[0] = nil
			queue = queue[1:]
		}
		now := time.Now()
		for len(queue) > 0 && now.After(queue[0].expires) {
			degrade(queue[0], true)
			queue[0] = nil
			queue = queue[1:]
		}
		if len(queue) > 0 {
			timer.Reset(time.Until(queue[0].expires))
		} else {
			timer.Reset(time.Hour)
		}
		select {
		case p := <-in.syncCh:
			queue = append(queue, p)
		case <-s.marks.notify:
		case <-timer.C:
		case <-in.syncQuit:
			// Shutdown: the commit loop has exited, so syncCh receives no
			// more sends; degrade everything still gated (clients replay to
			// the successor; dedup absorbs).
			for {
				select {
				case p := <-in.syncCh:
					queue = append(queue, p)
					continue
				default:
				}
				break
			}
			for _, p := range queue {
				degrade(p, false)
			}
			return
		}
	}
}

// shutdown flushes and stops ingest: refuse new writes, stop accepting
// connections, commit everything queued, release or degrade gated acks, then
// cut every connection's reads and wait until each has written its last
// acks and closed. A connection is never closed under acks its writer has
// yet to write. Idempotent; called from Server.Drain before the final
// checkpoint, so that checkpoint covers every accepted write.
func (in *ingest) shutdown() {
	in.stopOnce.Do(func() {
		in.connMu.Lock()
		in.close()
		for ln := range in.lns {
			ln.Close()
		}
		in.connMu.Unlock()
		<-in.done
		if in.syncQuit != nil {
			close(in.syncQuit)
			<-in.syncDone
		}
		// A read deadline in the past ends each reader's loop without
		// touching the writer; the write deadline bounds a peer that no
		// longer reads.
		in.connMu.Lock()
		for c := range in.conns {
			c.SetReadDeadline(time.Now())
			c.SetWriteDeadline(time.Now().Add(drainAckGrace))
		}
		in.connMu.Unlock()
		in.live.Wait()
	})
}

// drainCut reports whether a read failed because shutdown cut the
// connection: the end of the stream, not a bad frame.
func drainCut(err error) bool { return errors.Is(err, os.ErrDeadlineExceeded) }

// ServeBinary accepts binary-protocol ingest connections on ln until the
// listener closes (or Drain begins) and blocks for the duration — run it on
// its own goroutine. Followers accept connections too, answering each hello
// with a single NotLeader ack — a failover-aware client cycles through its
// address list instead of hanging, so the daemon always runs the listener.
func (s *Server) ServeBinary(ln net.Listener) error {
	in := s.in
	in.connMu.Lock()
	if in.isClosed() {
		in.connMu.Unlock()
		ln.Close()
		return nil
	}
	in.lns[ln] = struct{}{}
	in.connMu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if in.isClosed() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go in.handleConn(c)
	}
}

// handleConn runs one binary connection: a reader goroutine decodes frames
// and submits them, a writer goroutine streams acks back in frame order.
// The connection's ackQueue is both the ack order and the pipeline window.
func (in *ingest) handleConn(c net.Conn) {
	s := in.s
	in.connMu.Lock()
	if in.isClosed() { // accepted as drain began: shutdown will not cut it
		in.connMu.Unlock()
		c.Close()
		return
	}
	in.conns[c] = struct{}{}
	in.live.Add(1)
	in.connMu.Unlock()
	defer func() {
		in.connMu.Lock()
		delete(in.conns, c)
		in.connMu.Unlock()
		c.Close()
		in.live.Done()
	}()
	s.h.binConns.Inc()

	br := bufio.NewReaderSize(c, 64<<10)
	var hello [len(BinHello2)]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil || string(hello[:]) != BinHello2 {
		if !drainCut(err) {
			s.h.binBadFrames.Inc()
		}
		return
	}
	if s.isFollower() {
		buf := AppendBinAck(nil, BinAck{Pos: s.applied.Load(), Status: BinStatusNotLeader})
		c.Write(buf)
		return
	}

	q := newAckQueue(pipelineDepth)
	written := make(chan struct{})
	go func() {
		defer close(written)
		q.writeAcks(c)
	}()

	var ups []graph.Update
	var payload []byte
	var sid, seq uint64
	for {
		var err error
		ups, payload, sid, seq, err = ReadBinFrameSession(br, ups[:0], payload)
		if err != nil {
			if err != io.EOF && !drainCut(err) {
				// Malformed frame or torn read: the stream is desynced. Ack
				// the failure, behind every frame still pending, so the client
				// can tell; then close.
				s.h.binBadFrames.Inc()
				e := new(entry)
				q.admit(e)
				q.resolve(e, BinAck{Pos: s.applied.Load(), Status: BinStatusBadFrame})
			}
			break
		}
		s.h.binFrames.Inc()
		e := &entry{ups: slices.Clone(ups), sid: sid, seq: seq}
		q.admit(e)
		if !in.submit(e) {
			q.resolve(e, BinAck{Pos: s.applied.Load(), Dropped: uint32(len(e.ups)), Status: BinStatusDraining})
			break
		}
	}
	q.close()
	<-written
}
