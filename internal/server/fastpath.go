package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
)

// fpEntry is one admitted frame: its updates, the CGBIN/2 session tag of the
// first update, and its place in its connection's ack queue. ack and done are
// guarded by q.mu; an entry is resolved exactly once.
type fpEntry struct {
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
	entries []*fpEntry
	acks    []BinAck
}

// fastPath is the per-update admission front (DESIGN.md §14): binary
// connections submit frames here, a single commit goroutine gathers whatever
// is queued into one group, hands it to the commit stage as one record per
// update (one WAL write and fsync for the group) and resolves the acks. The
// stage is the batch path's; only the batch window is bypassed.
type fastPath struct {
	s    *Server
	ch   chan *fpEntry
	quit chan struct{}
	done chan struct{}

	// Sync-ack resolver (nil channels when SyncFollowers == 0).
	syncCh   chan *pendingAck
	syncQuit chan struct{}
	syncDone chan struct{}

	// pending counts admitted-but-unacked entries; Quiesced needs the fast
	// path's in-flight work, not just the batcher's.
	pending  atomic.Int64
	draining atomic.Bool
	stopOnce sync.Once

	mu    sync.Mutex
	lns   map[net.Listener]struct{}
	conns map[net.Conn]struct{}

	// Commit-goroutine-private scratch, reused across groups. carry is the
	// frame gather took from the queue but left for the next group.
	carry    *fpEntry
	group    []*fpEntry
	recs     []resilience.Record
	verdicts []verdict
	acks     []BinAck
	woken    []*ackQueue
}

func newFastPath(s *Server) *fastPath {
	f := &fastPath{
		s:     s,
		ch:    make(chan *fpEntry, s.cfg.FastPendingFrames),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	if s.cfg.SyncFollowers > 0 {
		f.syncCh = make(chan *pendingAck, 64)
		f.syncQuit = make(chan struct{})
		f.syncDone = make(chan struct{})
		go f.runSyncResolver()
	}
	go f.run()
	return f
}

// submit admits one entry; false means the server is draining and the entry
// was not queued (the caller acks BinStatusDraining itself). A full queue
// blocks — on a persistent connection that is the natural backpressure.
func (f *fastPath) submit(e *fpEntry) bool {
	if f.draining.Load() {
		return false
	}
	f.pending.Add(1)
	select {
	case f.ch <- e:
		return true
	case <-f.quit:
		f.pending.Add(-1)
		return false
	}
}

func (f *fastPath) quiesced() bool { return f.pending.Load() == 0 }

// groupMax bounds one group commit: one maximal CGBIN/2 frame of updates, a
// size the wire already admits in one piece, so a group holds no more than
// one frame could.
const groupMax = BinMaxFramePayload / BinUpdateSize

// run is the commit loop: take one entry (the previous group's carry, or the
// next frame, waiting for it), then gather everything already queued into the
// same group commit — group size adapts to load, so a lone update commits
// immediately while a burst pays one WAL write and fsync per queue drain.
// After quit it takes only what is queued, through the same carry, and
// returns once the queue is empty; submissions are already refused.
func (f *fastPath) run() {
	defer close(f.done)
	for {
		e := f.carry
		if e == nil {
			select {
			case e = <-f.ch:
			case <-f.quit:
				select {
				case e = <-f.ch:
				default:
					return
				}
			}
		}
		f.commitGroup(f.gather(e, groupMax))
	}
}

// gather collects first plus every entry already queued into the reused
// group slice, up to bound updates. The frame that would overflow the bound
// is not admitted: it becomes f.carry, the next group's first entry. A group
// exceeds bound only when first alone does.
func (f *fastPath) gather(first *fpEntry, bound int) []*fpEntry {
	f.group = append(f.group[:0], first)
	f.carry = nil
	n := len(first.ups)
	for n < bound {
		select {
		case e := <-f.ch:
			if n+len(e.ups) > bound {
				f.carry = e
				return f.group
			}
			f.group = append(f.group, e)
			n += len(e.ups)
		default:
			return f.group
		}
	}
	return f.group
}

// commitGroup turns one group into records — one per update, carrying its
// CGBIN/2 (sid, seq) — commits them, and resolves every entry's ack. Each
// accepted update is its own WAL record and stream position, so replica
// tailing and crash replay see exactly the records a sequence of
// single-update batches would have produced.
//
// Exactly-once (DESIGN.md §17): an update whose (sid, seq) the dedup table
// already holds is a client replay of something durable — the stage skips
// it (no new record, no position), and the ack counts it in Accepted,
// because from the client's perspective it IS accepted.
func (f *fastPath) commitGroup(entries []*fpEntry) {
	s := f.s
	defer f.pending.Add(-int64(len(entries)))
	recs := f.recs[:0]
	for _, e := range entries {
		for i := range e.ups {
			recs = append(recs, resilience.Record{Batch: e.ups[i : i+1], SID: e.sid, Seq: e.seq + uint64(i)})
		}
	}
	f.recs = recs
	if cap(f.verdicts) < len(recs) {
		f.verdicts = make([]verdict, len(recs))
	}
	verdicts := f.verdicts[:len(recs)]
	res := s.commit(fromClient, recs, verdicts)

	// Acks carry each entry's cumulative commit position; the snapshot is
	// published, so receiving the ack means the entry's updates are visible
	// to /v1/answers readers. Duplicates count as accepted (they are
	// durable) without advancing the position.
	pos := res.pos - uint64(res.applied)
	acks := f.acks[:0]
	var dropped int64
	for _, e := range entries {
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
			dropped += int64(ack.Dropped)
		}
		verdicts = verdicts[n:]
		acks = append(acks, ack)
	}
	f.acks = acks
	if res.applied > 0 {
		s.h.accepted.Add(int64(res.applied))
		s.h.fastGroups.Inc()
		s.h.fastUpdates.Add(int64(res.applied))
	}
	s.h.fastDropped.Add(dropped)
	if res.status == BinStatusOK && s.cfg.SyncFollowers > 0 && s.wal != nil {
		// Replication-gated acks: hold them until SyncFollowers followers
		// prove (via their tail positions) that every record up to this
		// commit — including the originals behind any duplicates — is durable
		// off-box. Positions are WAL records, so res.pos is the log's next
		// index.
		f.syncCh <- &pendingAck{
			need:    res.pos,
			expires: time.Now().Add(s.cfg.SyncAckTimeout),
			entries: append([]*fpEntry(nil), entries...),
			acks:    append([]BinAck(nil), acks...),
		}
		return
	}
	f.woken = resolveGroup(entries, acks, f.woken)
}

// runSyncResolver releases replication-gated acks. Pending groups form a
// FIFO — commit order makes both `need` and `expires` monotone — so only the
// head ever needs examining. A group whose deadline passes without enough
// follower coverage degrades: the client treats the updates as not applied
// and replays them (locally they ARE durable; the dedup table absorbs the
// replay), which converts "leader committed but replication stalled" into
// at-least-once delivery with exactly-once application.
func (f *fastPath) runSyncResolver() {
	s := f.s
	defer close(f.syncDone)
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
		case p := <-f.syncCh:
			queue = append(queue, p)
		case <-s.marks.notify:
		case <-timer.C:
		case <-f.syncQuit:
			// Shutdown: the commit loop has exited, so syncCh receives no
			// more sends; degrade everything still gated (clients replay to
			// the successor; dedup absorbs).
			for {
				select {
				case p := <-f.syncCh:
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

// shutdown flushes and stops the fast path: refuse new submissions, stop
// accepting connections, commit everything admitted, release or degrade
// gated acks, then close the remaining connections (whose writer goroutines
// are by then unblocked). Idempotent; called from Server.Drain before the
// batcher drains so the final checkpoint covers fast-path commits.
func (f *fastPath) shutdown() {
	f.stopOnce.Do(func() {
		f.draining.Store(true)
		f.mu.Lock()
		for ln := range f.lns {
			ln.Close()
		}
		f.mu.Unlock()
		close(f.quit)
		<-f.done
		if f.syncQuit != nil {
			close(f.syncQuit)
			<-f.syncDone
		}
		f.mu.Lock()
		for c := range f.conns {
			c.Close()
		}
		f.mu.Unlock()
	})
}

// ServeBinary accepts binary-protocol ingest connections on ln until the
// listener closes (or Drain begins) and blocks for the duration — run it on
// its own goroutine. Followers accept connections too, answering each hello
// with a single NotLeader ack — a failover-aware client cycles through its
// address list instead of hanging, so the daemon always runs the listener.
func (s *Server) ServeBinary(ln net.Listener) error {
	f := s.fp
	f.mu.Lock()
	if f.draining.Load() {
		f.mu.Unlock()
		ln.Close()
		return nil
	}
	f.lns[ln] = struct{}{}
	f.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if f.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go f.handleConn(c)
	}
}

// handleConn runs one binary connection: a reader goroutine decodes frames
// and submits them, a writer goroutine streams acks back in frame order.
// The connection's ackQueue is both the ack order and the pipeline window.
func (f *fastPath) handleConn(c net.Conn) {
	s := f.s
	f.mu.Lock()
	f.conns[c] = struct{}{}
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.conns, c)
		f.mu.Unlock()
		c.Close()
	}()
	s.h.binConns.Inc()

	br := bufio.NewReaderSize(c, 64<<10)
	var hello [len(BinHello2)]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil || string(hello[:]) != BinHello2 {
		s.h.binBadFrames.Inc()
		return
	}
	if s.isFollower() {
		buf := AppendBinAck(nil, BinAck{Pos: s.applied.Load(), Status: BinStatusNotLeader})
		c.Write(buf)
		return
	}

	q := newAckQueue(s.cfg.FastPipelineDepth)
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
			if err != io.EOF {
				// Malformed frame or torn read: the stream is desynced. Ack
				// the failure, behind every frame still pending, so the client
				// can tell; then close.
				s.h.binBadFrames.Inc()
				e := new(fpEntry)
				q.admit(e)
				q.resolve(e, BinAck{Pos: s.applied.Load(), Status: BinStatusBadFrame})
			}
			break
		}
		s.h.binFrames.Inc()
		e := &fpEntry{ups: append([]graph.Update(nil), ups...), sid: sid, seq: seq}
		q.admit(e)
		if !f.submit(e) {
			q.resolve(e, BinAck{Pos: s.applied.Load(), Dropped: uint32(len(e.ups)), Status: BinStatusDraining})
			break
		}
	}
	q.close()
	<-written
}
