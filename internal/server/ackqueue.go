package server

import (
	"io"
	"slices"
	"sync"
)

// ackQueue is one binary connection's ack pipeline (DESIGN.md §14.3): the
// frames its reader admitted, in frame order, each resolved in place by
// whoever decides its ack — the commit goroutine, the sync-ack resolver, or
// the reader itself for BadFrame and Draining — and written back by the
// connection's writer goroutine. A resolver marks every entry of a group and
// then wakes each connection once; the writer writes the whole resolved
// prefix in one write. Resolving never blocks, so a connection whose writer
// is stuck or dead cannot stall the commit goroutine.
type ackQueue struct {
	// slots is the pipeline window (pipelineDepth): one token per
	// admitted frame whose ack is not yet written.
	slots chan struct{}
	// wake (capacity 1) tells the writer an entry was resolved or the reader
	// closed; wake-ups coalesce.
	wake chan struct{}

	mu      sync.Mutex
	entries []*entry // unwritten, in frame order
	closed  bool     // the reader admits nothing more
}

func newAckQueue(depth int) *ackQueue {
	return &ackQueue{slots: make(chan struct{}, depth), wake: make(chan struct{}, 1)}
}

// admit queues e behind every frame still unwritten, blocking while the
// window is full — on a persistent connection that is the natural
// backpressure.
func (q *ackQueue) admit(e *entry) {
	q.slots <- struct{}{}
	e.q = q
	q.mu.Lock()
	q.entries = append(q.entries, e)
	q.mu.Unlock()
}

// resolve settles one entry and wakes the writer.
func (q *ackQueue) resolve(e *entry, a BinAck) {
	q.mu.Lock()
	e.ack, e.done = a, true
	q.mu.Unlock()
	q.signal()
}

// close records that the reader admits nothing more; the writer returns once
// every admitted entry is resolved and written.
func (q *ackQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.signal()
}

func (q *ackQueue) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// resolveGroup settles entries[i] with acks[i] — entries of one connection
// under one lock per consecutive run — and only then wakes every connection
// involved, once each. woken is the caller's scratch, returned for reuse.
func resolveGroup(entries []*entry, acks []BinAck, woken []*ackQueue) []*ackQueue {
	woken = woken[:0]
	for i := 0; i < len(entries); {
		q := entries[i].q
		q.mu.Lock()
		for ; i < len(entries) && entries[i].q == q; i++ {
			entries[i].ack, entries[i].done = acks[i], true
		}
		q.mu.Unlock()
		if !slices.Contains(woken, q) {
			woken = append(woken, q)
		}
	}
	for _, q := range woken {
		q.signal()
	}
	clear(woken) // the scratch pins no closed connection's queue
	return woken
}

// writeAcks is the connection's writer: on every wake-up it takes the
// resolved prefix of the queue, frees its window slots and writes its acks in
// one write — a stop-and-wait client sees its ack at once, a pipelined one
// gets a group's acks in one segment. After a write error it keeps taking
// prefixes without writing, so neither the reader (blocked on the window) nor
// any resolver waits on a dead peer. It returns once the reader has closed
// and every admitted entry is resolved.
func (q *ackQueue) writeAcks(w io.Writer) {
	var buf []byte
	failed := false
	for {
		<-q.wake
		buf = buf[:0]
		q.mu.Lock()
		n := 0
		for ; n < len(q.entries) && q.entries[n].done; n++ {
			buf = AppendBinAck(buf, q.entries[n].ack)
		}
		rest := copy(q.entries, q.entries[n:])
		clear(q.entries[rest:])
		q.entries = q.entries[:rest]
		finished := q.closed && rest == 0
		q.mu.Unlock()
		for range n {
			<-q.slots
		}
		if n > 0 && !failed {
			_, err := w.Write(buf)
			failed = err != nil
		}
		if finished {
			return
		}
	}
}
