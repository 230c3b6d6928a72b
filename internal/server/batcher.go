package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"cisgraph/internal/graph"
)

// Errors returned by Batcher.Offer.
var (
	// ErrQueueFull reports that the bounded ingest queue cannot take the
	// offered updates (HTTP 429 + Retry-After at the API).
	ErrQueueFull = errors.New("server: ingest queue full")
	// ErrDraining reports that the batcher no longer accepts updates
	// because shutdown has begun (HTTP 503 at the API).
	ErrDraining = errors.New("server: draining, not accepting updates")
)

// CutReason records why a batch was cut from the gathering window.
type CutReason int

const (
	// CutSize: the window reached BatchMaxSize updates.
	CutSize CutReason = iota
	// CutTimer: BatchMaxWait elapsed with a non-empty window.
	CutTimer
	// CutDrain: shutdown flushed the remaining window.
	CutDrain
)

// String names the reason (used for counters and logs).
func (r CutReason) String() string {
	switch r {
	case CutSize:
		return "size"
	case CutTimer:
		return "timer"
	case CutDrain:
		return "drain"
	default:
		return "unknown"
	}
}

// Batcher is the server-side ingestion pipeline: concurrent producers Offer
// updates into a bounded queue; a gather goroutine cuts time-or-size-bounded
// batches from it (the paper's batch-gathering window); an applier goroutine
// runs the apply callback one batch at a time.
//
// The two goroutines preserve the paper's delayed-work overlap: while the
// applier is inside apply() — which for CISO-family engines includes the
// delayed deletions processed after the early answer — the gather loop keeps
// accumulating and can cut the *next* batch, so gathering batch N+1 overlaps
// the tail of batch N exactly as the accelerator overlaps delayed updates
// with the next gathering phase (PAPER.md). At most one cut batch waits in
// the hand-off buffer; everything else stays in the queue where size
// accounting applies.
type Batcher struct {
	maxSize int
	maxWait time.Duration
	cap     int
	apply   func(batch []graph.Update, reason CutReason)

	mu       sync.Mutex
	pending  []graph.Update
	draining bool

	notify  chan struct{} // capacity 1: "pending changed"
	drainCh chan struct{} // closed once when Drain begins
	applyCh chan cutBatch // capacity 1: the single in-flight hand-off
	done    chan struct{} // closed when the applier exits

	outstanding atomic.Int64 // batches cut but not yet fully applied
	drainOnce   sync.Once
}

type cutBatch struct {
	batch  []graph.Update
	reason CutReason
}

// NewBatcher starts the gather and apply goroutines. apply is called from a
// single goroutine, one batch at a time, in cut order.
func NewBatcher(maxSize int, maxWait time.Duration, capacity int,
	apply func(batch []graph.Update, reason CutReason)) *Batcher {
	b := &Batcher{
		maxSize: maxSize,
		maxWait: maxWait,
		cap:     capacity,
		apply:   apply,
		notify:  make(chan struct{}, 1),
		drainCh: make(chan struct{}),
		applyCh: make(chan cutBatch, 1),
		done:    make(chan struct{}),
	}
	go b.gatherLoop()
	go b.applyLoop()
	return b
}

// Offer appends all of ups to the ingest queue, or none of them: when they
// do not fit it returns ErrQueueFull and the queue is untouched, so an
// update once accepted is never dropped. Offer never blocks.
func (b *Batcher) Offer(ups []graph.Update) error {
	if len(ups) == 0 {
		return nil
	}
	b.mu.Lock()
	if b.draining {
		b.mu.Unlock()
		return ErrDraining
	}
	if len(ups) > b.cap-len(b.pending) {
		b.mu.Unlock()
		return ErrQueueFull
	}
	b.pending = append(b.pending, ups...)
	b.mu.Unlock()
	select {
	case b.notify <- struct{}{}:
	default:
	}
	return nil
}

// Pending reports the number of queued (not yet cut) updates.
func (b *Batcher) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// Quiesced reports that no update is queued, cut, or being applied — the
// published answers fully reflect every accepted update.
func (b *Batcher) Quiesced() bool {
	b.mu.Lock()
	n := len(b.pending)
	b.mu.Unlock()
	return n == 0 && b.outstanding.Load() == 0
}

// Drain stops accepting updates, flushes the remaining window through the
// apply callback, and returns when the applier has finished. Idempotent.
func (b *Batcher) Drain() {
	b.drainOnce.Do(func() {
		b.mu.Lock()
		b.draining = true
		b.mu.Unlock()
		close(b.drainCh)
	})
	<-b.done
}

// take cuts the next batch under the window rules: a full window always
// cuts; a partial window cuts when forced (timer) or draining. Returns nil
// when nothing should be cut yet.
func (b *Batcher) take(force bool) (batch []graph.Update, reason CutReason) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.pending)
	if n == 0 {
		return nil, 0
	}
	switch {
	case n >= b.maxSize:
		n, reason = b.maxSize, CutSize
	case b.draining:
		reason = CutDrain
	case force:
		reason = CutTimer
	default:
		return nil, 0
	}
	batch = append([]graph.Update(nil), b.pending[:n]...)
	b.pending = b.pending[:copy(b.pending, b.pending[n:])]
	b.outstanding.Add(1)
	return batch, reason
}

// gatherLoop owns the batching window: it cuts every size-ready batch
// immediately, arms the window timer whenever a partial window exists, and
// flushes everything on drain before closing the hand-off channel.
func (b *Batcher) gatherLoop() {
	defer close(b.applyCh)
	var timer *time.Timer
	var timerC <-chan time.Time
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
		}
		timerC = nil
	}
	for {
		// Cut everything that is ready right now (size cuts, or any
		// remainder while draining).
		for {
			batch, reason := b.take(false)
			if batch == nil {
				break
			}
			stopTimer() // a cut closes the current window
			b.applyCh <- cutBatch{batch, reason}
		}
		b.mu.Lock()
		n, draining := len(b.pending), b.draining
		b.mu.Unlock()
		if draining && n == 0 {
			stopTimer()
			return
		}
		if n > 0 && timerC == nil {
			timer = time.NewTimer(b.maxWait)
			timerC = timer.C
		}
		select {
		case <-b.notify:
		case <-timerC:
			timerC = nil
			if batch, reason := b.take(true); batch != nil {
				b.applyCh <- cutBatch{batch, reason}
			}
		case <-b.drainCh:
			// Loop around: draining take() cuts the remainder.
		}
	}
}

// applyLoop is the single writer: one batch at a time, in cut order.
func (b *Batcher) applyLoop() {
	defer close(b.done)
	for cb := range b.applyCh {
		b.apply(cb.batch, cb.reason)
		b.outstanding.Add(-1)
	}
}
