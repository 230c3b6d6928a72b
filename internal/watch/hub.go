// Package watch implements the answer-subscription hub (DESIGN.md §15): a
// fan-out point between the single commit pipeline and any number of
// subscribers that want to be told, per commit, which registered queries'
// answers changed — instead of polling /v1/answers and re-reading O(Q)
// state to find the handful of moved values.
//
// The hub is deliberately dumb about transport: the server's /v1/watch
// handler owns SSE/long-poll encoding; the hub owns subscription lifetime,
// per-subscriber bounded queues, and the slow-consumer protocol.
//
// Slow-consumer protocol: every send is non-blocking. A subscriber whose
// queue is full when a commit fans out is marked lost — its queued messages
// stay intact, but everything after the overflow is dropped until a resync
// marker fits in the queue. The marker tells the client its view has a gap:
// re-read the full answer state (GET /v1/answers), then resume applying
// deltas. This is safe because publication order is snapshot-first: by the
// time any subscriber sees a message for position P, /v1/answers already
// serves position >= P, so a re-read never loses the dropped changes.
package watch

import (
	"errors"
	"sync"
	"sync/atomic"

	"cisgraph/internal/algo"
)

// Event is one query whose answer changed in a commit.
type Event struct {
	// ID is the query's pool-global registration id.
	ID int
	// Value is the post-commit answer.
	Value algo.Value
}

// Msg is one queue entry delivered to a subscriber.
type Msg struct {
	// Pos is the global stream position after the commit (for deltas) or
	// the position the subscriber must re-read at (for resync markers).
	Pos uint64
	// TsNano is the commit's wall-clock stamp (UnixNano), taken by the
	// publisher; clients measure commit→delivery latency against it. Zero
	// on resync markers.
	TsNano int64
	// Resync marks a gap: the subscriber missed messages (queue overflow)
	// or the whole answer state was rebuilt (follower re-bootstrap). The
	// client must re-read /v1/answers before trusting further deltas.
	Resync bool
	// Events lists the subscriber-relevant answer changes, ascending ID.
	// Empty on resync markers. The slice is shared among subscribers with
	// the same view — receivers must not mutate it.
	Events []Event
}

// Hub fans commit deltas out to subscribers. One Hub serves one server
// (leader or follower); the commit pipeline is the only publisher.
type Hub struct {
	mu     sync.Mutex
	subs   map[*Sub]struct{}
	closed bool

	// Monotonic stats, exported on /metrics.
	nSubs    atomic.Int64  // current subscriber count (gauge)
	delivers atomic.Uint64 // delta messages enqueued across all subscribers
	drops    atomic.Uint64 // messages dropped by the slow-consumer protocol
	resyncs  atomic.Uint64 // resync markers enqueued
}

// Sub is one subscription. Receive from C until it closes (hub shut down or
// Cancel called); call Cancel exactly once when done.
type Sub struct {
	// C delivers messages in commit order. Closed by Cancel/Close.
	C      chan Msg
	hub    *Hub
	filter func(id int) bool
	lost   bool // under hub.mu: overflowed; owes the client a resync marker
	done   bool // under hub.mu: channel closed (Cancel or hub Close)
}

// New builds an empty hub.
func New() *Hub {
	return &Hub{subs: make(map[*Sub]struct{})}
}

// Subscription refusals.
var (
	ErrClosed = errors.New("watch: hub closed")
	ErrFull   = errors.New("watch: subscriber limit reached")
)

// SubscribeMax registers a subscriber with a queue of buf messages (min 1)
// unless the hub already holds limit subscribers (limit ≤ 0: no cap). filter
// selects the query ids this subscriber cares about; nil means all. The cap
// is checked and the subscriber counted in one step under h.mu, so
// concurrent callers cannot overshoot it. It fails with ErrClosed once the
// hub is closed (server draining) and with ErrFull at the cap.
func (h *Hub) SubscribeMax(limit, buf int, filter func(id int) bool) (*Sub, error) {
	if buf < 1 {
		buf = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if limit > 0 && len(h.subs) >= limit {
		return nil, ErrFull
	}
	s := &Sub{C: make(chan Msg, buf), hub: h, filter: filter}
	h.subs[s] = struct{}{}
	h.nSubs.Add(1)
	return s, nil
}

// Subscribe is SubscribeMax with no cap: it returns nil when the hub is
// closed. The daemon's /v1/watch handler subscribes through SubscribeMax;
// the benchmark's stage replay (benchmark/stage.go) uses this form.
func (h *Hub) Subscribe(buf int, filter func(id int) bool) *Sub {
	s, _ := h.SubscribeMax(0, buf, filter)
	return s
}

// Cancel removes the subscription and closes its channel. Idempotent; safe
// concurrently with Publish.
func (s *Sub) Cancel() {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if s.done {
		return
	}
	s.done = true
	delete(h.subs, s)
	h.nSubs.Add(-1)
	close(s.C)
}

// Publish fans one commit's answer changes out to every matching
// subscriber. events must be in ascending ID order (the pool's delta order);
// the hub slices it per filter. Callers publish AFTER the answer snapshot
// for pos is readable, so resync re-reads can never miss these changes.
func (h *Hub) Publish(pos uint64, tsNano int64, events []Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || len(h.subs) == 0 {
		return
	}
	for s := range h.subs {
		ev := events
		if s.filter != nil {
			ev = filterEvents(events, s.filter)
			if len(ev) == 0 && !s.lost {
				continue // commit is invisible to this subscriber
			}
		}
		if s.lost {
			// Owes a resync; the pending marker supersedes these events
			// (the client's re-read covers them).
			h.trySend(s, Msg{Pos: pos, Resync: true})
			continue
		}
		if len(ev) == 0 {
			continue
		}
		h.trySend(s, Msg{Pos: pos, TsNano: tsNano, Events: ev})
	}
}

// ResyncAll marks every subscriber's view stale — used after a follower
// re-bootstrap rebuilds the whole answer state without a per-query delta.
// Subscribers whose marker does not fit stay lost and get it on a later
// publish.
func (h *Hub) ResyncAll(pos uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for s := range h.subs {
		s.lost = true
		h.trySend(s, Msg{Pos: pos, Resync: true})
	}
}

// trySend enqueues without blocking, running the slow-consumer protocol on
// overflow. Caller holds h.mu.
func (h *Hub) trySend(s *Sub, m Msg) {
	select {
	case s.C <- m:
		if m.Resync {
			s.lost = false
			h.resyncs.Add(1)
		} else {
			h.delivers.Add(1)
		}
	default:
		s.lost = true
		h.drops.Add(1)
	}
}

// Close shuts the hub down: every subscriber's channel closes after its
// queued messages drain, and future Subscribe calls return nil. Idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		if !s.done {
			s.done = true
			close(s.C)
		}
	}
	h.nSubs.Store(0)
	h.subs = map[*Sub]struct{}{}
}

// Subscribers returns the current subscriber count.
func (h *Hub) Subscribers() int64 { return h.nSubs.Load() }

// Delivered returns the cumulative delta messages enqueued.
func (h *Hub) Delivered() uint64 { return h.delivers.Load() }

// Dropped returns the cumulative messages dropped on slow consumers.
func (h *Hub) Dropped() uint64 { return h.drops.Load() }

// Resynced returns the cumulative resync markers enqueued.
func (h *Hub) Resynced() uint64 { return h.resyncs.Load() }

// filterEvents returns the subset of events matching f (shared prefix fast
// path: when everything matches, the original slice is returned unsliced).
func filterEvents(events []Event, f func(id int) bool) []Event {
	for i, e := range events {
		if !f(e.ID) {
			// First miss: copy the matching remainder.
			out := append([]Event(nil), events[:i]...)
			for _, e2 := range events[i+1:] {
				if f(e2.ID) {
					out = append(out, e2)
				}
			}
			return out
		}
	}
	return events
}
