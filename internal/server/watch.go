package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"cisgraph/internal/core"
	"cisgraph/internal/watch"
)

// /v1/watch — answer subscription endpoint (DESIGN.md §15).
//
// The response is a server-sent event stream of `event: <type>` /
// `data: <json>` frames until the client disconnects or the server drains;
// a client that reconnects resumes with ?from=<pos>.
//
// Event types: "init" opens every subscription with the current stream
// position (and resync=true when the client's ?from is behind it — the
// client must GET /v1/answers before trusting deltas); "delta" carries one
// commit's changed answers; "resync" marks a gap (slow consumer or follower
// re-bootstrap) after which the client must re-read /v1/answers.
//
// Filters: ?id=<query id> follows one query; ?src=<vertex> follows every
// query with that source (including ones registered after the subscription);
// no filter follows everything.

// watchDeltaJSON is the wire form of one changed answer.
type watchDeltaJSON struct {
	ID    int       `json:"id"`
	Value WireValue `json:"value"`
}

// watchEventJSON is the wire form of every /v1/watch event.
type watchEventJSON struct {
	// Pos is the global stream position the event describes.
	Pos uint64 `json:"pos"`
	// Ts is the commit's UnixNano stamp (delta events only): clients
	// measure commit→delivery latency as now-ts.
	Ts int64 `json:"ts,omitempty"`
	// Resync tells the client to re-read /v1/answers before continuing.
	Resync bool `json:"resync,omitempty"`
	// Changed lists the commit's relevant answer movements, ascending id.
	Changed []watchDeltaJSON `json:"changed,omitempty"`
}

// publishWatch fans one commit's changed answers out to watch subscribers.
// Runs on the commit path AFTER the pool snapshot and s.applied reflect pos,
// preserving the hub's resync guarantee. With no subscribers it is two
// atomic loads.
func (s *Server) publishWatch(pos uint64, changed []core.ChangedAnswer) {
	if len(changed) == 0 || s.hub.Subscribers() == 0 {
		return
	}
	events := make([]watch.Event, len(changed))
	for i, ca := range changed {
		events[i] = watch.Event{ID: ca.Index, Value: ca.Value}
	}
	s.hub.Publish(pos, time.Now().UnixNano(), events)
}

// watchFilter builds the subscriber's id filter from the request, reading
// the live pool snapshot so src filters cover queries registered after the
// subscription. The second return is a human-readable parse error.
func (s *Server) watchFilter(r *http.Request) (func(int) bool, string) {
	q := r.URL.Query()
	idStr, srcStr := q.Get("id"), q.Get("src")
	switch {
	case idStr != "" && srcStr != "":
		return nil, "id and src filters are mutually exclusive"
	case idStr != "":
		id, err := strconv.Atoi(idStr)
		if err != nil || id < 0 {
			return nil, fmt.Sprintf("bad id %q", idStr)
		}
		return func(i int) bool { return i == id }, ""
	case srcStr != "":
		src64, err := strconv.ParseUint(srcStr, 10, 32)
		if err != nil {
			return nil, fmt.Sprintf("bad src %q", srcStr)
		}
		src := uint32(src64)
		pool := s.pool
		return func(i int) bool {
			qs := pool.Answers().Queries
			return i < len(qs) && qs[i].S == src
		}, ""
	default:
		return nil, ""
	}
}

func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	s.stampReplHeaders(w)
	if s.rejectIfTooStale(w, r) {
		return
	}
	if s.draining.Load() {
		s.h.watchRejected.Inc()
		httpError(w, http.StatusServiceUnavailable, "draining, not accepting subscriptions")
		return
	}
	filter, perr := s.watchFilter(r)
	if perr != "" {
		httpError(w, http.StatusBadRequest, perr)
		return
	}
	var from uint64
	haveFrom := false
	if f := r.URL.Query().Get("from"); f != "" {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad from %q", f))
			return
		}
		from, haveFrom = v, true
	}

	// Subscribe BEFORE reading the position: a commit between the position
	// read and the subscription would otherwise be lost. The inverse order
	// (subscribe, then read) at worst delivers a delta the init position
	// already covers, which the client de-duplicates by pos.
	sub, err := s.hub.SubscribeMax(maxWatchers, watchQueue, filter)
	if err != nil {
		s.h.watchRejected.Inc()
		if errors.Is(err, watch.ErrFull) {
			retryAfter(w, 1)
			httpError(w, http.StatusTooManyRequests,
				fmt.Sprintf("watch subscriber limit %d reached", maxWatchers))
			return
		}
		httpError(w, http.StatusServiceUnavailable, "draining, not accepting subscriptions")
		return
	}
	defer sub.Cancel()
	s.h.watchConns.Inc()
	pos := s.applied.Load()
	// A client resuming from an older (or, after a leader reset, newer)
	// position missed commits it cannot recover from the stream: tell it to
	// re-read the full answer state first.
	needResync := haveFrom && from != pos
	s.watchSSE(w, r, sub, pos, needResync)
}

// watchSSE streams events until the client goes away or the hub closes
// (drain). The handler runs outside the TimeoutHandler, so the Flusher is
// the real connection.
func (s *Server) watchSSE(w http.ResponseWriter, r *http.Request, sub *watch.Sub, pos uint64, needResync bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	// An SSE stream is deliberately unbounded: lift the server-wide
	// WriteTimeout off this connection only (a transport without deadlines
	// has none to lift).
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if !writeSSE(w, "init", watchEventJSON{Pos: pos, Resync: needResync}) {
		return
	}
	fl.Flush()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case m, okc := <-sub.C:
			if !okc {
				// Drain: tell the client the stream ended cleanly.
				writeSSE(w, "bye", watchEventJSON{Pos: s.applied.Load()})
				fl.Flush()
				return
			}
			if !writeSSE(w, sseType(m), sseBody(m)) {
				return
			}
			// Coalesce whatever is already queued into this flush.
			for {
				select {
				case m2, ok2 := <-sub.C:
					if !ok2 {
						writeSSE(w, "bye", watchEventJSON{Pos: s.applied.Load()})
						fl.Flush()
						return
					}
					if !writeSSE(w, sseType(m2), sseBody(m2)) {
						return
					}
				default:
					fl.Flush()
					goto next
				}
			}
		next:
		}
	}
}

func sseType(m watch.Msg) string {
	if m.Resync {
		return "resync"
	}
	return "delta"
}

func sseBody(m watch.Msg) watchEventJSON {
	ev := watchEventJSON{Pos: m.Pos, Ts: m.TsNano, Resync: m.Resync}
	if len(m.Events) > 0 {
		ev.Changed = make([]watchDeltaJSON, len(m.Events))
		for i, e := range m.Events {
			ev.Changed[i] = watchDeltaJSON{ID: e.ID, Value: WireValue(e.Value)}
		}
	}
	return ev
}

// writeSSE emits one `event:`/`data:` frame; false means the client is gone.
func writeSSE(w http.ResponseWriter, typ string, body watchEventJSON) bool {
	data, err := json.Marshal(body)
	if err != nil {
		return false
	}
	_, werr := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", typ, data)
	return werr == nil
}
