package server

import (
	"net/http"
	"strconv"
	"time"
)

// HTTP-path overload protection (DESIGN.md §12.3): every /v1/* endpoint is
// wrapped in gate → deadline. The gate bounds concurrently executing
// requests and sheds the excess with 429 before they can pile onto the
// ingest queue; the deadline wraps http.TimeoutHandler, so a handler that
// overruns gets 503 while its request context is cancelled. /healthz and
// /metrics bypass the gate and run under the same deadline: operators must
// be able to observe a saturated server.

// inflightGate is a counting semaphore over in-flight requests.
type inflightGate chan struct{}

// withGate admits the request if a slot is free and sheds it with 429 +
// Retry-After otherwise. Shedding is immediate (no queueing): a client told
// to retry later is cheaper than a goroutine parked on a saturated server.
func (s *Server) withGate(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.gate <- struct{}{}:
			defer func() { <-s.gate }()
			h.ServeHTTP(w, r)
		default:
			s.h.inflightShed.Inc()
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests,
				"server at max in-flight requests, retry later")
		}
	})
}

// withDeadline bounds the handler to d: the request context carries the
// deadline (http.TimeoutHandler cancels it on expiry) and the client gets a
// JSON 503. Timeouts are counted per endpoint via elapsed time — a 503
// that took the full budget is a deadline kill, not a refusal.
func (s *Server) withDeadline(d time.Duration, h http.Handler) http.Handler {
	th := http.TimeoutHandler(h, d, `{"error":"request deadline exceeded"}`)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		th.ServeHTTP(w, r)
		if time.Since(start) >= d {
			s.h.timeouts.Inc()
		}
	})
}

// retryAfter stamps the standard backoff hint on 429/503 responses.
func retryAfter(w http.ResponseWriter, seconds int) {
	w.Header().Set("Retry-After", strconv.Itoa(seconds))
}
