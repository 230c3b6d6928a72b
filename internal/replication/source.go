package replication

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"cisgraph/internal/resilience"
)

// Source serves a leader's segmented WAL and checkpoint to followers. It is
// mounted by the serving layer; every handler is read-only with respect to
// engine state and safe to call concurrently with ingestion.
type Source struct {
	WAL *resilience.SegmentedWAL
	// CheckpointPath is the leader's checkpoint file; served verbatim so the
	// follower verifies the same CRC envelope the leader fsynced.
	CheckpointPath string
	FS             resilience.FS
	// LongPoll bounds how long ServeTail parks a caught-up follower before
	// answering 204. Defaults to 10s.
	LongPoll time.Duration
	// Draining, if set, short-circuits long polls during shutdown.
	Draining func() bool
	// Epoch reports this node's leadership epoch; stamped on every
	// response. Nil means epoch 0 (pre-epoch deployments).
	Epoch func() uint64
	// OnPeerEpoch, if set, is told the epoch a requesting peer advertised
	// when it is HIGHER than ours — the signal that this node was deposed
	// while it was not looking. The serving layer demotes on it.
	OnPeerEpoch func(peer uint64)
	// OnTailFrom, if set, observes each tail request's resume position: a
	// follower asking for records from N has everything below N durable
	// locally (promotable followers fsync before applying). The serving
	// layer uses these marks to gate sync-replicated acks. peer identifies
	// the follower by the host of its remote address.
	OnTailFrom func(peer string, from uint64)
}

// tailMaxBytes bounds one tail response's record payload bytes; a lagging
// follower catches up over several polls.
const tailMaxBytes = 4 << 20

// epoch returns the node's current leadership epoch.
func (s *Source) epoch() uint64 {
	if s.Epoch == nil {
		return 0
	}
	return s.Epoch()
}

// fence stamps the response with our epoch and rejects requests from peers
// fenced AHEAD of us: a follower that has seen epoch E refuses to tail a
// leader still at E-1 — and symmetrically, a deposed leader must not serve
// its stale log as authoritative. The 412 carries our epoch so the peer
// can prove the comparison; OnPeerEpoch lets the serving layer demote.
// Returns false when the request was rejected.
func (s *Source) fence(w http.ResponseWriter, r *http.Request) bool {
	own := s.epoch()
	w.Header().Set(HeaderEpoch, strconv.FormatUint(own, 10))
	hdr := r.Header.Get(HeaderEpoch)
	if hdr == "" {
		return true
	}
	peer, err := strconv.ParseUint(hdr, 10, 64)
	if err != nil {
		http.Error(w, "bad "+HeaderEpoch+" header", http.StatusBadRequest)
		return false
	}
	if peer > own {
		if s.OnPeerEpoch != nil {
			s.OnPeerEpoch(peer)
		}
		http.Error(w, fmt.Sprintf("peer epoch %d fences this node (epoch %d): deposed leader", peer, own),
			http.StatusPreconditionFailed)
		return false
	}
	return true
}

// segmentsResponse is the JSON body of /v1/repl/segments.
type segmentsResponse struct {
	Next     uint64                   `json:"next"`
	Oldest   uint64                   `json:"oldest"`
	Segments []resilience.SegmentInfo `json:"segments"`
}

// ServeSegments answers the live segment listing: next/oldest indexes plus
// per-segment first-index, size, and sealed state.
func (s *Source) ServeSegments(w http.ResponseWriter, r *http.Request) {
	if !s.fence(w, r) {
		return
	}
	resp := segmentsResponse{
		Next:     s.WAL.NextIndex(),
		Oldest:   s.WAL.OldestIndex(),
		Segments: s.WAL.SegmentInfos(),
	}
	w.Header().Set(HeaderNext, strconv.FormatUint(resp.Next, 10))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// ServeCheckpoint streams the leader's checkpoint envelope verbatim.
// 404 means no checkpoint has been written yet — a follower then starts
// from the leader's initial topology at index 0.
func (s *Source) ServeCheckpoint(w http.ResponseWriter, r *http.Request) {
	if !s.fence(w, r) {
		return
	}
	data, err := s.fs().ReadFile(s.CheckpointPath)
	if err != nil {
		if os.IsNotExist(err) || s.CheckpointPath == "" {
			http.Error(w, "no checkpoint yet", http.StatusNotFound)
			return
		}
		http.Error(w, fmt.Sprintf("read checkpoint: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set(HeaderNext, strconv.FormatUint(s.WAL.NextIndex(), 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

// ServeTail answers GET /v1/repl/tail?from=N with the records starting at
// N, encoded by resilience.AppendRecord. Responses:
//
//	200  records from N up to tailMaxBytes, written through one buffer
//	     flushed once per response
//	204  caught up — the request long-polled LongPoll without new records
//	409  from > next: the follower is ahead of this leader's log
//	410  records at N were deleted by retention — re-bootstrap
//	412  the requester's epoch fences this node — it was deposed
//
// Every response carries X-CISGraph-Repl-Next and X-CISGraph-Epoch. The
// handler bounds itself (long-poll deadline + request context); mount it
// WITHOUT a timeout wrapper, whose deadline a long poll would outlast.
func (s *Source) ServeTail(w http.ResponseWriter, r *http.Request) {
	if !s.fence(w, r) {
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		http.Error(w, "bad from parameter", http.StatusBadRequest)
		return
	}
	if s.OnTailFrom != nil {
		host := r.RemoteAddr
		if h, _, splitErr := net.SplitHostPort(host); splitErr == nil {
			host = h
		}
		s.OnTailFrom(host, from)
	}
	longPoll := s.LongPoll
	if longPoll <= 0 {
		longPoll = 10 * time.Second
	}
	deadline := time.Now().Add(longPoll)
	for {
		next := s.WAL.NextIndex()
		w.Header().Set(HeaderNext, strconv.FormatUint(next, 10))
		if from > next {
			http.Error(w, fmt.Sprintf("follower at %d is ahead of leader log (next %d)", from, next), http.StatusConflict)
			return
		}
		if from < next {
			break // records available
		}
		if s.Draining != nil && s.Draining() {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if time.Now().After(deadline) {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(5 * time.Millisecond):
		}
	}

	recs, err := s.WAL.ReadFrom(from, tailMaxBytes)
	if err != nil {
		if errors.Is(err, resilience.ErrCompacted) {
			http.Error(w, err.Error(), http.StatusGone)
			return
		}
		http.Error(w, fmt.Sprintf("read wal: %v", err), http.StatusInternalServerError)
		return
	}
	if len(recs) == 0 {
		// Raced retention between NextIndex and ReadFrom.
		http.Error(w, "records compacted", http.StatusGone)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriterSize(w, 64<<10)
	var buf []byte
	for _, rec := range recs {
		buf = resilience.AppendRecord(buf[:0], rec)
		if _, err := bw.Write(buf); err != nil {
			return // follower went away; it will reconnect
		}
	}
	_ = bw.Flush() // a failed write means the follower went away; it reconnects
}

func (s *Source) fs() resilience.FS {
	if s.FS != nil {
		return s.FS
	}
	return resilience.OsFS{}
}
