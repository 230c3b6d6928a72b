// Package server turns the CISGraph engine library into a long-running
// network service: an HTTP/JSON API over a multi-query engine, fed by
// one group-committing ingest queue that mirrors the paper's batch
// gathering, wrapped in the resilience envelope (sanitized ingest, WAL,
// atomic checkpoints, graceful drain). DESIGN.md §10 documents the
// architecture.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/replication"
	"cisgraph/internal/resilience"
	"cisgraph/internal/stats"
	"cisgraph/internal/watch"
)

// Server-side counter names, rendered by GET /metrics alongside the merged
// engine counters.
const (
	// CntUpdatesAccepted counts updates admitted into the ingest queue (JSON)
	// or applied from it (CGBIN/2).
	CntUpdatesAccepted = "srv_updates_accepted"
	// CntPostsRejected counts POST /v1/updates requests refused by
	// backpressure (queue full), degraded mode, a follower or drain.
	CntPostsRejected = "srv_posts_rejected"
	// CntBatchesApplied counts batches that went through the full
	// sanitize→WAL→apply pipeline.
	CntBatchesApplied = "srv_batches_applied"
	// CntUpdatesApplied counts sanitized updates applied to the engines.
	CntUpdatesApplied = "srv_updates_applied"
	// CntCutSize counts JSON bodies committed, each one record of its group.
	CntCutSize = "srv_batch_cut_size"
	// CntQueriesRegistered counts POST /v1/query registrations.
	CntQueriesRegistered = "srv_queries_registered"
	// CntBatchDegraded counts batches during which at least one query
	// degraded (recovered panic) inside the engine.
	CntBatchDegraded = "srv_batch_degraded"
	// CntCheckpoints counts checkpoints written (periodic + drain).
	CntCheckpoints = "srv_checkpoints"
	// CntInflightShed counts requests shed with 429 by the in-flight gate.
	CntInflightShed = "srv_inflight_shed"
	// CntRequestTimeouts counts requests killed by the per-endpoint deadline.
	CntRequestTimeouts = "srv_request_timeouts"
	// CntBodyTooLarge counts POSTs refused with 413 (body over maxBodyBytes).
	CntBodyTooLarge = "srv_body_too_large"
	// CntBatchesDroppedDegraded / CntUpdatesDroppedDegraded count batches
	// (and the updates inside them) discarded because the disk breaker was
	// open or the WAL append failed: an un-durable batch is never applied,
	// keeping served answers consistent with the durable prefix.
	CntBatchesDroppedDegraded = "srv_batches_dropped_degraded"
	CntUpdatesDroppedDegraded = "srv_updates_dropped_degraded"
	// CntWALSegmentsDeleted counts WAL segments removed by
	// checkpoint-coordinated retention.
	CntWALSegmentsDeleted = "srv_wal_segments_deleted"
	// CntStaleReadsRejected counts follower reads refused with 503 because
	// the replica's staleness exceeded the client's X-CISGraph-Max-Staleness
	// bound.
	CntStaleReadsRejected = "srv_stale_reads_rejected"
	// CntFastGroups / CntFastUpdates count group commits of the ingest
	// queue that applied something, and the updates they applied.
	CntFastGroups  = "srv_fastpath_groups"
	CntFastUpdates = "srv_fastpath_updates"
	// CntFastDropped counts fast-path updates refused by the sanitizer.
	CntFastDropped = "srv_fastpath_dropped"
	// CntBinConns / CntBinFrames / CntBinBadFrames count binary-protocol
	// ingest connections, well-formed frames, and protocol violations.
	CntBinConns     = "srv_binary_conns"
	CntBinFrames    = "srv_binary_frames"
	CntBinBadFrames = "srv_binary_bad_frames"
	// CntWatchConns counts /v1/watch subscriptions accepted.
	CntWatchConns = "srv_watch_conns"
	// CntWatchRejected counts /v1/watch subscriptions shed (MaxWatchers cap
	// or draining).
	CntWatchRejected = "srv_watch_rejected"
	// CntAnswersCacheHits / CntAnswersCacheMisses count /v1/answers full
	// listings served from (or rebuilding) the per-position encoded body.
	CntAnswersCacheHits   = "srv_answers_cache_hits"
	CntAnswersCacheMisses = "srv_answers_cache_misses"
	// CntDedupHits counts fast-path updates recognized as duplicates of
	// already-accepted (session, seq) records and skipped — the exactly-once
	// resume path absorbing a client replay (DESIGN.md §17).
	CntDedupHits = "srv_dedup_hits"
	// CntSyncAckTimeouts counts replication-gated fast-path acks refused
	// Degraded because no follower passed the commit within SyncAckTimeout.
	CntSyncAckTimeouts = "srv_sync_ack_timeouts"
	// CntPromotions / CntDemotions count leadership transitions on this node.
	CntPromotions = "srv_promotions"
	CntDemotions  = "srv_demotions"
)

// Server is the cisgraphd serving core: it owns the ingestion pipeline and
// the query pool — whose one engine's graph is the one authoritative
// topology (QueryPool.Topology) — and exposes them over HTTP.
//
// Concurrency model (single-writer/many-reader): every write goes through
// the one commit stage (commit.go), whose lock admits exactly one writer of
// the topology and the engine at a time — on a leader the ingest queue's
// commit goroutine, which takes JSON bodies and CGBIN/2 frames alike
// (ingest.go); on a follower the tail goroutine. HTTP readers
// consume the pool's atomic answer snapshot and the server's atomic gauges,
// so GET paths never contend with commit work. Query registration is the
// one cross-cutting write; it serializes against the writers on the
// engine's lock, between commits.
type Server struct {
	cfg  Config
	a    algo.Algorithm
	pool *QueryPool
	in   *ingest
	san  *resilience.Sanitizer
	wal  *resilience.SegmentedWAL
	brk  *diskBreaker
	gate inflightGate

	// commitMu serializes commit (every front) over the topology + pool +
	// WAL + position, and every checkpoint and re-bootstrap with them: the
	// topology is mutated only under it, so holding it is what lets a
	// reader encode a consistent (topology, position) pair. clean, out and
	// dups are commit's scratch, reused under it.
	commitMu sync.Mutex
	clean    []graph.Update
	out      []resilience.Record
	dups     []bool

	// applyLat records engine-side apply latency per batch-size class
	// (applylat.go); commit feeds it for every front and /healthz reports
	// the percentiles.
	applyLat applyLatRecorder

	cnt *stats.Counters
	h   srvHandles

	applied  atomic.Uint64 // stream position: WAL records applied (incl. restored)
	edges    atomic.Int64  // topology edge count, published after each commit
	draining atomic.Bool
	lastErr  atomic.Pointer[string]

	// Leadership (DESIGN.md §17). epoch is the fencing token: stamped into
	// WAL segment headers and checkpoints, exchanged on every replication
	// request, bumped by promotion. The role is DYNAMIC — a follower becomes
	// leader via Promote, and a deposed leader demotes when a peer proves a
	// higher epoch — so it lives in atomics, not in cfg.
	epoch        atomic.Uint64
	followerFlag atomic.Bool            // true while following (refusing writes)
	curLeader    atomic.Pointer[string] // current leader base URL ("" when unknown / self)
	maxPeerEpoch atomic.Uint64          // highest epoch any peer has advertised
	promoteMu    sync.Mutex             // serializes Promote/demote transitions
	dedup        *dedupTable            // exactly-once ingest session table
	marks        *followerMarks         // follower tail positions (sync acks)

	// Replication (DESIGN.md §13). Leader side: src serves the WAL.
	// Follower side: tail streams the leader's WAL into the apply path;
	// leaderNext/replConnected/lastSyncNano track lag and staleness.
	src           *replication.Source
	tail          *replication.Tailer
	tailStop      func()        // cancels the tail loop (follower Drain)
	tailDone      chan struct{} // closed when the tail goroutine exits
	leaderNext    atomic.Uint64 // leader's next WAL index, as last observed
	replConnected atomic.Bool
	lastSyncNano  atomic.Int64 // wall clock of the last confirmed caught-up poll

	// hub fans per-commit answer deltas out to /v1/watch subscribers
	// (DESIGN.md §15). Publications happen on the commit path AFTER the
	// pool snapshot and s.applied are updated, so a subscriber that re-reads
	// /v1/answers on a resync marker can never miss a published change.
	hub *watch.Hub

	// ansCache memoizes the encoded /v1/answers full-listing body for the
	// current (snapshot, position, quiesced) triple; any commit, query
	// registration or re-bootstrap changes the triple and so invalidates it.
	ansCache atomic.Pointer[ansCacheEntry]

	mux *http.ServeMux
}

// ansCacheEntry is one memoized /v1/answers body, keyed by the exact state
// it was rendered from. The snapshot pointer (not just the position) is part
// of the key: a re-bootstrap can rebuild answers at an already-seen position.
type ansCacheEntry struct {
	snap     *Snapshot
	pos      uint64
	quiesced bool
	body     []byte
}

// srvHandles pre-resolves the serving hot-path counters (DESIGN.md §9):
// accepted/applied move per update, the rest per batch or per request.
type srvHandles struct {
	accepted, rejected          stats.Handle
	batches, updates            stats.Handle
	cutSize                     stats.Handle
	registered, degraded, ckpts stats.Handle
	inflightShed, timeouts      stats.Handle
	bodyTooLarge                stats.Handle
	dropBatches, dropUpdates    stats.Handle
	walSegmentsDeleted          stats.Handle
	staleRejected               stats.Handle
	fastGroups, fastUpdates     stats.Handle
	fastDropped                 stats.Handle
	binConns, binFrames         stats.Handle
	binBadFrames                stats.Handle
	watchConns, watchRejected   stats.Handle
	ansCacheHits                stats.Handle
	ansCacheMisses              stats.Handle
	dedupHits                   stats.Handle
	syncAckTimeouts             stats.Handle
	promotions, demotions       stats.Handle
}

// New builds a server over an initial topology. The server takes its own
// clones of g; the caller keeps ownership. With cfg.WALPath set, a fresh
// WAL is created (truncating any previous one — use Restore to continue a
// previous stream).
func New(g *graph.Dynamic, a algo.Algorithm, cfg Config) (*Server, error) {
	return build(g, a, nil, 0, cfg, false, 0)
}

// Restore rebuilds a server from the durable artefacts of a previous run —
// the drain (or periodic) checkpoint plus the WAL suffix it does not cover.
// init supplies the initial topology when no
// usable checkpoint exists (nil init makes a missing checkpoint fatal).
// Each job is done once: the log is read once and only the suffix is
// decoded, the suffix is replayed into the topology while the engine holds
// no queries, and only then are the checkpoint's queries re-armed — one cold
// start per source, on the final topology. Their answers are the unique
// least fixpoint of that topology, so they are identical to the pre-restart
// ones.
func Restore(a algo.Algorithm, cfg Config, init func() (*graph.Dynamic, error)) (*Server, error) {
	cfg = cfg.WithDefaults()
	var (
		g        *graph.Dynamic
		queries  []core.Query
		sessions []dedupSession
		through  uint64
		epoch    uint64
	)
	if cfg.CheckpointPath != "" {
		covered, ckptEpoch, payload, err := resilience.ReadCheckpointMeta(cfg.CheckpointPath)
		switch {
		case err == nil:
			if g, queries, sessions, err = decodeState(payload); err != nil {
				return nil, err
			}
			through = covered
			epoch = ckptEpoch
		case os.IsNotExist(err) && init != nil:
			// Fall through to init below.
		default:
			if init == nil {
				return nil, fmt.Errorf("server: restore: %w", err)
			}
		}
	}
	if g == nil {
		if init == nil {
			return nil, errors.New("server: restore: no usable checkpoint and no init topology")
		}
		var err error
		if g, err = init(); err != nil {
			return nil, err
		}
		through = 0
	}
	// Read the WAL suffix the checkpoint does not cover: indices below
	// `through` are already inside the restored topology, so they are
	// validated but not decoded. The scan returns contiguous records, so only
	// the first can leave a gap.
	var replay []resilience.Record
	if cfg.WALPath != "" {
		var err error
		if replay, err = resilience.ReplaySegmentedFS(cfg.FS, cfg.WALPath, through); err != nil {
			return nil, fmt.Errorf("server: restore: %w", err)
		}
		if len(replay) > 0 && replay[0].Index != through {
			return nil, fmt.Errorf("server: restore: WAL gap (record %d, expected %d)",
				replay[0].Index, through)
		}
	}
	// The queries are re-armed only after the replay, so they are admitted
	// now, before anything is built (the vertex count never changes).
	if err := admitQueries(g.NumVertices(), 0, queries); err != nil {
		return nil, err
	}
	s, err := build(g, a, nil, through, cfg, true, epoch)
	if err != nil {
		return nil, err
	}
	// The exactly-once session table rebuilds exactly as it was: checkpoint
	// sessions first, then the replayed records' session tags in log order.
	s.dedup.load(sessions)
	// The replay front: the suffix goes through the commit stage in groups
	// bounded like the ingest queue's — records, whatever their shape, up to
	// groupMax updates; a record that would overflow a group starts the next
	// — one position per record.
	for i := 0; i < len(replay); {
		j, n := i+1, len(replay[i].Batch)
		for j < len(replay) && n+len(replay[j].Batch) <= groupMax {
			n += len(replay[j].Batch)
			j++
		}
		s.commit(fromLog, replay[i:j], nil)
		i = j
	}
	// The engine held no source groups through the replay, so each group
	// only normalized and mutated the topology; now every checkpoint query
	// is re-armed in id order, each source cold-starting once. They passed
	// admission above, on an empty pool of the same vertex count.
	if _, _, err := s.pool.RegisterAll(queries); err != nil {
		return nil, err
	}
	s.h.registered.Add(int64(len(queries)))
	return s, nil
}

// build assembles the server around an already-positioned topology.
// resumeWAL keeps an existing WAL and appends to it (the Restore path —
// truncating would discard the very records just replayed); a fresh start
// truncates. bootEpoch seeds the leadership epoch (checkpoint stamp on
// restore, the leader's epoch on follower bootstrap); an existing WAL's
// segment-header epoch wins when higher.
func build(g *graph.Dynamic, a algo.Algorithm, queries []core.Query, through uint64, cfg Config, resumeWAL bool, bootEpoch uint64) (*Server, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cnt := stats.NewCounters()
	s := &Server{
		cfg:  cfg,
		a:    a,
		pool: NewQueryPool(g, a, 1, engineBudget(), core.StoreDense, true),
		san:  resilience.NewSanitizer(resilience.PolicyDrop, cnt),
		cnt:  cnt,
		hub:  watch.New(),
		h: srvHandles{
			accepted:           cnt.Handle(CntUpdatesAccepted),
			rejected:           cnt.Handle(CntPostsRejected),
			batches:            cnt.Handle(CntBatchesApplied),
			updates:            cnt.Handle(CntUpdatesApplied),
			cutSize:            cnt.Handle(CntCutSize),
			registered:         cnt.Handle(CntQueriesRegistered),
			degraded:           cnt.Handle(CntBatchDegraded),
			ckpts:              cnt.Handle(CntCheckpoints),
			inflightShed:       cnt.Handle(CntInflightShed),
			timeouts:           cnt.Handle(CntRequestTimeouts),
			bodyTooLarge:       cnt.Handle(CntBodyTooLarge),
			dropBatches:        cnt.Handle(CntBatchesDroppedDegraded),
			dropUpdates:        cnt.Handle(CntUpdatesDroppedDegraded),
			walSegmentsDeleted: cnt.Handle(CntWALSegmentsDeleted),
			staleRejected:      cnt.Handle(CntStaleReadsRejected),
			fastGroups:         cnt.Handle(CntFastGroups),
			fastUpdates:        cnt.Handle(CntFastUpdates),
			fastDropped:        cnt.Handle(CntFastDropped),
			binConns:           cnt.Handle(CntBinConns),
			binFrames:          cnt.Handle(CntBinFrames),
			binBadFrames:       cnt.Handle(CntBinBadFrames),
			watchConns:         cnt.Handle(CntWatchConns),
			watchRejected:      cnt.Handle(CntWatchRejected),
			ansCacheHits:       cnt.Handle(CntAnswersCacheHits),
			ansCacheMisses:     cnt.Handle(CntAnswersCacheMisses),
			dedupHits:          cnt.Handle(CntDedupHits),
			syncAckTimeouts:    cnt.Handle(CntSyncAckTimeouts),
			promotions:         cnt.Handle(CntPromotions),
			demotions:          cnt.Handle(CntDemotions),
		},
		gate: make(inflightGate, maxInFlight),
	}
	s.applied.Store(through)
	s.edges.Store(int64(g.NumEdges()))
	s.dedup = newDedupTable(dedupSessions)
	s.marks = newFollowerMarks()
	s.followerFlag.Store(cfg.FollowURL != "")
	s.setLeader(cfg.FollowURL)
	s.epoch.Store(bootEpoch)
	if _, _, err := s.pool.RegisterAll(queries); err != nil {
		return nil, err
	}
	s.h.registered.Add(int64(len(queries)))
	if cfg.WALPath != "" {
		opts := resilience.SegWALOptions{
			SegmentBytes: cfg.WALSegmentBytes,
			FS:           cfg.FS,
			Epoch:        bootEpoch,
			StartIndex:   through,
		}
		var (
			wal *resilience.SegmentedWAL
			err error
		)
		if resumeWAL {
			wal, err = resilience.OpenSegmentedWAL(cfg.WALPath, opts)
		} else {
			wal, err = resilience.CreateSegmentedWAL(cfg.WALPath, opts)
		}
		if err != nil {
			return nil, err
		}
		s.wal = wal
		// A resumed log's active-segment epoch is authoritative when it is
		// ahead of the checkpoint's stamp (epoch bumped after the last
		// checkpoint).
		if we := wal.Epoch(); we > s.epoch.Load() {
			s.epoch.Store(we)
		}
	}
	s.brk = newDiskBreaker(s.probeDisk, cfg.DiskRetryBase, cfg.DiskRetryMax)
	s.in = newIngest(s)
	s.routes()
	return s, nil
}

// probeDisk is the breaker's health check: verify the durability path can
// take writes again. With a WAL, repairing and fsyncing the active segment
// is the authoritative probe; otherwise a scratch file next to the
// checkpoint stands in.
func (s *Server) probeDisk() error {
	if s.wal != nil {
		return s.wal.Probe()
	}
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	p := s.cfg.CheckpointPath + ".probe"
	f, err := s.cfg.FS.OpenFile(p, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("probe")); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return s.cfg.FS.Remove(p)
}

// writeCheckpoint takes the commit lock and writes a checkpoint: the path
// for every checkpoint taken outside commit (drain, promotion, follower
// bootstrap), so no commit can move the topology while it is encoded.
func (s *Server) writeCheckpoint() error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	return s.writeCheckpointLocked()
}

// writeCheckpointLocked persists the topology + query set + exactly-once
// session table through the atomic checkpoint envelope, positioned at the
// stream position and stamped with the leadership epoch. The caller holds
// commitMu.
func (s *Server) writeCheckpointLocked() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	through := s.applied.Load()
	payload := encodeState(s.pool.Topology(), s.pool.QueriesSnapshot(), s.dedup.snapshot())
	if err := resilience.WriteCheckpointMetaFS(s.cfg.FS, s.cfg.CheckpointPath, through, s.Epoch(), payload); err != nil {
		s.brk.Trip(err)
		return fmt.Errorf("server: %w", err)
	}
	s.h.ckpts.Inc()
	// Checkpoint-coordinated retention: the checkpoint now covers every
	// record with index < through, so WAL segments wholly below it are dead
	// weight — delete them.
	if s.wal != nil {
		removed, rerr := s.wal.TruncateThrough(through)
		s.h.walSegmentsDeleted.Add(int64(removed))
		if rerr != nil {
			// Retention failure doesn't invalidate the checkpoint; surface it
			// without degrading.
			s.setLastErr(fmt.Errorf("server: wal retention: %w", rerr))
		}
	}
	return nil
}

// Drain is the SIGTERM path: stop admitting updates and queries, commit
// everything queued through the engines, fsync-close the WAL, and
// write the final checkpoint. After Drain returns, published answers cover
// every accepted update and a Restore from the artefacts reproduces them
// exactly. Idempotent.
func (s *Server) Drain() error {
	s.draining.Store(true)
	// Follower: stop tailing before flushing, so the single writer is gone
	// and the final published snapshot is stable.
	if s.tailStop != nil {
		s.tailStop()
		<-s.tailDone
	}
	// The ingest queue refuses new writes, commits what it holds, then
	// closes its connections, so the final checkpoint covers every accepted
	// write.
	s.in.shutdown()
	// Every commit has been published to the hub. Closing it ends each
	// /v1/watch stream after its queued deltas drain, so subscribers observe
	// the complete stream.
	s.hub.Close()
	s.brk.Stop() // no more disk probes; a closed WAL must stay closed
	var err error
	if werr := s.writeCheckpoint(); werr != nil {
		err = joinNonNil(err, werr)
	}
	if s.wal != nil {
		// Close is idempotent and flips the WAL's closed flag, so a straggling
		// breaker probe cannot resurrect a segment; s.wal itself stays set for
		// metrics readers (Segments/Bytes remain valid after close).
		if cerr := s.wal.Close(); cerr != nil {
			err = joinNonNil(err, fmt.Errorf("server: wal close: %w", cerr))
		}
	}
	return err
}

// CloseWatchers ends every /v1/watch subscription (each stream delivers its
// queued deltas, then a bye event) and refuses new ones. The daemon calls it
// from http.Server.RegisterOnShutdown: watch streams are long-lived
// connections that would otherwise hold a graceful HTTP shutdown open until
// its deadline. Idempotent; Drain also closes the hub for non-HTTP embeds.
func (s *Server) CloseWatchers() { s.hub.Close() }

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Quiesced reports that every accepted update is reflected in the published
// answers (an empty ingest queue and no group commit in flight).
func (s *Server) Quiesced() bool { return s.in.pending.Load() == 0 }

// Pool exposes the query pool (read-side: snapshots, counters).
func (s *Server) Pool() *QueryPool { return s.pool }

// Counters exposes the server's own counters (ingest, batching, lifecycle).
func (s *Server) Counters() *stats.Counters { return s.cnt }

// Applied returns the stream position: the WAL records applied since the
// stream began (including those restored from checkpoint/WAL) — one per
// update on the binary path, one per body on the JSON path.
func (s *Server) Applied() uint64 { return s.applied.Load() }

func (s *Server) setLastErr(err error) {
	msg := err.Error()
	s.lastErr.Store(&msg)
}

// LastError returns the most recent degradation message ("" when clean).
func (s *Server) LastError() string {
	if p := s.lastErr.Load(); p != nil {
		return *p
	}
	return ""
}

// ---- HTTP API ----

// Handler returns the server's HTTP handler. Per-endpoint deadlines and the
// in-flight gate are wired inside routes; the mux is served directly.
func (s *Server) Handler() http.Handler {
	return s.mux
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	d := s.cfg.RequestTimeout
	v1 := func(h http.HandlerFunc) http.Handler {
		return s.withGate(s.withDeadline(d, h))
	}
	s.mux.Handle("POST /v1/updates", v1(s.handleUpdates))
	s.mux.Handle("POST /v1/query", v1(s.handleQuery))
	s.mux.Handle("GET /v1/answers", v1(s.handleAnswers))
	// /v1/watch streams SSE, so like the replication tail it must not run
	// under the buffering TimeoutHandler or occupy an in-flight-gate slot
	// for its whole lifetime; it bounds itself via the maxWatchers cap,
	// per-subscriber queues, and the request context.
	s.mux.Handle("GET /v1/watch", http.HandlerFunc(s.handleWatch))
	// Observability endpoints bypass the gate: a saturated or degraded
	// server must stay observable. They still run under the deadline.
	s.mux.Handle("GET /healthz", s.withDeadline(d, http.HandlerFunc(s.handleHealthz)))
	s.mux.Handle("GET /metrics", s.withDeadline(d, http.HandlerFunc(s.handleMetrics)))
	// Promotion is an operator/watchdog action, not a data-plane request: it
	// bypasses the in-flight gate so a saturated follower can still fail
	// over, but keeps the deadline.
	s.mux.Handle("POST /v1/admin/promote", s.withDeadline(d, http.HandlerFunc(s.handlePromote)))
	// Replication source (nodes with a WAL: leaders, and promotable
	// followers — whose log a sibling tails after THEY promote). Segments/
	// checkpoint are ordinary bounded requests; the tail endpoint long-polls
	// and streams, so it must NOT run under the buffering TimeoutHandler —
	// it bounds itself via the long-poll deadline and the request context.
	if s.wal != nil {
		s.src = &replication.Source{
			WAL:            s.wal,
			CheckpointPath: s.cfg.CheckpointPath,
			FS:             s.cfg.FS,
			LongPoll:       s.cfg.ReplLongPoll,
			Draining:       s.Draining,
			Epoch:          s.Epoch,
			OnPeerEpoch:    s.onPeerEpoch,
			OnTailFrom:     s.marks.observe,
		}
		s.mux.Handle("GET "+replication.PathSegments, s.withDeadline(d, http.HandlerFunc(s.src.ServeSegments)))
		s.mux.Handle("GET "+replication.PathCheckpoint, s.withDeadline(d, http.HandlerFunc(s.src.ServeCheckpoint)))
		s.mux.Handle("GET "+replication.PathTail, http.HandlerFunc(s.src.ServeTail))
	}
}

// ---- Replication role, lag, and staleness (DESIGN.md §13) ----

// isFollower reports whether this server currently refuses writes and (when
// wired) replicates from a leader. Unlike cfg.FollowURL this is DYNAMIC:
// Promote clears it, and a fencing peer epoch sets it (demotion).
func (s *Server) isFollower() bool { return s.followerFlag.Load() }

// Role returns "leader" or "follower" for headers and metrics.
func (s *Server) Role() string {
	if s.isFollower() {
		return "follower"
	}
	return "leader"
}

// ReplLagBatches returns how many leader batches this follower has not yet
// applied (0 on leaders and on caught-up followers).
func (s *Server) ReplLagBatches() uint64 {
	next := s.leaderNext.Load()
	applied := s.applied.Load()
	if next <= applied {
		return 0
	}
	return next - applied
}

// Staleness returns how far behind the leader this follower's answers may
// be: zero while connected and caught up, otherwise the wall-clock time
// since the follower last confirmed it was caught up. Leaders are never
// stale.
func (s *Server) Staleness() time.Duration {
	if !s.isFollower() {
		return 0
	}
	if s.replConnected.Load() && s.ReplLagBatches() == 0 {
		return 0
	}
	last := s.lastSyncNano.Load()
	if last == 0 {
		return 0 // not yet bootstrapped; StartFollower stamps this before serving
	}
	return time.Since(time.Unix(0, last))
}

// replDegraded reports whether the follower has exceeded its configured
// staleness budget (the PR 5 degraded-mode pattern applied to replication:
// keep serving, but make the degradation loudly observable).
func (s *Server) replDegraded() bool {
	return s.isFollower() && s.cfg.MaxStaleness > 0 && s.Staleness() > s.cfg.MaxStaleness
}

// stampReplHeaders marks every read response with the node's role and
// epoch and, on followers, the staleness bound clients reason about.
func (s *Server) stampReplHeaders(w http.ResponseWriter) {
	w.Header().Set(replication.HeaderRole, s.Role())
	w.Header().Set(replication.HeaderEpoch, strconv.FormatUint(s.Epoch(), 10))
	if s.isFollower() {
		w.Header().Set(replication.HeaderStaleness,
			strconv.FormatFloat(s.Staleness().Seconds(), 'f', 3, 64))
	}
}

// rejectIfTooStale enforces a client's X-CISGraph-Max-Staleness bound
// (duration like "2s", or bare seconds). True means the request was
// answered with 503 + Retry-After and the caller must return.
func (s *Server) rejectIfTooStale(w http.ResponseWriter, r *http.Request) bool {
	bound := r.Header.Get(replication.HeaderMaxStaleness)
	if bound == "" || !s.isFollower() {
		return false
	}
	limit, err := time.ParseDuration(bound)
	if err != nil {
		if secs, ferr := strconv.ParseFloat(bound, 64); ferr == nil {
			limit = time.Duration(secs * float64(time.Second))
		} else {
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("bad %s %q (want a duration like 2s or seconds)", replication.HeaderMaxStaleness, bound))
			return true
		}
	}
	if stale := s.Staleness(); stale > limit {
		s.h.staleRejected.Inc()
		retryAfter(w, 1)
		httpError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("replica staleness %.3fs exceeds requested bound %s", stale.Seconds(), bound))
		return true
	}
	return false
}

// WireValue carries an algo.Value through JSON. Pairwise algorithms use
// ±Inf as the "unreached" answer, which bare JSON numbers cannot express;
// those (and NaN) travel as the strings "+Inf", "-Inf" and "NaN".
type WireValue float64

// MarshalJSON implements json.Marshaler.
func (v WireValue) MarshalJSON() ([]byte, error) {
	return appendWireValue(nil, v), nil
}

// appendWireValue appends v's JSON form: ±Inf and NaN as strings, every
// finite value byte for byte as encoding/json writes a float64 — shortest
// round-trip digits, exponent form outside [1e-6, 1e21), exponent without a
// leading zero.
func appendWireValue(b []byte, v WireValue) []byte {
	f := float64(v)
	switch {
	case math.IsInf(f, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(f, -1):
		return append(b, `"-Inf"`...)
	case math.IsNaN(f):
		return append(b, `"NaN"`...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *WireValue) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"+Inf"`:
		*v = WireValue(math.Inf(1))
		return nil
	case `"-Inf"`:
		*v = WireValue(math.Inf(-1))
		return nil
	case `"NaN"`:
		*v = WireValue(math.NaN())
		return nil
	}
	return json.Unmarshal(data, (*float64)(v))
}

// updateJSON is the wire form of one update.
type updateJSON struct {
	Op   string  `json:"op"` // "add" or "del"
	From uint32  `json:"from"`
	To   uint32  `json:"to"`
	W    float64 `json:"w"`
}

type updatesRequest struct {
	Updates []updateJSON `json:"updates"`
}

type updatesResponse struct {
	Accepted int `json:"accepted"`
	Pending  int `json:"pending"`
}

// Ingest scratch pools: decode buffers and the converted batch slice are the
// two per-request allocations that dominate ServerIngest profiles (the
// decoded slice alone is ~24 B/update). offer copies the batch into the
// queue, so both are safe to recycle the moment the handler returns.
var (
	updatesReqPool  = sync.Pool{New: func() any { return new(updatesRequest) }}
	ingestBatchPool = sync.Pool{New: func() any { return new([]graph.Update) }}
)

// jsonBytesPerUpdate is a conservative wire-size estimate for one update
// object ({"op":"add","from":...}), used to pre-size the decode buffer from
// Content-Length so slice growth doesn't reallocate mid-decode.
const jsonBytesPerUpdate = 40

func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	if s.isFollower() {
		// Read replica (or deposed leader): the write path lives on the
		// leader. 421 tells the client it addressed the wrong node; Location
		// points at the current leader when one is known — after a failover
		// the tailer's 421/epoch handoff keeps this fresh.
		s.h.rejected.Inc()
		s.stampReplHeaders(w)
		leader := s.LeaderURL()
		if leader != "" {
			w.Header().Set("Location", leader+"/v1/updates")
			httpError(w, http.StatusMisdirectedRequest,
				"read-only follower; send writes to the leader at "+leader)
			return
		}
		httpError(w, http.StatusMisdirectedRequest,
			"read-only follower; leader currently unknown (probe peers)")
		return
	}
	if s.brk.Open() {
		// Degraded mode: the durable-write path is failing, so new updates
		// are refused at the door while reads keep serving. Retry-After
		// matches the probe cadence ceiling.
		s.h.rejected.Inc()
		retryAfter(w, 1)
		httpError(w, http.StatusServiceUnavailable,
			"degraded: durable writes failing ("+s.brk.Reason()+"), retry later")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes) // the decoder surfaces *http.MaxBytesError: 413
	req := updatesReqPool.Get().(*updatesRequest)
	defer func() {
		req.Updates = req.Updates[:0]
		updatesReqPool.Put(req)
	}()
	req.Updates = req.Updates[:0]
	if n := r.ContentLength; n > 0 {
		if est := int(n / jsonBytesPerUpdate); cap(req.Updates) < est {
			req.Updates = make([]updateJSON, 0, est)
		}
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			s.h.bodyTooLarge.Inc()
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body over %d bytes", maxErr.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	bp := ingestBatchPool.Get().(*[]graph.Update)
	batch := (*bp)[:0]
	defer func() {
		*bp = batch[:0]
		ingestBatchPool.Put(bp)
	}()
	for i, u := range req.Updates {
		switch u.Op {
		case "add":
			batch = append(batch, graph.Add(u.From, u.To, u.W))
		case "del":
			batch = append(batch, graph.Del(u.From, u.To, u.W))
		default:
			httpError(w, http.StatusBadRequest, fmt.Sprintf("update %d: unknown op %q (want add or del)", i, u.Op))
			return
		}
	}
	// offer copies batch into the queue; the slice goes back to the pool.
	switch err := s.in.offer(batch); {
	case errors.Is(err, errDraining):
		s.h.rejected.Inc()
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, errQueueFull):
		s.h.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	s.h.accepted.Add(int64(len(batch)))
	writeJSON(w, http.StatusAccepted, updatesResponse{
		Accepted: len(batch),
		Pending:  s.in.queuedUpdates(),
	})
}

type queryRequest struct {
	S uint32 `json:"s"`
	D uint32 `json:"d"`
}

type queryResponse struct {
	ID      int       `json:"id"`
	S       uint32    `json:"s"`
	D       uint32    `json:"d"`
	Answer  WireValue `json:"answer"`
	Batches uint64    `json:"batches"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining, not accepting queries")
		return
	}
	s.stampReplHeaders(w)
	if s.rejectIfTooStale(w, r) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes) // the decoder surfaces *http.MaxBytesError: 413
	var req queryRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			s.h.bodyTooLarge.Inc()
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body over %d bytes", maxErr.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	id, ans, err := s.pool.Register(core.Query{S: req.S, D: req.D})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrQueryLimit) {
			status = http.StatusTooManyRequests
		}
		httpError(w, status, err.Error())
		return
	}
	s.h.registered.Inc()
	writeJSON(w, http.StatusOK, queryResponse{
		ID: id, S: req.S, D: req.D, Answer: WireValue(ans), Batches: s.applied.Load(),
	})
}

// answerJSON and answersResponse are the /v1/answers wire form: appendAnswers
// renders it, clients decode it.
type answerJSON struct {
	ID    int       `json:"id"`
	S     uint32    `json:"s"`
	D     uint32    `json:"d"`
	Value WireValue `json:"value"`
}

type answersResponse struct {
	Batches  uint64       `json:"batches"`
	Quiesced bool         `json:"quiesced"`
	Answers  []answerJSON `json:"answers"`
}

func (s *Server) handleAnswers(w http.ResponseWriter, r *http.Request) {
	s.stampReplHeaders(w)
	if s.rejectIfTooStale(w, r) {
		return
	}
	snap := s.pool.Answers()
	// Batches is the global stream position (s.applied), the one coordinate
	// system clients comparing replicas and restarts share.
	pos, quiesced := s.applied.Load(), s.Quiesced()
	if idStr := r.URL.Query().Get("id"); idStr != "" {
		id, err := strconv.Atoi(idStr)
		if err != nil || id < 0 || id >= len(snap.Values) {
			httpError(w, http.StatusNotFound, fmt.Sprintf("unknown query id %q", idStr))
			return
		}
		writeJSONBody(w, http.StatusOK, appendAnswers(nil, pos, quiesced, snap, id, id+1))
		return
	}
	// Full listing: serve the memoized body when nothing that feeds it has
	// moved since the last render. Between commits every poller hits the
	// cache, so polling cost no longer scales with Q × poll rate; any
	// commit, registration or re-bootstrap changes the key.
	var sizeHint int
	if e := s.ansCache.Load(); e != nil {
		if e.snap == snap && e.pos == pos && e.quiesced == quiesced {
			s.h.ansCacheHits.Inc()
			writeJSONBody(w, http.StatusOK, e.body)
			return
		}
		sizeHint = len(e.body) + 64
	}
	s.h.ansCacheMisses.Inc()
	// The cached body is shared with in-flight responses, so each render
	// takes a fresh buffer, sized from the last one.
	body := appendAnswers(make([]byte, 0, sizeHint), pos, quiesced, snap, 0, len(snap.Values))
	s.ansCache.Store(&ansCacheEntry{snap: snap, pos: pos, quiesced: quiesced, body: body})
	writeJSONBody(w, http.StatusOK, body)
}

// appendAnswers appends the /v1/answers body for answers [lo, hi) of snap:
// the bytes json.NewEncoder writes for an answersResponse, newline included,
// rendered without reflection.
func appendAnswers(b []byte, pos uint64, quiesced bool, snap *Snapshot, lo, hi int) []byte {
	b = append(b, `{"batches":`...)
	b = strconv.AppendUint(b, pos, 10)
	b = append(b, `,"quiesced":`...)
	b = strconv.AppendBool(b, quiesced)
	b = append(b, `,"answers":[`...)
	for i := lo; i < hi; i++ {
		if i > lo {
			b = append(b, ',')
		}
		q := snap.Queries[i]
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"s":`...)
		b = strconv.AppendUint(b, uint64(q.S), 10)
		b = append(b, `,"d":`...)
		b = strconv.AppendUint(b, uint64(q.D), 10)
		b = append(b, `,"value":`...)
		b = appendWireValue(b, WireValue(snap.Values[i]))
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

type healthzResponse struct {
	Status         string      `json:"status"` // "ok", "degraded" or "draining"
	DegradedReason string      `json:"degraded_reason,omitempty"`
	Role           string      `json:"role"`
	Epoch          uint64      `json:"epoch"`
	Leader         string      `json:"leader,omitempty"`
	Batches        uint64      `json:"batches"`
	Pending        int         `json:"pending"`
	Quiesced       bool        `json:"quiesced"`
	Queries        int         `json:"queries"`
	Edges          int64       `json:"edges"`
	Algorithm      string      `json:"algorithm"`
	StateMB        float64     `json:"state_mb"`
	WALSegments    int         `json:"wal_segments,omitempty"`
	WALBytes       int64       `json:"wal_bytes,omitempty"`
	Repl           *replHealth `json:"repl,omitempty"`
	// ApplyLatency is the engine-side apply-latency distribution split by
	// batch-size class (applylat.go), in ascending size order.
	ApplyLatency []ApplyLatBucket `json:"apply_latency,omitempty"`
	LastError    string           `json:"last_error,omitempty"`
}

// replHealth is the follower's replication block in /healthz.
type replHealth struct {
	LagBatches   uint64  `json:"lag_batches"`
	StalenessS   float64 `json:"staleness_s"`
	Connected    bool    `json:"connected"`
	Reconnects   uint64  `json:"reconnects"`
	Rebootstraps uint64  `json:"rebootstraps"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{
		Status:       "ok",
		Role:         s.Role(),
		Epoch:        s.Epoch(),
		Leader:       s.LeaderURL(),
		Batches:      s.applied.Load(),
		Pending:      s.in.queuedUpdates(),
		Quiesced:     s.Quiesced(),
		Queries:      s.pool.NumQueries(),
		Edges:        s.edges.Load(),
		Algorithm:    s.a.Name(),
		StateMB:      float64(s.pool.StateBytes()) / (1 << 20),
		ApplyLatency: s.applyLat.report(),
		LastError:    s.LastError(),
	}
	switch {
	case s.draining.Load():
		resp.Status = "draining"
	case s.brk.Open():
		resp.Status = "degraded"
		resp.DegradedReason = s.brk.Reason()
	case s.replDegraded():
		resp.Status = "degraded"
		resp.DegradedReason = fmt.Sprintf("replication staleness %.3fs exceeds max %s (lag %d batches)",
			s.Staleness().Seconds(), s.cfg.MaxStaleness, s.ReplLagBatches())
	}
	if s.wal != nil {
		resp.WALSegments = s.wal.Segments()
		resp.WALBytes = s.wal.Bytes()
	}
	if s.isFollower() && s.tail != nil {
		resp.Repl = &replHealth{
			LagBatches:   s.ReplLagBatches(),
			StalenessS:   s.Staleness().Seconds(),
			Connected:    s.replConnected.Load(),
			Reconnects:   s.tail.Reconnects.Load(),
			Rebootstraps: s.tail.Rebootstraps.Load(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// family is one /metrics family beside the counter set: its name, type and
// help, and its sample read at scrape time — the labels and value written
// after the name. A family whose source this node lacks (no WAL, not a
// follower) is absent, never zero-filled.
type family struct {
	name, typ, help string
	present         func(s *Server) bool // nil: on every node
	sample          func(s *Server) string
}

// num renders a plain integer sample.
func num[T int | int64 | uint64](read func(s *Server) T) func(s *Server) string {
	return func(s *Server) string { return " " + fmt.Sprint(read(s)) }
}

// bit renders a boolean as a 0/1 sample.
func bit(read func(s *Server) bool) func(s *Server) string {
	return func(s *Server) string {
		if read(s) {
			return " 1"
		}
		return " 0"
	}
}

func hasWAL(s *Server) bool  { return s.wal != nil }
func hasTail(s *Server) bool { return s.isFollower() && s.tail != nil }

// families is the /metrics exposition after the counter set, in order.
var families = []family{
	{"cisgraph_ingest_pending", "gauge", "Updates queued but not yet applied.", nil, num(func(s *Server) int { return s.in.queuedUpdates() })},
	{"cisgraph_batches_applied", "counter", "Sanitized batches applied since stream start.", nil, num(func(s *Server) uint64 { return s.applied.Load() })},
	{"cisgraph_edges", "gauge", "Current edge count of the authoritative topology.", nil, num(func(s *Server) int64 { return s.edges.Load() })},
	{"cisgraph_queries", "gauge", "Registered pairwise queries.", nil, num(func(s *Server) int { return s.pool.NumQueries() })},
	{"cisgraph_state_bytes", "gauge", "Resident source-group state (one per distinct source).", nil, num(func(s *Server) int64 { return s.pool.StateBytes() })},
	{"cisgraph_wal_segments", "gauge", "Live WAL segment files (sealed + active).", hasWAL, num(func(s *Server) int { return s.wal.Segments() })},
	{"cisgraph_wal_bytes", "gauge", "Total bytes across live WAL segments.", hasWAL, num(func(s *Server) int64 { return s.wal.Bytes() })},
	{"cisgraph_watch_subscribers", "gauge", "Active /v1/watch subscriptions.", nil, num(func(s *Server) int64 { return s.hub.Subscribers() })},
	{"cisgraph_watch_deltas", "counter", "Delta messages enqueued to watch subscribers.", nil, num(func(s *Server) uint64 { return s.hub.Delivered() })},
	{"cisgraph_watch_drops", "counter", "Watch messages dropped on slow consumers.", nil, num(func(s *Server) uint64 { return s.hub.Dropped() })},
	{"cisgraph_watch_resyncs", "counter", "Resync markers enqueued to watch subscribers.", nil, num(func(s *Server) uint64 { return s.hub.Resynced() })},
	{"cisgraph_role", "gauge", "1 for the node's replication role.", nil, func(s *Server) string { return "{role=" + strconv.Quote(s.Role()) + "} 1" }},
	{"cisgraph_epoch", "gauge", "Leadership epoch (fencing token); bumped by every promotion.", nil, num(func(s *Server) uint64 { return s.Epoch() })},
	{"cisgraph_dedup_sessions", "gauge", "Live exactly-once ingest sessions in the dedup table.", nil, num(func(s *Server) int { return s.dedup.size() })},
	{"cisgraph_repl_lag_batches", "gauge", "Leader batches not yet applied by this follower.", (*Server).isFollower, num((*Server).ReplLagBatches)},
	{"cisgraph_repl_staleness_seconds", "gauge", "Time since this follower last confirmed it was caught up.", (*Server).isFollower, func(s *Server) string { return " " + strconv.FormatFloat(s.Staleness().Seconds(), 'f', 3, 64) }},
	{"cisgraph_repl_connected", "gauge", "1 while the WAL tail connection to the leader is healthy.", (*Server).isFollower, bit(func(s *Server) bool { return s.replConnected.Load() })},
	{"cisgraph_repl_reconnects", "counter", "Tail reconnect attempts after transport failures.", hasTail, num(func(s *Server) uint64 { return s.tail.Reconnects.Load() })},
	{"cisgraph_repl_rebootstraps", "counter", "Checkpoint re-bootstraps forced by retention races or leader resets.", hasTail, num(func(s *Server) uint64 { return s.tail.Rebootstraps.Load() })},
	{"cisgraph_repl_records", "counter", "WAL records applied from the leader.", hasTail, num(func(s *Server) uint64 { return s.tail.Records.Load() })},
	{"cisgraph_repl_repoints", "counter", "Leader-URL changes (421 handoffs and watchdog discoveries).", hasTail, num(func(s *Server) uint64 { return s.tail.Repoints.Load() })},
	{"cisgraph_degraded", "gauge", "1 while the disk breaker is open (durable writes failing) or replication staleness exceeds its budget.", nil, bit(func(s *Server) bool { return s.brk.Open() || s.replDegraded() })},
	{"cisgraph_disk_breaker_trips", "counter", "Times the disk breaker opened.", nil, num(func(s *Server) int64 { return s.brk.Trips() })},
	{"cisgraph_disk_breaker_probes", "counter", "Disk probes attempted while degraded.", nil, num(func(s *Server) int64 { return s.brk.Probes() })},
}

// handleMetrics renders the counter set — the server's own stats.Handle
// cells plus the engine counters — and then every family, in Prometheus
// text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# HELP cisgraph_counter Cumulative event counters (server + engine).\n# TYPE cisgraph_counter counter\n")
	writeCounterFamily(w, "server", s.cnt.Snapshot())
	writeCounterFamily(w, "engine", s.pool.Counters().Snapshot())
	for _, f := range families {
		if f.present == nil || f.present(s) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s%s\n", f.name, f.help, f.name, f.typ, f.name, f.sample(s))
		}
	}
}

func writeCounterFamily(w http.ResponseWriter, layer string, snap map[string]int64) {
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "cisgraph_counter{layer=%q,name=%q} %d\n", layer, name, snap[name])
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeJSONBody writes an already-encoded JSON body (the answers cache).
func writeJSONBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
