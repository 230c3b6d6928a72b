package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/replication"
	"cisgraph/internal/resilience"
)

// StartFollower builds a read replica (DESIGN.md §13): it bootstraps from
// the leader's latest checkpoint (or, when the leader has none yet, from
// init — which must produce the same initial topology the leader started
// from), then tails the leader's WAL on a background goroutine, applying
// each verified record through the same commit stage as the leader. The
// follower serves reads immediately; Drain stops the tail before flushing.
//
// With cfg.WALPath set the follower is PROMOTABLE (DESIGN.md §17): every
// replicated record is appended and fsynced to a local WAL BEFORE it is
// applied, so the follower's tail position proves local durability (the
// leader gates sync acks on it) and Promote can seal the log at its durable
// prefix and take over. cfg.PromoteOnLeaderLoss arms the watchdog that does
// this automatically.
//
// The tail goroutine is the follower's single writer. Replica divergence is
// impossible by construction: every applied record carries the CRC the
// leader fsynced, and indices are applied strictly in order.
func StartFollower(a algo.Algorithm, cfg Config, init func() (*graph.Dynamic, error)) (*Server, error) {
	cfg = cfg.WithDefaults()
	if cfg.FollowURL == "" {
		return nil, errors.New("server: StartFollower requires FollowURL")
	}
	leader, err := replication.LeaderURL(cfg.FollowURL)
	if err != nil {
		return nil, err
	}
	cfg.FollowURL = leader
	client := &http.Client{}
	g, queries, sessions, through, epoch, err := fetchBootstrap(client, leader, init, 30*time.Second)
	if err != nil {
		return nil, err
	}
	s, err := build(g, a, queries, through, cfg, false, epoch)
	if err != nil {
		return nil, err
	}
	// The follower inherits the leader's exactly-once session table so that,
	// if promoted, it refuses the same replayed updates the old leader would
	// have (records past the checkpoint re-advance it via the tail below).
	s.dedup.load(sessions)
	s.lastSyncNano.Store(time.Now().UnixNano())
	// Persist a local bootstrap checkpoint right away: a promotable
	// follower's own WAL starts at `through`, so everything below it must be
	// coverable from local disk the moment a sibling tails us post-promotion.
	if cfg.WALPath != "" && cfg.CheckpointPath != "" {
		if cerr := s.writeCheckpoint(); cerr != nil {
			s.setLastErr(cerr)
		}
	}
	tail := replication.NewTailer(replication.TailerConfig{
		Leader:      leader,
		LongPoll:    cfg.ReplLongPoll,
		BackoffBase: cfg.ReplBackoffBase,
		BackoffMax:  cfg.ReplBackoffMax,
		Seed:        cfg.ReplSeed,
		Client:      client,
	})
	tail.Apply = s.applyReplicated
	tail.Rebootstrap = func() (uint64, error) { return s.rebootstrapFromLeader(client, tail.Leader()) }
	tail.OnStatus = s.onReplStatus
	tail.Epoch = s.Epoch
	tail.OnStaleLeader = func(uint64) (string, bool) { p, ok := leaderAmong(s.probePeers(), s.Epoch()); return p.url, ok }
	tail.OnRepoint = s.setLeader
	s.tail = tail
	ctx, cancel := context.WithCancel(context.Background())
	s.tailStop = cancel
	s.tailDone = make(chan struct{})
	go func() {
		defer close(s.tailDone)
		if terr := tail.Run(ctx, s.applied.Load()); terr != nil && ctx.Err() == nil {
			s.setLastErr(fmt.Errorf("server: replication tail stopped: %w", terr))
		}
	}()
	if cfg.PromoteOnLeaderLoss {
		go s.runPromotionWatchdog(ctx)
	}
	return s, nil
}

// errNoCheckpoint distinguishes "leader is healthy but has not checkpointed
// yet" (bootstrap from init at index 0) from transport failures (retry).
var errNoCheckpoint = errors.New("leader has no checkpoint")

// fetchBootstrap retries the checkpoint fetch until `wait` elapses, so a
// follower started moments before its leader still comes up.
func fetchBootstrap(client *http.Client, leader string, init func() (*graph.Dynamic, error), wait time.Duration) (*graph.Dynamic, []core.Query, []dedupSession, uint64, uint64, error) {
	deadline := time.Now().Add(wait)
	for {
		g, queries, sessions, through, epoch, err := fetchCheckpoint(client, leader)
		switch {
		case err == nil:
			return g, queries, sessions, through, epoch, nil
		case errors.Is(err, errNoCheckpoint):
			if init == nil {
				return nil, nil, nil, 0, 0, errors.New("server: leader has no checkpoint and no init topology was supplied")
			}
			g, ierr := init()
			if ierr != nil {
				return nil, nil, nil, 0, 0, ierr
			}
			return g, nil, nil, 0, epoch, nil
		}
		if time.Now().After(deadline) {
			return nil, nil, nil, 0, 0, fmt.Errorf("server: bootstrap from %s: %w", leader, err)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// fetchCheckpoint downloads and verifies the leader's checkpoint envelope —
// the same CRC-checked CGRC format the leader fsyncs to disk — and reports
// the leader's epoch: the checkpoint's stamp, or the response's
// X-CISGraph-Epoch header when the leader promoted after its last
// checkpoint (whichever is higher). On 404 the header epoch still comes
// back so a fresh-log bootstrap adopts the right fence.
func fetchCheckpoint(client *http.Client, leader string) (*graph.Dynamic, []core.Query, []dedupSession, uint64, uint64, error) {
	resp, err := client.Get(leader + replication.PathCheckpoint)
	if err != nil {
		return nil, nil, nil, 0, 0, err
	}
	defer resp.Body.Close()
	hdrEpoch, _ := strconv.ParseUint(resp.Header.Get(replication.HeaderEpoch), 10, 64)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return nil, nil, nil, 0, hdrEpoch, errNoCheckpoint
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return nil, nil, nil, 0, 0, fmt.Errorf("checkpoint fetch: leader answered %s", resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, nil, 0, 0, err
	}
	through, ckptEpoch, payload, err := resilience.DecodeCheckpointMeta(data)
	if err != nil {
		return nil, nil, nil, 0, 0, err
	}
	epoch := ckptEpoch
	if hdrEpoch > epoch {
		epoch = hdrEpoch
	}
	g, queries, sessions, err := decodeState(payload)
	if err != nil {
		return nil, nil, nil, 0, 0, err
	}
	return g, queries, sessions, through, epoch, nil
}

// applyReplicated is the follower tail's front, invoked by the tailer for
// each verified record in strict index order. Through the commit stage a
// promotable follower appends-and-fsyncs the record to its local WAL BEFORE
// applying it: the next tail request's `from` then proves everything below
// it durable here, which is exactly what the leader's sync-ack gate relies
// on.
func (s *Server) applyReplicated(rec resilience.Record) error {
	return s.commit(fromLeader, []resilience.Record{rec}, nil).err
}

// rebootstrapFromLeader reloads follower state from the leader's current
// checkpoint after a retention race (410) or a leader that restarted
// behind us (409). The follower's registered query set is preserved —
// client-held ids stay valid — and every answer recomputes against the
// checkpoint topology before the tail resumes at the returned index. A
// promotable follower's local WAL is reset to start at the new position
// (its old records are below the checkpoint we just adopted), keeping WAL
// indices identical to stream positions.
func (s *Server) rebootstrapFromLeader(client *http.Client, leader string) (uint64, error) {
	g, _, sessions, through, epoch, err := fetchCheckpoint(client, leader)
	if err != nil {
		return 0, fmt.Errorf("server: re-bootstrap: %w", err)
	}
	// The swap is a write like any commit: under the commit lock, so a
	// checkpoint never encodes a half-swapped (topology, position) pair.
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	casMax(&s.epoch, epoch)
	if s.wal != nil {
		if rerr := s.wal.ResetTo(through, s.Epoch()); rerr != nil {
			return 0, fmt.Errorf("server: re-bootstrap: %w", rerr)
		}
	}
	s.edges.Store(int64(g.NumEdges()))
	s.pool.Rebootstrap(g) // the pool adopts g as its topology
	s.applied.Store(through)
	s.dedup.load(sessions)
	// Every answer may have moved without a per-query delta: watchers must
	// re-read. The marker carries the re-bootstrap position.
	s.hub.ResyncAll(through)
	if s.wal != nil && s.cfg.CheckpointPath != "" {
		// The reset WAL no longer covers anything below `through`; the local
		// checkpoint must, or a sibling tailing us post-promotion would find
		// a hole.
		if cerr := s.writeCheckpointLocked(); cerr != nil {
			s.setLastErr(cerr)
		}
	}
	s.setLastErr(fmt.Errorf("server: re-bootstrapped from leader checkpoint through batch %d", through))
	return through, nil
}

// onReplStatus records connectivity and lag after every tail poll, and
// adopts the leader's epoch (a follower carries its leader's fence, so a
// deposed ex-leader cannot feed it). The staleness clock (lastSyncNano)
// advances only while connected AND caught up — a partitioned or lagging
// follower's staleness grows until it heals.
func (s *Server) onReplStatus(st replication.Status) {
	if st.LeaderNext > 0 {
		s.leaderNext.Store(st.LeaderNext)
	}
	if st.Connected {
		casMax(&s.epoch, st.LeaderEpoch)
	}
	s.replConnected.Store(st.Connected)
	if st.Connected && s.applied.Load() >= s.leaderNext.Load() {
		s.lastSyncNano.Store(time.Now().UnixNano())
	}
}
