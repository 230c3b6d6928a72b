package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// Leadership transitions (DESIGN.md §17). The epoch is the fencing token:
// a single uint64 stamped into WAL segment headers and checkpoint metadata,
// exchanged on every replication request, and bumped by exactly one action —
// promotion. Fencing invariants:
//
//  1. A node never accepts replication streams from a peer with a LOWER
//     epoch (Tailer-side fence), and never serves its log as authoritative
//     to a peer that has proven a HIGHER epoch (Source-side 412).
//  2. Promotion seals the follower's log at its durable prefix (stopping
//     the tail goroutine removes the only writer), THEN bumps the epoch
//     past every epoch this node has ever observed, so two nodes can race
//     to promote but the cluster converges on the highest epoch: the loser
//     demotes the moment any request carries the winner's epoch.
//  3. A deposed leader that comes back does not need to be told: the first
//     replication request it serves or poll it makes carries a higher
//     epoch, and it demotes to follower before committing anything.

// Epoch returns the node's current leadership epoch.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// LeaderURL returns the base URL of the leader this node defers writes to
// ("" on leaders, and on followers that have not yet located one).
func (s *Server) LeaderURL() string {
	if p := s.curLeader.Load(); p != nil {
		return *p
	}
	return ""
}

func (s *Server) setLeader(url string) { s.curLeader.Store(&url) }

// casMax advances a monotone atomic to v if v is higher.
func casMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// onPeerEpoch handles a replication peer proving an epoch above ours — the
// signal that this node was deposed while it was not looking (invariant 3).
func (s *Server) onPeerEpoch(peer uint64) {
	casMax(&s.maxPeerEpoch, peer)
	if peer > s.epoch.Load() && !s.isFollower() {
		s.demote(peer)
	}
}

// demote turns a deposed leader into a write-refusing follower. The commit
// stage checks the flag under the commit lock, so no client write commits
// after the flip. Locating the new leader — to populate
// 421 Locations — happens asynchronously; until then writes are refused with
// "leader unknown".
func (s *Server) demote(peerEpoch uint64) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.isFollower() {
		return
	}
	s.followerFlag.Store(true)
	s.setLeader("")
	s.h.demotions.Inc()
	s.setLastErr(fmt.Errorf("server: demoted: peer proved epoch %d above ours (%d)", peerEpoch, s.epoch.Load()))
	go func() {
		if leader, ok := s.findLeader(peerEpoch); ok {
			s.setLeader(leader)
		}
	}()
}

// Promote turns this follower into the leader: stop tailing (sealing the
// local WAL at its durable prefix — the tail goroutine was its only writer),
// bump the epoch past everything this node has ever observed, reopen the WAL
// under the new epoch, and start accepting writes. Idempotent: promoting a
// leader reports promoted=false. Returns the node's (possibly new) epoch.
func (s *Server) Promote() (uint64, bool, error) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.draining.Load() {
		return s.epoch.Load(), false, errors.New("server: promote: draining")
	}
	if !s.isFollower() {
		return s.epoch.Load(), false, nil
	}
	if s.wal == nil {
		return s.epoch.Load(), false, errors.New("server: promote: follower has no local WAL (start it with -wal to make it promotable)")
	}
	// Stop the tail loop and wait for the goroutine: after this the durable
	// prefix is final and no replicated record can interleave with writes.
	if s.tailStop != nil {
		s.tailStop()
		<-s.tailDone
	}
	epoch := s.epoch.Load()
	if mp := s.maxPeerEpoch.Load(); mp > epoch {
		epoch = mp
	}
	epoch++
	if err := s.wal.BumpEpoch(epoch); err != nil {
		return s.epoch.Load(), false, fmt.Errorf("server: promote: %w", err)
	}
	s.epoch.Store(epoch)
	s.followerFlag.Store(false)
	s.setLeader("")
	s.replConnected.Store(false)
	s.h.promotions.Inc()
	// Persist the new epoch immediately: a crash right after promotion must
	// come back fenced at (at least) this epoch. Best-effort — the WAL
	// segment header already carries it. Writes are open from here on, so
	// the checkpoint takes the commit lock like every checkpoint outside
	// commit.
	if err := s.writeCheckpoint(); err != nil {
		s.setLastErr(err)
	}
	return epoch, true, nil
}

// handlePromote is POST /v1/admin/promote: the operator (or a sibling's
// watchdog, or the chaos harness) orders this follower to take over.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	epoch, promoted, err := s.Promote()
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"promoted": promoted,
		"epoch":    epoch,
		"role":     s.Role(),
	})
}

// findLeader probes the configured peer list for a node serving as leader at
// minEpoch or above, returning the best (highest-epoch) match. Used to
// re-point after a failover and to avoid split promotion in the watchdog.
func (s *Server) findLeader(minEpoch uint64) (string, bool) {
	client := &http.Client{Timeout: time.Second}
	var bestURL string
	var bestEpoch uint64
	found := false
	for _, peer := range s.cfg.Peers {
		if peer == "" || peer == s.cfg.AdvertiseURL {
			continue
		}
		resp, err := client.Get(peer + "/healthz")
		if err != nil {
			continue
		}
		var h struct {
			Role  string `json:"role"`
			Epoch uint64 `json:"epoch"`
		}
		derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h)
		resp.Body.Close()
		if derr != nil || h.Role != "leader" || h.Epoch < minEpoch {
			continue
		}
		if !found || h.Epoch > bestEpoch {
			bestURL, bestEpoch, found = peer, h.Epoch, true
		}
	}
	return bestURL, found
}

// anyLongerFollower reports whether some peer follower has applied more of
// the stream than this node. The watchdog defers self-promotion to it —
// longest-log-wins, the Raft vote restriction in miniature: with
// SyncFollowers=k an acked update is only guaranteed durable on k followers,
// so promoting a shorter log could discard updates the dead leader acked.
// The longest follower never defers, so exactly one node acts.
func (s *Server) anyLongerFollower() bool {
	client := &http.Client{Timeout: time.Second}
	mine := s.applied.Load()
	for _, peer := range s.cfg.Peers {
		if peer == "" || peer == s.cfg.AdvertiseURL {
			continue
		}
		resp, err := client.Get(peer + "/healthz")
		if err != nil {
			continue
		}
		var h struct {
			Role    string `json:"role"`
			Batches uint64 `json:"batches"`
		}
		derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h)
		resp.Body.Close()
		if derr == nil && h.Role == "follower" && h.Batches > mine {
			return true
		}
	}
	return false
}

// promotionRank orders the followers deterministically for watchdog
// promotion: this node's position in cfg.Peers, not counting the node
// currently believed to be leader. Rank r waits PromoteAfter×(r+1) before
// acting, so the preferred successor (first surviving peer in the shared
// list) almost always wins and the others discover it instead of racing.
func (s *Server) promotionRank() int {
	leader := s.LeaderURL()
	rank := 0
	for _, peer := range s.cfg.Peers {
		if peer == leader {
			continue
		}
		if peer == s.cfg.AdvertiseURL {
			return rank
		}
		rank++
	}
	return rank
}

// runPromotionWatchdog is the -promote-on-leader-loss loop: while this node
// is a follower, watch replication connectivity; after the leader has been
// unreachable for this node's patience window, either re-point to a peer
// that already promoted or promote ourselves. Exits once the node stops
// being a follower (promoted, or drained).
func (s *Server) runPromotionWatchdog(ctx context.Context) {
	tick := s.cfg.PromoteAfter / 8
	if tick < 50*time.Millisecond {
		tick = 50 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	var lostSince time.Time
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		if s.draining.Load() || !s.isFollower() {
			return
		}
		if s.replConnected.Load() {
			lostSince = time.Time{}
			continue
		}
		if lostSince.IsZero() {
			lostSince = time.Now()
			continue
		}
		patience := s.cfg.PromoteAfter * time.Duration(s.promotionRank()+1)
		if time.Since(lostSince) < patience {
			continue
		}
		// Before grabbing leadership, check whether a better-ranked peer beat
		// us to it — repointing is always cheaper than a competing epoch.
		if leader, ok := s.findLeader(s.Epoch() + 1); ok {
			s.setLeader(leader)
			if s.tail != nil {
				s.tail.Repoint(leader)
			}
			lostSince = time.Time{}
			continue
		}
		if s.anyLongerFollower() {
			continue // it holds acked records we might not; let it act first
		}
		if _, promoted, err := s.Promote(); err != nil {
			s.setLastErr(fmt.Errorf("server: watchdog promote: %w", err))
			lostSince = time.Time{} // re-arm; conditions may heal
		} else if promoted {
			return
		}
	}
}
