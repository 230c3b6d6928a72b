package server

import (
	"fmt"
	"time"

	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
)

// origin says how far along the durability path a run of records already
// is. It is the only thing the commit stage branches on.
type origin uint8

const (
	// fromClient records (JSON bodies, CGBIN/2 updates) are durable nowhere
	// yet: they pass every admission step.
	fromClient origin = iota
	// fromLeader records come off the follower tail, sanitized and durable on
	// the leader: they skip fence, breaker, dedup check and sanitize, and are
	// appended to the local log at the index the leader gave them.
	fromLeader
	// fromLog records are WAL replay: durable here already, they skip every
	// admission step, the append and the checkpoint cadence.
	fromLog
)

// verdict is what one commit did with one client record.
type verdict uint8

const (
	vApplied verdict = iota
	vDuplicate
	vDropped
)

// commitResult is what a front learns from one commit.
type commitResult struct {
	status  uint32 // BinStatusOK, or why nothing was applied (NotLeader, Degraded)
	pos     uint64 // stream position after the commit
	applied int    // records applied: positions this commit advanced
	updates int    // updates applied
	err     error  // why a follower record could not be applied
}

// commit is the one write stage every front feeds (DESIGN.md §10.2): the
// ingest queue (one record per JSON body, one per CGBIN/2 update), the
// follower tail and WAL replay. It runs the fixed order once —
//
//	fence → breaker → dedup → sanitize → WAL append → dedup advance →
//	pool apply → position/publish/counters → checkpoint
//
// — branching only on origin. Client records are sanitized one way: every
// update, in record order, against the topology plus the updates accepted
// before it. A record keeps its clean updates as one record (a one-update
// record is kept or dropped), and a record left with none takes no
// position. The clean updates reach the engine as one batch
// (pool.ApplyBatch). There is one topology: sanitize validates against the
// pool's own graph, which holds the pre-commit topology until the pool
// apply mutates it. Every applied record is one stream position, so a
// position is a WAL record on every path. Leader and log records come with
// ups, their updates back to back, which the engine applies as they are
// (client records pass nil: sanitize builds theirs). verdicts, when
// non-nil, receives each client record's fate (the binary front's acks).
func (s *Server) commit(o origin, recs []resilience.Record, ups []graph.Update, verdicts []verdict) commitResult {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	switch o {
	case fromClient:
		// A node deposed while these records waited must not commit them:
		// followers take writes only from the replication tail.
		if s.isFollower() {
			return s.refuse(BinStatusNotLeader, recs, nil)
		}
		// Degraded mode (§12.2): what cannot be made durable is never applied,
		// or served answers would run ahead of what a crash replay rebuilds.
		if s.brk.Open() {
			return s.refuse(BinStatusDegraded, recs, nil)
		}
	case fromLeader:
		if want := s.applied.Load(); recs[0].Index != want {
			return commitResult{pos: want, err: fmt.Errorf("server: replicated record %d out of order (want %d)", recs[0].Index, want)}
		}
		if s.wal != nil && s.wal.NextIndex() != recs[0].Index {
			return commitResult{pos: s.applied.Load(), err: fmt.Errorf("server: local wal at %d desynced from stream record %d", s.wal.NextIndex(), recs[0].Index)}
		}
	}

	// Dedup and sanitize (client records only) leave the updates to apply in
	// clean and the records to log in out. The commit goroutine is the
	// topology's only writer, so it reads it here without the engine lock.
	topo := s.pool.Topology()
	clean := s.clean[:0]
	out := recs
	if o == fromClient {
		ss := s.san.Stream(topo)
		s.dups = s.dedup.dupRun(recs, s.dups)
		// out stays recs itself until a record is changed or left out; only
		// then are the survivors copied, so a clean group is never held
		// twice.
		shared := true
		for i, rec := range recs {
			v, kept := vDropped, rec
			if s.dups[i] {
				v = vDuplicate
				s.h.dedupHits.Inc()
			} else {
				k := len(clean)
				for _, u := range rec.Batch {
					if ss.Check(u) == "" {
						clean = append(clean, u)
					}
				}
				if n := len(clean) - k; n > 0 {
					v = vApplied
					if n < len(rec.Batch) {
						kept.Batch = clean[k:]
					}
				}
			}
			whole := v == vApplied && len(kept.Batch) == len(rec.Batch)
			if shared && !whole {
				out, shared = append(s.out[:0], recs[:i]...), false
			}
			if !shared && v == vApplied {
				out = append(out, kept)
			}
			if verdicts != nil {
				verdicts[i] = v
			}
		}
		if !shared {
			s.out = out
		}
		s.clean = clean
	} else {
		// Leader and log records were sanitized before they were logged.
		clean = ups
	}
	if len(out) == 0 {
		return commitResult{status: BinStatusOK, pos: s.applied.Load()}
	}

	if o != fromLog && s.wal != nil {
		if _, err := s.wal.AppendRecords(out); err != nil {
			s.brk.Trip(err)
			err = fmt.Errorf("server: wal append failed (%d updates dropped, degraded): %w", len(clean), err)
			s.setLastErr(err)
			return s.refuse(BinStatusDegraded, out, err)
		}
	}
	// Durable: the dedup table may now advance, in commit order, so the live
	// table always equals the one a crash replay rebuilds.
	s.dedup.advanceRun(out)

	tEng := time.Now()
	changed, perr := s.pool.ApplyBatch(clean)
	s.applyLat.record(len(clean), time.Since(tEng))
	if perr != nil {
		s.h.degraded.Inc()
		s.setLastErr(perr)
	}
	pos := s.applied.Add(uint64(len(out)))
	before := pos - uint64(len(out))
	s.publishWatch(pos, changed)
	s.edges.Store(int64(topo.NumEdges()))
	res := commitResult{status: BinStatusOK, pos: pos, applied: len(out), updates: len(clean)}
	if o == fromLog {
		return res
	}
	s.h.batches.Add(int64(len(out)))
	s.h.updates.Add(int64(len(clean)))
	// The one cadence rule: checkpoint when the position crosses a multiple
	// of CheckpointEvery.
	if n := uint64(s.cfg.CheckpointEvery); n > 0 && pos/n > before/n {
		if cerr := s.writeCheckpointLocked(); cerr != nil {
			s.setLastErr(cerr)
		}
	}
	return res
}

// refuse counts the updates of recs turned away un-applied — fenced, breaker
// open, or not made durable — and reports why. Each refused JSON body (an
// untagged record) also counts as a dropped batch.
func (s *Server) refuse(status uint32, recs []resilience.Record, err error) commitResult {
	for _, rec := range recs {
		s.h.dropUpdates.Add(int64(len(rec.Batch)))
		if rec.SID == 0 {
			s.h.dropBatches.Inc()
		}
	}
	return commitResult{status: status, pos: s.applied.Load(), err: err}
}
