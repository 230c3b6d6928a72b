package server

import (
	"fmt"
	"time"

	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
)

// origin says how far along the durability path a run of records already
// is. Besides record shape (which only picks how client records are
// sanitized) it is the only thing the commit stage branches on.
type origin uint8

const (
	// fromClient records (a batcher body, CGBIN/2 updates) are durable
	// nowhere yet: they pass every admission step.
	fromClient origin = iota
	// fromLeader records come off the follower tail, sanitized and durable on
	// the leader: they skip fence, breaker, dedup check and sanitize, and are
	// appended to the local log at the index the leader gave them.
	fromLeader
	// fromLog records are WAL replay: durable here already, they skip every
	// admission step, the append and the checkpoint cadence.
	fromLog
)

// verdict is what one commit did with one single-update client record.
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
	err     error  // why a follower record could not be applied
}

// commit is the one write stage every front feeds (DESIGN.md §10.2): the
// batcher (one record per body), the CGBIN/2 reader (one record per update),
// the follower tail and WAL replay. It runs the fixed order once —
//
//	fence → breaker → dedup → sanitize → WAL append → dedup advance →
//	pool apply → position/publish/counters → checkpoint
//
// — branching only on origin and, for client records, on record shape: one
// multi-update record is sanitized as a batch, a run of single-update
// records per update. Whatever the shape, the clean updates reach the engine
// as one batch (pool.ApplyBatch). There is one topology: sanitize validates
// against the pool's own graph, which holds the pre-commit topology until
// the pool apply mutates it. Every applied record is one stream position, so
// a position is a WAL record on every path. verdicts, when non-nil, receives
// each record's fate when client records are sanitized per update (the
// binary front's acks).
func (s *Server) commit(o origin, recs []resilience.Record, verdicts []verdict) commitResult {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	perUpdate := len(recs) > 1 || len(recs[0].Batch) == 1
	switch o {
	case fromClient:
		offered := len(recs)
		if !perUpdate {
			offered = len(recs[0].Batch)
		}
		// A node deposed while these records waited must not commit them:
		// followers take writes only from the replication tail.
		if s.isFollower() {
			return s.refuse(BinStatusNotLeader, offered, perUpdate, nil)
		}
		// Degraded mode (§12.2): what cannot be made durable is never applied,
		// or served answers would run ahead of what a crash replay rebuilds.
		if s.brk.Open() {
			return s.refuse(BinStatusDegraded, offered, perUpdate, nil)
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
	var clean []graph.Update
	out := recs
	switch {
	case o == fromClient && perUpdate:
		ss := s.san.Stream(topo)
		clean = s.clean[:0]
		s.dups = s.dedup.dupRun(recs, s.dups)
		// out stays recs itself until a record is left out; only then are
		// the survivors copied, so a clean group is never held twice.
		shared := true
		for i, rec := range recs {
			v := vDropped
			switch {
			case s.dups[i]:
				v = vDuplicate
				s.h.dedupHits.Inc()
			case ss.Check(rec.Batch[0]) == "":
				v = vApplied
				clean = append(clean, rec.Batch[0])
			}
			switch {
			case v == vApplied && !shared:
				out = append(out, rec)
			case v != vApplied && shared:
				out, shared = append(s.out[:0], recs[:i]...), false
			}
			if verdicts != nil {
				verdicts[i] = v
			}
		}
		s.clean = clean
		if !shared {
			s.out = out
		}
	case o == fromClient:
		// A batcher body: untagged, so there is nothing to dedup. Reject and
		// strict policies refuse the whole body.
		c, _, err := s.san.Sanitize(topo, recs[0].Batch)
		if err != nil {
			s.setLastErr(err)
		}
		out = s.out[:0]
		if len(c) > 0 {
			clean, out = c, append(out, resilience.Record{Batch: c})
			s.out = out
		}
	default:
		// Leader and log records were sanitized before they were logged.
		clean = s.clean[:0]
		for _, rec := range recs {
			clean = append(clean, rec.Batch...)
		}
		s.clean = clean
	}
	if len(out) == 0 {
		return commitResult{status: BinStatusOK, pos: s.applied.Load()}
	}

	if o != fromLog && s.wal != nil {
		if _, err := s.wal.AppendRecords(out); err != nil {
			s.brk.Trip(err)
			err = fmt.Errorf("server: wal append failed (%d updates dropped, degraded): %w", len(clean), err)
			s.setLastErr(err)
			return s.refuse(BinStatusDegraded, len(clean), perUpdate, err)
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
	res := commitResult{status: BinStatusOK, pos: pos, applied: len(out)}
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

// refuse counts updates turned away un-applied — fenced, breaker open, or
// not made durable — and reports why. A refused body also counts as a
// dropped batch.
func (s *Server) refuse(status uint32, updates int, perUpdate bool, err error) commitResult {
	s.h.dropUpdates.Add(int64(updates))
	if !perUpdate {
		s.h.dropBatches.Inc()
	}
	return commitResult{status: status, pos: s.applied.Load(), err: err}
}
