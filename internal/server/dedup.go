package server

import (
	"math"
	"sort"
	"sync"

	"cisgraph/internal/resilience"
)

// dedupSession is one exactly-once ingest session: the highest sequence
// number ever accepted from a client session id. This is also the
// checkpoint-payload form (CGSRVS2); sessions persist least-recently-
// advanced first so a restore rebuilds the same eviction order.
type dedupSession struct {
	SID uint64
	Seq uint64
}

// dedupTable is the exactly-once session table (DESIGN.md §17). CGBIN/2
// clients stamp every update with a (session id, sequence number) pair; the
// table remembers, per session, the highest sequence number ACCEPTED — i.e.
// appended to the WAL — so a client that replays un-acked updates after a
// reconnect or a leader failover can never double-apply one.
//
// Determinism rule: the table advances only on accepted updates, in commit
// order, and evicts the least-recently-advanced session when over capacity.
// Both are functions of the durable record stream alone, so the live table
// always equals the table a crash replay rebuilds (checkpoint sessions plus
// WAL session-tag replay) — the same argument that makes served answers
// equal replayed answers.
type dedupTable struct {
	mu    sync.Mutex
	cap   int
	seq   map[uint64]uint64 // sid → highest accepted seq
	touch map[uint64]uint64 // sid → tick of the last advance
	clock uint64
}

func newDedupTable(capacity int) *dedupTable {
	if capacity <= 0 {
		capacity = 1024
	}
	return &dedupTable{
		cap:   capacity,
		seq:   make(map[uint64]uint64),
		touch: make(map[uint64]uint64),
	}
}

// dupRun reports in out[i] whether recs[i]'s (SID, Seq) was already
// accepted, under one lock hold: a record of the same session as its
// predecessor compares against the high-water mark looked up for it. Session
// id 0 is the untagged sentinel (the JSON batch path): the table never holds
// it, so it never deduplicates. out is reused and returned.
func (d *dedupTable) dupRun(recs []resilience.Record, out []bool) []bool {
	out = out[:0]
	d.mu.Lock()
	defer d.mu.Unlock()
	var sid, have uint64
	var ok bool
	for i, rec := range recs {
		if i == 0 || rec.SID != sid {
			sid = rec.SID
			have, ok = d.seq[sid]
		}
		out = append(out, ok && rec.Seq <= have)
	}
	return out
}

// advanceRun records that recs were accepted and made durable, under one
// lock hold. Each run of consecutive same-session records advances its
// session once: to the run's highest seq, with the clock moved by the run's
// length — the table, and so every later eviction and snapshot, is exactly
// what one advance per record would leave. Call in commit order, after the
// WAL append succeeds — never before, or the live table could run ahead of
// what a crash replay reconstructs.
func (d *dedupTable) advanceRun(recs []resilience.Record) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := 0; i < len(recs); {
		sid, top, j := recs[i].SID, recs[i].Seq, i+1
		for ; j < len(recs) && recs[j].SID == sid; j++ {
			top = max(top, recs[j].Seq)
		}
		n := j - i
		i = j
		if sid == 0 {
			continue
		}
		if have, ok := d.seq[sid]; !ok || top > have {
			d.seq[sid] = top
		}
		d.clock += uint64(n)
		d.touch[sid] = d.clock
		for len(d.seq) > d.cap {
			d.evictLocked()
		}
	}
}

// evictLocked drops the least-recently-advanced session. O(n) scan — the
// table is small (DedupSessions, default 1024) and eviction is rare.
func (d *dedupTable) evictLocked() {
	var victim uint64
	oldest := uint64(math.MaxUint64)
	for sid, tick := range d.touch {
		if tick < oldest {
			oldest, victim = tick, sid
		}
	}
	delete(d.seq, victim)
	delete(d.touch, victim)
}

// snapshot returns the sessions least-recently-advanced first — the
// checkpoint persistence order load reconstructs from.
func (d *dedupTable) snapshot() []dedupSession {
	d.mu.Lock()
	defer d.mu.Unlock()
	type entry struct {
		s    dedupSession
		tick uint64
	}
	entries := make([]entry, 0, len(d.seq))
	for sid, seq := range d.seq {
		entries = append(entries, entry{dedupSession{SID: sid, Seq: seq}, d.touch[sid]})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].tick < entries[j].tick })
	out := make([]dedupSession, len(entries))
	for i, e := range entries {
		out[i] = e.s
	}
	return out
}

// load replaces the table with sessions, treating their order as the
// advance order (oldest first) so later evictions replay identically.
func (d *dedupTable) load(sessions []dedupSession) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq = make(map[uint64]uint64, len(sessions))
	d.touch = make(map[uint64]uint64, len(sessions))
	d.clock = 0
	for _, s := range sessions {
		if s.SID == 0 {
			continue
		}
		d.clock++
		d.seq[s.SID] = s.Seq
		d.touch[s.SID] = d.clock
	}
	for len(d.seq) > d.cap {
		d.evictLocked()
	}
}

// size reports the live session count (metrics).
func (d *dedupTable) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.seq)
}
