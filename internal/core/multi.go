package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
)

// MultiCISO answers several pairwise queries over one shared stream — the
// multi-query scenario the paper explicitly defers to future work (§III-A:
// "Currently, we focus on single-query scenarios"). All queries share a
// single topology: each batch is normalized and applied once. Queries with
// the same source converge to the same one-to-all values — the unique least
// fixpoint of the monotone system from that source — so they share one
// state: a source group owns the values, parents and counters, phases A–D
// run once per processed group, and a query is a (group, destination) pair
// whose answer is the group's value at its destination (DESIGN.md §11).
// Compared with Q independent CISO engines this removes Q-1 graph clones and
// topology passes, and Q-S states and repairs for S sources: a new source
// costs one cold start, a query whose source is registered joins its group
// in O(1). Worklist and tagging scratch is per worker slot.
//
// Answers and values equal independent CISO engines' (enforced by tests):
// the phase logic is the same, with one benign reordering — all addition
// edges are inserted before any is relaxed, which converges to the same
// fixpoint under monotone ⊕. A one-member group is exactly an independent
// engine, parents and classification counts included. In a group of several
// members, phase B classifies against the union of their key paths, so the
// valuable/delayed split is the group's and parents may break ties
// differently from an independent engine's.
//
// Concurrency contract (relied on by internal/server): Reset,
// ApplyBatchDelta, AddQuery and AddQueries are writers and serialize on an
// internal lock; Topology's graph has its own single-writer contract;
// Answers, Queries, NumQueries and Counters are readers and may be called
// from any goroutine, including while a writer runs — a reader
// observes either the pre-batch or the post-batch state, never a torn
// intermediate. AddQuery of a new source performs its O(V+E) cold start
// against a topology snapshot WITHOUT holding the lock and only publishes
// under it, so readers (and the batch writer) are never stalled behind a
// registration. Writers must still come from one goroutine at a time per the
// single-writer discipline (the lock enforces safety either way, but
// interleaved writers make answer attribution meaningless).
type MultiCISO struct {
	mu      sync.RWMutex
	g       *graph.Dynamic
	a       algo.Algorithm
	queries []Query
	inGroup []int           // query index → index into groups
	cnt     *stats.Counters // the engine's one counter set; every group counts into it

	workers int // bounded pool width for per-group phases; <=1 is serial

	// epoch counts topology mutations; an AddQuery cold start computed off
	// the lock is only valid against the epoch it was built for.
	epoch uint64

	// Change-driven evaluation (DESIGN.md §15): the uselessness tests of
	// Algorithm 1 read values only, so one scan of a batch against a group's
	// state decides whether the batch can touch it at all; if it provably
	// cannot, the group's phases are skipped and its members' answers are
	// served unchanged. The group list changes only in Reset, AddQuery and
	// AddQueries, so every batch ranges over one slice in a fixed order.
	groups  []sourceGroup          // first-registration order
	groupOf map[graph.VertexID]int // source → index into groups

	scs       []*scratch   // per-worker-slot scratch, created on demand
	norm      normalizer   // reusable batch-normalization working memory
	activeBuf []int        // reusable processed-group index list
	errsBuf   []error      // reusable per-processed-group error slots
	preAnsBuf []algo.Value // reusable pre-batch answers of processed members

	// spare is the scratch an AddQuery cold start borrows off the lock:
	// taken with a swap, so concurrent registrations never share it, and put
	// back under the write lock only if no Reset intervened (gen counts
	// Resets). Reset drops it: the vertex count or algorithm may change.
	spare atomic.Pointer[scratch]
	gen   uint64
}

// sourceGroup is the registered queries sharing one source vertex, and the
// one converged state they share. The state counts into the engine's set, so
// a group's work is counted once whatever its member count.
type sourceGroup struct {
	st      *state // the source's state; st.dests are the members' destinations
	members []int  // query indices, registration order (parallel to st.dests)

	// suspect marks a state a failed recovery left degraded: the group is
	// never skipped and its phases wait for a recovery to succeed. The next
	// batch retries; after each failed retry heal counts down a wait of
	// backoff batches, doubling from 1 up to maxHealWait.
	suspect       bool
	heal, backoff int
}

// maxHealWait caps the batches a suspect group waits between recoveries.
const maxHealWait = 64

// MultiOption configures a MultiCISO engine.
type MultiOption func(*MultiCISO)

// WithWorkers bounds the worker pool that executes per-group phases: n
// goroutines pull group indices from a shared cursor, so S source groups cost
// S/n sequential rounds and exactly n scratch allocations — never S
// goroutines. n <= 1 means serial.
func WithWorkers(n int) MultiOption { return func(m *MultiCISO) { m.workers = n } }

// NewMultiCISO returns an unarmed multi-query engine; call Reset first.
func NewMultiCISO(opts ...MultiOption) *MultiCISO {
	m := &MultiCISO{cnt: stats.NewCounters(), workers: 1}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Name identifies the engine.
func (m *MultiCISO) Name() string { return "MultiCISO" }

// Reset takes ownership of g, arms every query and cold-starts each distinct
// source once. An empty query list is valid: queries can be registered
// later with AddQuery.
func (m *MultiCISO) Reset(g *graph.Dynamic, a algo.Algorithm, queries []Query) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.g, m.a = g, a
	m.epoch++
	m.gen++
	m.scs = nil // vertex count / algorithm may have changed
	m.spare.Store(nil)
	m.queries, m.inGroup = nil, nil
	m.groups, m.groupOf = nil, make(map[graph.VertexID]int)
	m.cnt.Reset()
	for _, q := range queries {
		m.addLocked(q)
	}
}

// addLocked registers q on the live topology (write lock held), opening its
// source's group with a cold start on the source's first registration.
func (m *MultiCISO) addLocked(q Query) (int, algo.Value) {
	if _, ok := m.groupOf[q.S]; !ok {
		m.ensureScratches(1)
		m.openLocked(computeState(m.scs[0], m.g, m.a, q.S, m.cnt))
	}
	return m.joinLocked(q)
}

// openLocked files st, converged for its source on the live topology and
// counting into m.cnt, as the source's group (write lock held).
func (m *MultiCISO) openLocked(st *state) {
	m.groupOf[st.src] = len(m.groups)
	m.groups = append(m.groups, sourceGroup{st: st})
}

// joinLocked appends q to its source's group — O(1), no compute — and
// returns its index and answer (write lock held).
func (m *MultiCISO) joinLocked(q Query) (int, algo.Value) {
	gi := m.groupOf[q.S]
	g := &m.groups[gi]
	i := len(m.queries)
	m.queries = append(m.queries, q)
	m.inGroup = append(m.inGroup, gi)
	g.members = append(g.members, i)
	g.st.dests = append(g.st.dests, q.D)
	return i, g.st.val[q.D]
}

// computeState cold-starts a state for src against g (which must not be
// mutated during the call — callers either hold the write lock or own a
// private clone) on the scratch sc, which the caller must own for the call
// (under the write lock, a worker slot's). Multi-owned states carry no
// scratch of their own; forEachGroup attaches a worker slot's scratch per
// execution.
func computeState(sc *scratch, g *graph.Dynamic, a algo.Algorithm, src graph.VertexID, cnt *stats.Counters) *state {
	st := newStateOn(sc, g, a, src, cnt)
	st.fullCompute()
	st.sc = nil
	return st
}

// addQueryRetries bounds how often AddQuery re-computes against a fresh
// snapshot after a batch invalidated the previous one, before falling back
// to computing under the write lock.
const addQueryRetries = 2

// AddQuery registers one more query against the current topology and returns
// its index (stable: answers keep Reset-then-AddQuery order) together with
// its initial answer. It is a writer under the concurrency contract. A query
// whose source is registered joins its group in O(1) at any epoch. A new
// source cold-starts against a topology snapshot with NO lock held, counting
// into a private set; only the publish takes the write lock (epoch-checked,
// retried if a batch landed in between — and if the source's group appeared
// meanwhile, the query joins it and the computed state is dropped, its counts
// with it). Readers are never stalled behind a registration.
func (m *MultiCISO) AddQuery(q Query) (int, algo.Value) {
	for attempt := 0; attempt < addQueryRetries; attempt++ {
		m.mu.RLock()
		_, joined := m.groupOf[q.S]
		epoch, gen, a := m.epoch, m.gen, m.a
		var gc *graph.Dynamic
		var sc *scratch
		if !joined {
			gc = m.g.Clone() // arena clone: cheap, and private to this goroutine
			sc = m.spare.Swap(nil)
		}
		m.mu.RUnlock()

		var st *state
		var cnt *stats.Counters
		if !joined {
			if sc == nil {
				sc = newScratch(a, gc.NumVertices())
			}
			cnt = stats.NewCounters()
			st = computeState(sc, gc, a, q.S, cnt)
		}

		m.mu.Lock()
		if sc != nil && m.gen == gen {
			m.spare.Store(sc) // a cold start leaves its scratch quiescent
		}
		if _, joined = m.groupOf[q.S]; !joined && m.epoch != epoch {
			m.mu.Unlock()
			continue // a batch landed mid-compute; the snapshot is stale
		}
		if !joined {
			st.g = m.g // rebind from the clone (same epoch ⇒ identical topology)
			m.cnt.AddAll(cnt)
			st.bind(m.cnt)
			m.openLocked(st)
		}
		i, ans := m.joinLocked(q)
		m.mu.Unlock()
		return i, ans
	}
	// Update churn outpaced the optimistic path: compute under the write
	// lock so registration completes regardless.
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.addLocked(q)
}

// AddQueries registers qs in order under one write-lock hold, each exactly
// as AddQuery's write-lock fallback would — a join of its source's group, or
// a cold start on the live topology — so the result equals an AddQuery loop
// (indices, values, parents, counters) without a topology clone per distinct
// source. It returns the index of qs[0] (the rest follow consecutively) and
// the initial answers. Meant for bulk registration where no batch is
// competing (start-up, restore); readers wait for the whole list.
func (m *MultiCISO) AddQueries(qs []Query) (first int, answers []algo.Value) {
	m.mu.Lock()
	defer m.mu.Unlock()
	first = len(m.queries)
	answers = make([]algo.Value, len(qs))
	for k, q := range qs {
		_, answers[k] = m.addLocked(q)
	}
	return first, answers
}

// Topology returns the engine's live graph, not a clone — the one topology
// a serving layer validates against instead of keeping a copy of its own.
// Contract:
//
//   - the graph is mutated only by the engine's writers (ApplyBatchDelta;
//     Reset replaces it), called by a single writer under whatever lock the
//     caller serializes its writes with;
//   - that writer may read the graph between its own applies without a
//     lock — nothing else mutates it;
//   - every other reader holds a lock that excludes the writer (the
//     caller's, or this engine's, e.g. via AddQuery's snapshot).
//
// NumVertices is fixed for a graph's lifetime and may be read by anyone.
func (m *MultiCISO) Topology() *graph.Dynamic {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.g
}

// stateOf returns query i's state: its group's.
func (m *MultiCISO) stateOf(i int) *state { return m.groups[m.inGroup[i]].st }

// answerLocked returns query i's answer: its group's value at its
// destination (read or write lock held).
func (m *MultiCISO) answerLocked(i int) algo.Value { return m.stateOf(i).val[m.queries[i].D] }

// Queries returns a copy of the armed queries (registration order).
func (m *MultiCISO) Queries() []Query {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]Query(nil), m.queries...)
}

// NumQueries returns the number of armed queries.
func (m *MultiCISO) NumQueries() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.queries)
}

// Answers returns the current answer of every query, in registration order.
// Safe to call while ApplyBatchDelta runs: it observes the pre- or post-batch
// answers, never a torn intermediate.
func (m *MultiCISO) Answers() []algo.Value {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]algo.Value, len(m.queries))
	for i := range out {
		out[i] = m.answerLocked(i)
	}
	return out
}

// Counters exposes the cumulative counters (shared across queries). The
// returned set is internally synchronized (atomic cells), so reading it
// while ApplyBatchDelta runs is safe; individual values may reflect a batch in
// flight.
func (m *MultiCISO) Counters() *stats.Counters {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.cnt
}

// StateBytes reports the resident bytes of all source-group state: 8 value
// and 4 parent bytes per vertex per group, plus a fixed per-group header.
// The per-worker execution scratch is excluded — it scales with workers,
// not sources.
func (m *MultiCISO) StateBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	const headerBytes = 64 // the state's slice headers, approximately
	var total int64
	for _, g := range m.groups {
		total += int64(len(g.st.val))*12 + headerBytes
	}
	return total
}

// ApplyBatchDelta ingests one batch for every query and reports only the
// queries whose ANSWER changed, so its cost is O(processed) work plus
// O(changed) reporting — never an O(Q) result materialisation. With
// change-driven skipping this is what makes per-batch serving cost track the
// affected region instead of the registered-query count.
//
// A panic inside one group's processing (a buggy algorithm plugin, injected
// fault, ...) never crashes the process or deadlocks the other groups: it is
// recovered per group, the group's state is recomputed from scratch on the
// shared (still consistent) topology, the panic is joined into
// BatchDelta.Err and every member of the group is reported in Changed. The
// other groups are unaffected.
func (m *MultiCISO) ApplyBatchDelta(batch []graph.Update) BatchDelta {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Shared, once: normalization against the pre-batch topology.
	nb := m.norm.normalize(m.g, batch)

	// Change-driven skip decision, per source group, against the pre-batch
	// converged values. Must happen before any topology mutation. Safety
	// (DESIGN.md §15): if every normalized event is individually useless
	// against a group's converged values, the pre-batch fixpoint is still a
	// fixpoint of the post-batch system — a useless addition introduces an
	// edge that does not improve its head (its inequality already holds),
	// and a useless deletion removes an edge that supplies no head (every
	// remaining derivation is intact, including parent[v], whose edge would
	// have passed the supplier-equality test and blocked the skip). Since the
	// state does not change, the per-event tests compose across the whole
	// batch (normalization guarantees one net event per edge). Suspect groups
	// are never skipped: a quarantined one waits, one whose retry is due
	// recovers before its phases.
	var delta BatchDelta
	active, errs, preAns := m.activeBuf[:0], m.errsBuf[:0], m.preAnsBuf[:0]
	skippedGroups := 0
	for gi := range m.groups {
		g := &m.groups[gi]
		var err error
		switch {
		case g.suspect && g.heal > 0:
			g.heal--
			continue
		case !g.suspect:
			unaffected, scanErr := m.groupUnaffectedLocked(g, nb)
			if unaffected {
				skippedGroups++
				delta.Skipped += len(g.members)
				continue
			}
			// A plugin panic during the scan is charged to the group like a
			// phase panic: its phases are suppressed and it recovers below.
			err = scanErr
		}
		// Processed group: its members' answers are snapshot before anything
		// moves them.
		for _, i := range g.members {
			preAns = append(preAns, g.st.val[m.queries[i].D])
		}
		if g.suspect {
			err = m.recoverLocked(g) // a failure keeps its phases suppressed
		}
		active, errs = append(active, gi), append(errs, err)
		delta.Processed += len(g.members)
	}
	m.activeBuf, m.errsBuf, m.preAnsBuf = active, errs, preAns

	// Shared: topology for the addition phase.
	if len(nb.Adds)+len(nb.Dels)+len(nb.Reweights) > 0 {
		m.epoch++ // in-flight AddQuery cold starts are converged for the old snapshot
	}
	for _, up := range nb.Adds {
		m.g.AddEdge(up.From, up.To, up.W)
	}
	for _, rw := range nb.Reweights {
		m.g.RemoveEdge(rw.From, rw.To)
		m.g.AddEdge(rw.From, rw.To, rw.NewW)
	}
	// A reweight is an addition event at the new weight plus a deletion
	// event at the old one; nb's slices are the normalizer's buffers, idle
	// until the next batch, so the event lists extend them in place.
	addEvents, delEvents := nb.Adds, nb.Dels
	for _, rw := range nb.Reweights {
		addEvents = append(addEvents, graph.Add(rw.From, rw.To, rw.NewW))
		delEvents = append(delEvents, graph.Del(rw.From, rw.To, rw.OldW))
	}

	// Phase A per processed group on the worker pool (the topology is
	// read-only from here until the shared deletion pass). The phases run
	// only when a group is processed: a batch every group skips builds no
	// closures, so it allocates nothing.
	if len(active) > 0 {
		m.forEachGroup(active, errs, func(st *state) { st.processAdditions(addEvents) })
	}

	// Shared: deletion topology.
	for _, up := range nb.Dels {
		m.g.RemoveEdge(up.From, up.To)
	}

	// Phases B–D per processed group: classify against the members' key
	// paths, prioritise, promote, answer, delayed.
	if len(active) > 0 {
		m.forEachGroup(active, errs, func(st *state) {
			st.classifyDeletions(delEvents, len(nb.Dels), true)
			st.repairValuable()
			st.repairDelayed()
		})
	}

	// Degraded groups: a group whose phases (or skip scan) panicked recovers
	// its state and surfaces the panic; one whose heal failed above is
	// already suspect and waits.
	var joinedErrs []error
	for k, err := range errs {
		if err == nil {
			continue
		}
		if g := &m.groups[active[k]]; !g.suspect {
			m.cnt.Inc(stats.CntQueryPanic)
			m.recoverLocked(g)
		}
		joinedErrs = append(joinedErrs, err)
	}
	if delta.Skipped > 0 {
		m.cnt.Add(stats.CntUpdateSkipQueries, int64(delta.Skipped))
		m.cnt.Add(stats.CntUpdateSkipGroups, int64(skippedGroups))
	}
	delta.Err = errors.Join(joinedErrs...)
	j := 0
	for k, gi := range active {
		for _, i := range m.groups[gi].members {
			if ans := m.answerLocked(i); errs[k] != nil || ans != preAns[j] {
				delta.Changed = append(delta.Changed, ChangedAnswer{Index: i, Value: ans})
			}
			j++
		}
	}
	slices.SortFunc(delta.Changed, func(a, b ChangedAnswer) int { return a.Index - b.Index })
	return delta
}

// groupUnaffectedLocked reports whether every normalized event of nb is
// useless (Algorithm 1) against g's converged values — the per-source skip
// test. A plugin panic during the scan is returned as an error: the group
// conservatively runs the full machinery and the caller charges the panic
// to it, whose recovery path owns the failure.
func (m *MultiCISO) groupUnaffectedLocked(g *sourceGroup, nb NormalizedBatch) (unaffected bool, err error) {
	st := g.st
	defer func() {
		if r := recover(); r != nil {
			unaffected = false
			err = groupPanic(g, r)
		}
	}()
	for _, up := range nb.Adds {
		if !st.addUseless(up.From, up.To, up.W) {
			return false, nil
		}
	}
	for _, up := range nb.Dels {
		if !st.delUseless(up.From, up.To, up.W) {
			return false, nil
		}
	}
	for _, rw := range nb.Reweights {
		if !st.delUseless(rw.From, rw.To, rw.OldW) || !st.addUseless(rw.From, rw.To, rw.NewW) {
			return false, nil
		}
	}
	return true, nil
}

// groupPanic is the error a recovered panic inside g's processing becomes.
func groupPanic(g *sourceGroup, r any) error {
	return fmt.Errorf("multiciso: source %d (%d queries) panicked: %v", g.st.src, len(g.members), r)
}

// forEachGroup runs f(state) for every listed group whose errs[k] entry is
// still nil on a bounded worker pool: min(workers, len(idxs)) goroutines pull
// positions from a shared cursor, each owning one scratch slot which it
// attaches to a group's state for the duration of f. Each group touches only
// its own state and tallies (flushed into the shared atomic counters); the
// shared topology is read-only inside f. A panic inside f is recovered into
// errs[k] (and the slot's scratch scrubbed); the pool always drains. With
// change-driven skipping, idxs is the batch's processed subset — the pool
// never touches skipped groups.
func (m *MultiCISO) forEachGroup(idxs []int, errs []error, f func(st *state)) {
	w := min(max(m.workers, 1), len(idxs))
	m.ensureScratches(w)
	run := func(slot, k int) {
		g := &m.groups[idxs[k]]
		st := g.st
		st.sc = m.scs[slot]
		defer func() {
			if r := recover(); r != nil {
				errs[k] = groupPanic(g, r)
				m.scs[slot].clear() // a mid-flight panic leaves marks behind
			}
			st.flush() // a panicking phase loses no counts and leaves none behind
			st.sc = nil
		}()
		f(st)
	}
	if w <= 1 {
		for k := range idxs {
			if errs[k] == nil {
				run(0, k)
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for slot := 0; slot < w; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(idxs) {
					return
				}
				if errs[k] == nil {
					run(slot, k)
				}
			}
		}(slot)
	}
	wg.Wait()
}

// ensureScratches guarantees w armed scratch slots for the current topology.
func (m *MultiCISO) ensureScratches(w int) {
	n := m.g.NumVertices()
	for len(m.scs) < max(w, 1) {
		m.scs = append(m.scs, newScratch(m.a, n))
	}
}

// recoverLocked recomputes g's state from scratch on the shared topology —
// after a recovered panic interrupted its processing mid-propagation (the
// topology only mutates on the caller's goroutine, outside the phases, so it
// is always consistent here), or to heal a suspect group. A recompute that
// itself panics leaves the state degraded and the group suspect: never
// skipped, its phases suppressed, retried on the next batch that reaches it
// and then after waits of 1, 2, 4, … up to maxHealWait batches. A success
// clears the mark.
func (m *MultiCISO) recoverLocked(g *sourceGroup) (err error) {
	m.ensureScratches(1)
	st := g.st
	st.sc = m.scs[0]
	defer func() {
		if r := recover(); r != nil {
			err = groupPanic(g, r)
			st.sc.clear()
		}
		st.flush()
		st.sc = nil
		switch {
		case err == nil:
			g.suspect = false
		case g.suspect:
			g.heal, g.backoff = g.backoff, min(2*g.backoff, maxHealWait)
		default:
			g.suspect, g.heal, g.backoff = true, 0, 1
		}
	}()
	st.sc.clear()
	st.fullCompute()
	return nil
}
