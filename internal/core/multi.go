package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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
// Concurrency contract (relied on by internal/server): Reset, ApplyBatch,
// AddQuery and AddQueries are writers and serialize on an internal lock;
// Topology's graph has its own single-writer contract; Answers, AnswerOf,
// Queries, NumQueries and Counters are readers and may be called from any
// goroutine, including while a writer runs — a reader observes either the
// pre-batch or the post-batch state, never a torn intermediate. AddQuery of
// a new source performs its O(V+E) cold start against a topology snapshot
// WITHOUT holding the lock and only publishes under it, so readers (and the
// batch writer) are never stalled behind a registration. Writers must still
// come from one goroutine at a time per the single-writer discipline
// (the lock enforces safety either way, but interleaved writers make answer
// attribution meaningless).
type MultiCISO struct {
	mu      sync.RWMutex
	g       *graph.Dynamic
	a       algo.Algorithm
	queries []Query
	inGroup []int           // query index → index into groups
	cnt     *stats.Counters // merged view, maintained from per-batch group deltas

	workers int // bounded pool width for per-group phases; <=1 is serial

	// epoch counts topology mutations; an AddQuery cold start computed off
	// the lock is only valid against the epoch it was built for.
	epoch uint64

	// Change-driven evaluation (DESIGN.md §15): the uselessness tests of
	// Algorithm 1 read values only, so one scan of a batch against a group's
	// state decides whether the batch can touch it at all; if it provably
	// cannot, the group's phases are skipped and its members' answers are
	// served unchanged. The group list is also the fast path's scan set. It
	// changes only in Reset, AddQuery and AddQueries, so batch and per-update
	// routing range over one slice in a fixed order.
	skip     bool                   // skipping enabled (default; WithChangeSkip)
	groups   []sourceGroup          // first-registration order
	groupOf  map[graph.VertexID]int // source → index into groups
	lastSums []ChangeSummary        // last batch's per-source dirty summaries

	scs        []*scratch   // per-worker-slot scratch, created on demand
	norm       normalizer   // reusable batch-normalization working memory
	beforeBufs [][]int64    // reusable per-group pre-batch counter snapshots
	deltaBuf   []int64      // reusable per-group counter delta (lean path)
	activeBuf  []int        // reusable processed-group index list
	errsBuf    []error      // reusable per-processed-group error slots
	preAnsBuf  []algo.Value // reusable pre-batch answers of processed members
	spanBuf    []groupSpans // reusable per-processed-group phase spans
}

// sourceGroup is the registered queries sharing one source vertex, and the
// one converged state they share.
type sourceGroup struct {
	st      *state          // the source's state; st.dests are the members' destinations
	cnt     *stats.Counters // the group's counters: its work is counted once
	members []int           // query indices, registration order (parallel to st.dests)

	// suspect marks a state a failed recovery left degraded: the group is
	// never skipped and its phases wait for a recovery to succeed. The next
	// batch retries; after each failed retry heal counts down a wait of
	// backoff batches, doubling from 1 up to maxHealWait.
	suspect       bool
	heal, backoff int
}

// maxHealWait caps the batches a suspect group waits between recoveries.
const maxHealWait = 64

// groupSpans are one processed group's phase times in a batch.
type groupSpans struct{ add, response, converged time.Duration }

// MultiOption configures a MultiCISO engine.
type MultiOption func(*MultiCISO)

// WithWorkers bounds the worker pool that executes per-group phases: n
// goroutines pull group indices from a shared cursor, so S source groups cost
// S/n sequential rounds and exactly n scratch allocations — never S
// goroutines. n <= 1 means serial.
func WithWorkers(n int) MultiOption { return func(m *MultiCISO) { m.workers = n } }

// WithParallelQueries processes per-group phases on a GOMAXPROCS-wide worker
// pool — shorthand for WithWorkers(runtime.GOMAXPROCS(0)). Groups share the
// topology read-only during processing (all mutation happens between phases
// on the caller's goroutine), so this is safe and mirrors the multi-core
// software platforms the paper benchmarks against.
func WithParallelQueries() MultiOption {
	return func(m *MultiCISO) { m.workers = runtime.GOMAXPROCS(0) }
}

// WithChangeSkip toggles change-driven query skipping (default on): per
// batch, each source group is tested once against its converged values, and
// groups the batch provably cannot affect never run their phases (DESIGN.md
// §15). Disabling it restores exhaustive per-group evaluation — the
// differential tests pin
// both configurations to identical answers, so the switch exists for that
// proof and for debugging, not for correctness.
func WithChangeSkip(enabled bool) MultiOption { return func(m *MultiCISO) { m.skip = enabled } }

// NewMultiCISO returns an unarmed multi-query engine; call Reset first.
func NewMultiCISO(opts ...MultiOption) *MultiCISO {
	m := &MultiCISO{cnt: stats.NewCounters(), workers: 1, skip: true}
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
	m.scs = nil // vertex count / algorithm may have changed
	m.queries, m.inGroup = nil, nil
	m.groups, m.groupOf = nil, make(map[graph.VertexID]int)
	m.lastSums = nil
	m.cnt.Reset()
	for _, q := range queries {
		m.addLocked(q)
	}
}

// addLocked registers q on the live topology (write lock held), opening its
// source's group with a cold start on the source's first registration.
func (m *MultiCISO) addLocked(q Query) (int, algo.Value) {
	if _, ok := m.groupOf[q.S]; !ok {
		cnt := stats.NewCounters()
		m.openLocked(computeState(m.g, m.a, q.S, cnt), cnt)
	}
	return m.joinLocked(q)
}

// openLocked files st, converged for its source on the live topology, as
// the source's group (write lock held).
func (m *MultiCISO) openLocked(st *state, cnt *stats.Counters) {
	m.groupOf[st.src] = len(m.groups)
	m.groups = append(m.groups, sourceGroup{st: st, cnt: cnt})
	m.cnt.AddAll(cnt) // fold the cold start into the merged view
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
// private clone). Multi-owned states carry no scratch of their own;
// forEachGroup attaches a worker slot's scratch per execution.
func computeState(g *graph.Dynamic, a algo.Algorithm, src graph.VertexID, cnt *stats.Counters) *state {
	st := newStateOn(newScratch(a, g.NumVertices()), g, a, src, cnt)
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
// source cold-starts against a topology snapshot with NO lock held; only the
// publish takes the write lock (epoch-checked, retried if a batch landed in
// between — and if the source's group appeared meanwhile, the query joins it
// and the computed state is dropped). Readers are never stalled behind a
// registration.
func (m *MultiCISO) AddQuery(q Query) (int, algo.Value) {
	for attempt := 0; attempt < addQueryRetries; attempt++ {
		m.mu.RLock()
		_, joined := m.groupOf[q.S]
		epoch, a := m.epoch, m.a
		var gc *graph.Dynamic
		if !joined {
			gc = m.g.Clone() // arena clone: cheap, and private to this goroutine
		}
		m.mu.RUnlock()

		var st *state
		var cnt *stats.Counters
		if !joined {
			cnt = stats.NewCounters()
			st = computeState(gc, a, q.S, cnt)
		}

		m.mu.Lock()
		if _, joined = m.groupOf[q.S]; !joined && m.epoch != epoch {
			m.mu.Unlock()
			continue // a batch landed mid-compute; the snapshot is stale
		}
		if !joined {
			st.g = m.g // rebind from the clone (same epoch ⇒ identical topology)
			m.openLocked(st, cnt)
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
//   - the graph is mutated only by the engine's writers (ApplyBatch*,
//     ApplyUpdates*, Reset replaces it), called by a single writer under
//     whatever lock the caller serializes its writes with;
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
// Safe to call while ApplyBatch runs: it observes the pre- or post-batch
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

// AnswerOf returns the current answer of query i (registration order).
func (m *MultiCISO) AnswerOf(i int) algo.Value {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.answerLocked(i)
}

// Counters exposes the cumulative counters (shared across queries). The
// returned set is internally synchronized (atomic cells), so reading it
// while ApplyBatch runs is safe; individual values may reflect a batch in
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

// ApplyBatch ingests one batch for every query and returns one Result per
// query (Reset order). Each query's Response covers the shared
// normalization/topology span (paid once, needed by every answer) plus its
// group's own classification, scheduling and recovery phases, and its
// Counters() are its group's batch delta.
//
// A panic inside one group's processing (a buggy algorithm plugin, injected
// fault, ...) never crashes the process or deadlocks the other groups: it is
// recovered per group, the group's state is recomputed from scratch on the
// shared (still consistent) topology, and every member's result carries the
// panic as Result.Err. The other groups' results are unaffected.
func (m *MultiCISO) ApplyBatch(batch []graph.Update) []Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applyBatchLocked(batch)
}

// ApplyBatchDelta is the lean face of ApplyBatch for serving layers that
// fan answers out: it applies the batch exactly like ApplyBatch but reports
// only the queries whose ANSWER changed, so its cost is O(processed) work
// plus O(changed) reporting — never an O(Q) result materialisation. With
// change-driven skipping this is what makes per-batch serving cost track
// the affected region instead of the registered-query count.
func (m *MultiCISO) ApplyBatchDelta(batch []graph.Update) BatchDelta {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, d := m.applyBatchCoreLocked(batch, false)
	return d
}

// applyBatchLocked is ApplyBatch with the write lock already held; the
// per-update fast path (ApplyUpdates) routes unsafe runs through it under a
// single lock hold.
func (m *MultiCISO) applyBatchLocked(batch []graph.Update) []Result {
	res, _ := m.applyBatchCoreLocked(batch, true)
	return res
}

// spanClock reads the wall clock only when on; off, every span is zero.
type spanClock struct{ on bool }

func (c spanClock) now() time.Time {
	if c.on {
		return time.Now()
	}
	return time.Time{}
}

func (c spanClock) since(t time.Time) time.Duration {
	if c.on {
		return time.Since(t)
	}
	return 0
}

// applyBatchCoreLocked is the shared batch engine. wantResults selects the
// classic O(Q) []Result materialisation (ApplyBatch) or the lean BatchDelta
// report (ApplyBatchDelta); the applied state transition is identical.
func (m *MultiCISO) applyBatchCoreLocked(batch []graph.Update, wantResults bool) ([]Result, BatchDelta) {
	// Only ApplyBatch reports spans, so only it reads the clock.
	clk := spanClock{on: wantResults}

	// Shared, once: normalization against the pre-batch topology.
	t0 := clk.now()
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
	active, errs, preAns := m.activeBuf[:0], m.errsBuf[:0], m.preAnsBuf[:0]
	for len(m.beforeBufs) < len(m.groups) {
		m.beforeBufs = append(m.beforeBufs, nil)
	}
	// Summaries are recorded in place: grown up front so the recorder
	// pointers handed to the states stay valid, and each slot's vertex buffer
	// is reused (ChangeSummaries hands out deep copies).
	m.lastSums = slices.Grow(m.lastSums[:0], len(m.groups))
	skipped, skippedGroups, processed := 0, 0, 0
	for gi := range m.groups {
		g := &m.groups[gi]
		var err error
		switch {
		case g.suspect && g.heal > 0:
			g.heal--
			continue
		case !g.suspect && m.skip:
			unaffected, scanErr := m.groupUnaffectedLocked(g, nb)
			if unaffected {
				skippedGroups++
				skipped += len(g.members)
				continue
			}
			// A plugin panic during the scan is charged to the group like a
			// phase panic: its phases are suppressed and it recovers below.
			err = scanErr
		}
		// Processed group: its counters and (lean path) its members' answers
		// are snapshot before anything moves them, and it records the
		// region's dirty set for the batch's change summaries.
		m.beforeBufs[gi] = g.cnt.DenseSnapshot(m.beforeBufs[gi][:0])
		if !wantResults {
			for _, i := range g.members {
				preAns = append(preAns, g.st.val[m.queries[i].D])
			}
		}
		k := len(m.lastSums)
		m.lastSums = m.lastSums[:k+1]
		cs := &m.lastSums[k]
		*cs = ChangeSummary{Source: g.st.src, Vertices: cs.Vertices[:0]}
		g.st.dirty = cs
		if g.suspect {
			err = m.recoverLocked(g) // a failure keeps its phases suppressed
		}
		active, errs = append(active, gi), append(errs, err)
		processed += len(g.members)
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
	for i := range m.lastSums {
		m.lastSums[i].Epoch = m.epoch
	}
	// A reweight is an addition event at the new weight plus a deletion
	// event at the old one; nb's slices are the normalizer's buffers, idle
	// until the next batch, so the event lists extend them in place.
	addEvents, delEvents := nb.Adds, nb.Dels
	for _, rw := range nb.Reweights {
		addEvents = append(addEvents, graph.Add(rw.From, rw.To, rw.NewW))
		delEvents = append(delEvents, graph.Del(rw.From, rw.To, rw.OldW))
	}
	addTopoSpan := clk.since(t0)

	// Phase A per processed group on the worker pool (the topology is
	// read-only from here until the shared deletion pass).
	spans := slices.Grow(m.spanBuf[:0], len(active))[:len(active)]
	clear(spans)
	m.spanBuf = spans
	m.forEachGroup(active, errs, func(k int, st *state) {
		tq := clk.now()
		st.processAdditions(addEvents)
		spans[k].add = clk.since(tq)
	})

	// Shared: deletion topology.
	t1 := clk.now()
	for _, up := range nb.Dels {
		m.g.RemoveEdge(up.From, up.To)
	}
	sharedSpan := addTopoSpan + clk.since(t1)

	// Phases B–D per processed group: classify against the members' key
	// paths, prioritise, promote, answer, delayed. Every response includes
	// the (single) shared topology span — the batch cannot be answered
	// without it — plus the group's own phases.
	m.forEachGroup(active, errs, func(k int, st *state) {
		tq := clk.now()
		st.classifyDeletions(delEvents, true)
		st.repairValuable()
		spans[k].response = sharedSpan + spans[k].add + clk.since(tq)
		st.repairDelayed()
		spans[k].converged = sharedSpan + spans[k].add + clk.since(tq)
	})

	// Degraded groups: a group whose phases (or skip scan) panicked recovers
	// its state, and every member surfaces the panic; one whose heal failed
	// above is already suspect and waits.
	var joinedErrs []error
	for k, err := range errs {
		if err == nil {
			continue
		}
		if g := &m.groups[active[k]]; !g.suspect {
			g.cnt.Inc(stats.CntQueryPanic)
			m.recoverLocked(g)
		}
		joinedErrs = append(joinedErrs, err)
	}
	// Detach the change recorders, fold each processed group's batch delta
	// into the merged view — every counter movement of this batch, recovery
	// recomputes included, is captured in the deltas — and report.
	var results []Result
	if wantResults {
		results = make([]Result, len(m.queries))
	}
	for k, gi := range active {
		g := &m.groups[gi]
		g.st.dirty = nil
		var delta []int64
		if wantResults {
			delta = g.cnt.DenseDelta(m.beforeBufs[gi])
		} else {
			m.deltaBuf = g.cnt.AppendDenseDelta(m.deltaBuf[:0], m.beforeBufs[gi])
			delta = m.deltaBuf
		}
		m.cnt.AddDelta(g.cnt, delta)
		if wantResults {
			for _, i := range g.members {
				results[i] = Result{Answer: m.answerLocked(i), Response: spans[k].response,
					Converged: spans[k].converged, Err: errs[k], cntSrc: g.cnt, cntDelta: delta}
			}
		}
	}
	if skipped > 0 {
		m.cnt.Add(stats.CntUpdateSkipQueries, int64(skipped))
		m.cnt.Add(stats.CntUpdateSkipGroups, int64(skippedGroups))
	}

	var delta BatchDelta
	if wantResults {
		// Queries of unprocessed groups still get a Result — same length,
		// same order, as every ApplyBatch caller expects — assembled from
		// O(1) reads: the (unchanged) answer and the shared span.
		for i := range results {
			if g := &m.groups[m.inGroup[i]]; results[i].cntSrc == nil {
				results[i] = Result{Answer: m.answerLocked(i), Response: sharedSpan,
					Converged: sharedSpan, Skipped: !g.suspect, cntSrc: g.cnt}
			}
		}
		return results, delta
	}
	delta.Skipped = skipped
	delta.Processed = processed
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
	return nil, delta
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

// ChangeSummaries returns the per-source change summaries of the
// most recently applied batch: one entry per PROCESSED source group listing
// which vertices of that group's converged region the batch wrote (sorted,
// deduplicated, Overflow-capped). Sources absent from the slice were proven
// unaffected — their regions did not change at all. The result is a deep
// copy; the engine records raw writes and this read pays for the sort.
func (m *MultiCISO) ChangeSummaries() []ChangeSummary {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]ChangeSummary, len(m.lastSums))
	for i, cs := range m.lastSums {
		cs.Vertices = slices.Clone(cs.Vertices)
		slices.Sort(cs.Vertices)
		cs.Vertices = slices.Compact(cs.Vertices)
		out[i] = cs
	}
	return out
}

// forEachGroup runs f(k, state) for every listed group whose errs[k] entry
// is still nil on a bounded worker pool: min(workers, len(idxs)) goroutines
// pull positions from a shared cursor, each owning one scratch slot which it
// attaches to a group's state for the duration of f. Each group touches only
// its own state and counters; the shared topology is read-only inside f. A
// panic inside f is recovered into errs[k] (and the slot's scratch
// scrubbed); the pool always drains. With change-driven skipping, idxs is
// the batch's processed subset — the pool never touches skipped groups.
func (m *MultiCISO) forEachGroup(idxs []int, errs []error, f func(k int, st *state)) {
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
		f(k, st)
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
