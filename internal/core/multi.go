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
// single topology: each batch is normalized and applied once, and only the
// per-query work (classification against that query's converged states,
// scheduling, recovery) is repeated. Compared with running Q independent
// CISO engines this removes Q-1 graph clones and Q-1 topology passes; the
// contribution-aware classification itself is inherently per-query because
// each query converges to different states.
//
// Per-query state is one value and one parent array, O(V) per query
// (DESIGN.md §11). Queries with the same source converge to the same
// one-to-all state, so a same-source registration at an unchanged topology
// copies the arrays of the query cold-started there instead of converging
// again: Q queries over S sources cost S cold starts. Worklist and tagging
// scratch is per worker slot, not per query.
//
// Answers are bit-identical to independent CISO engines (enforced by
// tests): the phase logic is the same, with one benign reordering — all
// addition edges are inserted before any is relaxed, which converges to the
// same fixpoint under monotone ⊕.
//
// Concurrency contract (relied on by internal/server): Reset, ApplyBatch,
// AddQuery and AddQueries are writers and serialize on an internal lock;
// Topology's graph has its own single-writer contract; Answers, AnswerOf,
// Queries, NumQueries and Counters are readers and may be called from any
// goroutine, including while a writer runs — a reader observes either the
// pre-batch or the post-batch state, never a torn intermediate. AddQuery
// performs its O(V+E) initial computation against a topology snapshot
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
	states  []*state
	cnts    []*stats.Counters // one per query (keeps parallel runs raceless)
	cnt     *stats.Counters   // merged view, maintained from per-batch deltas

	workers int // bounded pool width for per-query phases; <=1 is serial

	// Intra-query parallel propagation (DESIGN.md §16). propWorkers is the
	// total relax-worker budget across the engine (0 = off); parMin the
	// frontier size that triggers a parallel drain. coldPP is the
	// full-budget propagator cold starts use (immutable after construction,
	// so the lock-free AddQuery path may read it); parProps caches one
	// propagator per policy width (write lock held at every access).
	propWorkers int
	parMin      int
	coldPP      propagator
	parProps    map[int]*parallelPropagator

	// epoch counts topology mutations; an AddQuery compute and a recorded
	// cold start are only valid against the epoch they were built for.
	epoch uint64
	// coldStarts holds, per source, the state cold-started at epoch
	// coldEpoch: the copy source for same-source registrations while the
	// epoch stands (DESIGN.md §11.3). A query maintained across batches is
	// never a copy source — its parents may differ from a cold start's on
	// ties, and the deletion classifier reads parents.
	coldStarts map[graph.VertexID]*state
	coldEpoch  uint64

	// Change-driven evaluation (DESIGN.md §15). All registered queries with
	// the same source converge to the same VALUE array (the unique least
	// fixpoint of the monotone system from that source — parents may differ
	// on ties, values cannot), and the uselessness tests of Algorithm 1 read
	// values only. So one scan of a batch against one representative member
	// decides, for the whole source group, whether the batch can touch the
	// group's converged state at all; if it provably cannot, every member's
	// per-query phases are skipped and their answers are served unchanged.
	//
	// The grouping is maintained, never derived on a hot path: groups lists
	// the source groups in first-registration order, and reps is the state set
	// the fast path's uselessness scans walk — one non-suspect representative
	// per group, then every suspect state (with skipping disabled, every
	// state). Both change only in Reset, installLocked and setSuspectLocked,
	// so batch and per-update routing range over slices in a fixed order.
	skip     bool                   // skipping enabled (default; WithChangeSkip)
	groups   []sourceGroup          // first-registration order
	groupOf  map[graph.VertexID]int // source → index into groups
	reps     []*state               // uselessness scan set (see above)
	suspect  []bool                 // degraded state: never skip, never represent
	nSuspect int
	lastSums []ChangeSummary // last batch's per-source dirty summaries

	scs        []*scratch // per-worker-slot scratch, created on demand
	norm       normalizer // reusable batch-normalization working memory
	beforeBufs [][]int64  // reusable per-query pre-batch counter snapshots
	deltaBuf   []int64    // reusable per-query counter delta (lean path)
	activeBuf  []int      // reusable processed-query index list
	errsBuf    []error    // reusable per-active-query error slots
	preAnsBuf  []algo.Value
	attachBuf  []dirtyAttach   // reusable per-processed-group recorder list
	spanBuf    []time.Duration // reusable per-active-query phase-A spans
}

// sourceGroup is the registered queries sharing one source vertex.
type sourceGroup struct {
	src     graph.VertexID
	members []int // query indices, registration order
	rep     int   // first non-suspect member; -1 while every member is suspect
}

// MultiOption configures a MultiCISO engine.
type MultiOption func(*MultiCISO)

// StoreKind names a per-query state representation. Flat arrays are the only
// one; the type and StoreDense remain because server.NewQueryPool still takes
// a kind, which benchmark/stage.go passes as core.StoreDense.
type StoreKind int

// StoreDense is the flat-array representation.
const StoreDense StoreKind = 0

// WithWorkers bounds the worker pool that executes per-query phases: n
// goroutines pull query indices from a shared cursor, so Q queries cost Q/n
// sequential rounds and exactly n scratch allocations — never Q goroutines.
// n <= 1 means serial.
func WithWorkers(n int) MultiOption { return func(m *MultiCISO) { m.workers = n } }

// WithParallelQueries processes per-query phases on a GOMAXPROCS-wide worker
// pool — shorthand for WithWorkers(runtime.GOMAXPROCS(0)). Queries share the
// topology read-only during processing (all mutation happens between phases
// on the caller's goroutine), so this is safe and mirrors the multi-core
// software platforms the paper benchmarks against.
func WithParallelQueries() MultiOption {
	return func(m *MultiCISO) { m.workers = runtime.GOMAXPROCS(0) }
}

// WithChangeSkip toggles change-driven query skipping (default on): per
// batch, each source group of queries is tested once against one
// representative member's converged values, and groups the batch provably
// cannot affect never run their per-query phases (DESIGN.md §15). Disabling
// it restores exhaustive per-query evaluation — the differential tests pin
// both configurations to identical answers, so the switch exists for that
// proof and for debugging, not for correctness.
func WithChangeSkip(enabled bool) MultiOption { return func(m *MultiCISO) { m.skip = enabled } }

// WithPropagateWorkers sets the engine's total intra-query relax-worker
// budget (DESIGN.md §16): cold-start convergences drain with the full
// budget, and each apply splits it across the queries actually processed —
// a wide batch keeps per-query serial drains (inter-query parallelism
// already saturates the budget), a narrow batch flips the processed states
// to bucketed parallel drains. n < 2 disables intra-query parallelism
// (the default). Answers are bit-identical either way.
func WithPropagateWorkers(n int) MultiOption { return func(m *MultiCISO) { m.propWorkers = n } }

// WithParallelFrontierMin sets the frontier size below which a parallel-
// armed drain stays serial (≤ 0 selects DefaultParallelFrontierMin).
// Meaningful only together with WithPropagateWorkers.
func WithParallelFrontierMin(n int) MultiOption { return func(m *MultiCISO) { m.parMin = n } }

// NewMultiCISO returns an unarmed multi-query engine; call Reset first.
func NewMultiCISO(opts ...MultiOption) *MultiCISO {
	m := &MultiCISO{cnt: stats.NewCounters(), workers: 1, skip: true}
	for _, o := range opts {
		o(m)
	}
	if m.propWorkers >= 2 {
		m.coldPP = newParallelPropagator(m.propWorkers, m.parMin)
		m.parProps = map[int]*parallelPropagator{m.propWorkers: m.coldPP.(*parallelPropagator)}
	}
	return m
}

// intraPropLocked applies the nested-parallelism policy for an apply that
// processes nActive queries: the relax-worker budget divides across the
// query-level worker slots actually running, and only a per-slot share of
// at least 2 is worth the coordination. Returns nil for "stay serial".
func (m *MultiCISO) intraPropLocked(nActive int) propagator {
	if m.propWorkers < 2 || nActive == 0 {
		return nil
	}
	slots := m.workers
	if slots > nActive {
		slots = nActive
	}
	if slots < 1 {
		slots = 1
	}
	width := m.propWorkers / slots
	if width < 2 {
		return nil
	}
	pp, ok := m.parProps[width]
	if !ok {
		pp = newParallelPropagator(width, m.parMin)
		m.parProps[width] = pp
	}
	return pp
}

// Name identifies the engine.
func (m *MultiCISO) Name() string { return "MultiCISO" }

// Reset takes ownership of g, arms every query and runs each query's
// initial full computation. An empty query list is valid: queries can be
// registered later with AddQuery.
func (m *MultiCISO) Reset(g *graph.Dynamic, a algo.Algorithm, queries []Query) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.g, m.a = g, a
	m.epoch++
	m.coldStarts = nil
	m.scs = nil // vertex count / algorithm may have changed
	m.queries = append([]Query(nil), queries...)
	m.states = make([]*state, 0, len(queries))
	m.cnts = make([]*stats.Counters, 0, len(queries))
	m.beforeBufs = nil
	m.groups = nil
	m.groupOf = make(map[graph.VertexID]int)
	m.suspect = make([]bool, len(queries))
	m.nSuspect = 0
	m.lastSums = nil
	for i, q := range queries {
		cnt := stats.NewCounters()
		st := m.buildStateLocked(q, cnt)
		m.states = append(m.states, st)
		m.cnts = append(m.cnts, cnt)
		m.joinGroupLocked(q.S, i)
	}
	m.rebuildRepsLocked()
	m.mergeCounters()
}

// joinGroupLocked files query i under its source's group, opening the group
// on the source's first registration.
func (m *MultiCISO) joinGroupLocked(src graph.VertexID, i int) {
	gi, ok := m.groupOf[src]
	if !ok {
		gi = len(m.groups)
		m.groupOf[src] = gi
		m.groups = append(m.groups, sourceGroup{src: src})
	}
	m.groups[gi].members = append(m.groups[gi].members, i)
}

// rebuildRepsLocked re-derives every group's representative and the scan
// set from the registered states and suspect marks.
func (m *MultiCISO) rebuildRepsLocked() {
	m.reps = m.reps[:0]
	for gi := range m.groups {
		g := &m.groups[gi]
		g.rep = -1
		for _, i := range g.members {
			if !m.suspect[i] {
				g.rep = i
				break
			}
		}
		if m.skip && g.rep >= 0 {
			m.reps = append(m.reps, m.states[g.rep])
		}
	}
	if m.skip && m.nSuspect == 0 {
		return
	}
	for i, st := range m.states {
		if !m.skip || m.suspect[i] {
			m.reps = append(m.reps, st)
		}
	}
}

// buildStateLocked converges a state for q on the live topology (write lock
// held): a copy of the source's cold start at this epoch when there is one,
// otherwise a cold start, recorded for later copies.
func (m *MultiCISO) buildStateLocked(q Query, cnt *stats.Counters) *state {
	if cold := m.coldStartLocked(q.S); cold != nil {
		return copyState(cold, q, cnt)
	}
	st := computeState(m.g, m.a, q, cnt, m.coldPP)
	m.recordColdStartLocked(st)
	return st
}

// coldStartLocked returns the state cold-started for src at the current
// epoch, or nil (read or write lock held).
func (m *MultiCISO) coldStartLocked(src graph.VertexID) *state {
	if m.coldEpoch != m.epoch {
		return nil
	}
	return m.coldStarts[src]
}

// recordColdStartLocked files st, just converged from scratch at the current
// epoch, as its source's copy source (write lock held).
func (m *MultiCISO) recordColdStartLocked(st *state) {
	if m.coldStarts == nil || m.coldEpoch != m.epoch {
		m.coldStarts = make(map[graph.VertexID]*state)
		m.coldEpoch = m.epoch
	}
	m.coldStarts[st.q.S] = st
}

// computeState runs the initial full computation for q against g (which must
// not be mutated during the call — callers either hold the write lock or own
// a private clone). Multi-owned states carry no scratch of their own;
// forEachQuery attaches a worker slot's scratch per execution. A non-nil
// prop drains the cold-start convergence through it (intra-query parallel
// cold starts, DESIGN.md §16) and is detached afterwards — batch applies
// re-attach per the nested-parallelism policy.
func computeState(g *graph.Dynamic, a algo.Algorithm, q Query, cnt *stats.Counters, prop propagator) *state {
	st := newStateOn(newScratch(a, g.NumVertices()), g, a, q, cnt)
	if prop != nil {
		st.prop = prop
	}
	st.fullCompute()
	st.prop = serialProp
	st.sc = nil
	return st
}

// copyState binds a state for q over copies of cold's arrays. cold is a
// same-source cold start at the current epoch, so the copy is exactly what a
// cold start for q would converge to, parents included: the drain from a
// source never reads the destination.
func copyState(cold *state, q Query, cnt *stats.Counters) *state {
	st := newStateOn(nil, cold.g, cold.a, q, cnt)
	copy(st.val, cold.val)
	copy(st.parent, cold.parent)
	return st
}

// addQueryRetries bounds how often AddQuery re-computes against a fresh
// snapshot after a batch invalidated the previous one, before falling back
// to computing under the write lock.
const addQueryRetries = 2

// AddQuery registers one more query against the current topology, runs its
// initial full computation, and returns its index (stable: answers keep
// Reset-then-AddQuery order) together with its initial answer. It is a
// writer under the concurrency contract — but its O(V+E) computation runs
// against a topology snapshot with NO lock held; only the final publish
// takes the write lock (epoch-checked, retried if a batch landed in
// between). Readers are never stalled behind a registration, and a
// same-source registration at the current epoch copies the source's cold
// start under the read lock instead of computing.
func (m *MultiCISO) AddQuery(q Query) (int, algo.Value) {
	cnt := stats.NewCounters()
	for attempt := 0; attempt < addQueryRetries; attempt++ {
		m.mu.RLock()
		epoch := m.epoch
		a := m.a
		var st *state
		var gc *graph.Dynamic
		if cold := m.coldStartLocked(q.S); cold != nil {
			st = copyState(cold, q, cnt) // O(V); readers share the read lock
		} else {
			gc = m.g.Clone() // arena clone: cheap, and private to this goroutine
		}
		m.mu.RUnlock()

		if gc != nil {
			st = computeState(gc, a, q, cnt, m.coldPP)
		}

		m.mu.Lock()
		if m.epoch != epoch {
			m.mu.Unlock()
			continue // a batch landed mid-compute; the snapshot is stale
		}
		st.g = m.g // rebind from the clone (same epoch ⇒ identical topology)
		if gc != nil {
			m.recordColdStartLocked(st)
		}
		i := m.installLocked(q, cnt, st)
		ans := st.answer()
		m.mu.Unlock()
		return i, ans
	}
	// Update churn outpaced the optimistic path: compute under the write
	// lock so registration completes regardless.
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.buildStateLocked(q, cnt)
	i := m.installLocked(q, cnt, st)
	return i, st.answer()
}

// AddQueries registers qs in order under one write-lock hold: each query is
// built exactly as AddQuery's write-lock fallback builds it — a copy of its
// source's cold start at the current epoch, or a cold start on the live
// topology — so the result equals an AddQuery loop (indices, values,
// parents, counters) without a topology clone per distinct source. It
// returns the index of qs[0] (the rest follow consecutively) and the initial
// answers. Meant for bulk registration where no batch is competing
// (start-up, restore); readers wait for the whole list.
func (m *MultiCISO) AddQueries(qs []Query) (first int, answers []algo.Value) {
	m.mu.Lock()
	defer m.mu.Unlock()
	first = len(m.queries)
	answers = make([]algo.Value, len(qs))
	for k, q := range qs {
		cnt := stats.NewCounters()
		st := m.buildStateLocked(q, cnt)
		m.installLocked(q, cnt, st)
		answers[k] = st.answer()
	}
	return first, answers
}

// Topology returns the engine's live graph, not a clone (unlike
// CISO.Topology) — the one topology a serving layer validates against
// instead of keeping a copy of its own. Contract:
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

// installLocked appends a converged query state (write lock held).
func (m *MultiCISO) installLocked(q Query, cnt *stats.Counters, st *state) int {
	i := len(m.queries)
	m.queries = append(m.queries, q)
	m.cnts = append(m.cnts, cnt)
	m.states = append(m.states, st)
	m.suspect = append(m.suspect, false)
	m.joinGroupLocked(q.S, i)
	m.rebuildRepsLocked()
	m.cnt.AddAll(cnt) // fold the initial compute into the merged view
	return i
}

// setSuspectLocked flips query i's suspect mark, keeping the count that lets
// the hot paths skip the suspect sweep entirely when (as almost always)
// nothing is degraded.
func (m *MultiCISO) setSuspectLocked(i int, s bool) {
	if m.suspect[i] == s {
		return
	}
	m.suspect[i] = s
	if s {
		m.nSuspect++
	} else {
		m.nSuspect--
	}
	m.rebuildRepsLocked()
}

// mergeCounters rebuilds the combined view from every query's totals — paid
// only at Reset. ApplyBatch keeps the view current by folding in each
// query's per-batch delta instead, so steady-state bookkeeping no longer
// scales with total-counter-count × batches.
func (m *MultiCISO) mergeCounters() {
	m.cnt.Reset()
	for _, c := range m.cnts {
		m.cnt.AddAll(c)
	}
}

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
	out := make([]algo.Value, len(m.states))
	for i, st := range m.states {
		out[i] = st.answer()
	}
	return out
}

// AnswerOf returns the current answer of query i (registration order).
func (m *MultiCISO) AnswerOf(i int) algo.Value {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.states[i].answer()
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

// StateBytes reports the resident bytes of all per-query state: 8 value and
// 4 parent bytes per vertex per query, plus a fixed per-query header.
// Scratch is excluded (see ScratchBytes) — it scales with workers, not
// queries.
func (m *MultiCISO) StateBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	const headerBytes = 64 // the state's slice headers, approximately
	var total int64
	for _, st := range m.states {
		total += int64(len(st.val))*12 + headerBytes
	}
	return total
}

// ScratchBytes reports the resident bytes of the per-worker execution
// scratch (worklists + tagging buffers) — O(V × workers) by construction.
func (m *MultiCISO) ScratchBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var total int64
	for _, sc := range m.scs {
		if sc != nil {
			total += sc.bytes()
		}
	}
	return total
}

// ApplyBatch ingests one batch for every query and returns one Result per
// query (Reset order). Each query's Response covers the shared
// normalization/topology span (paid once, needed by every answer) plus that
// query's own classification, scheduling and recovery phases.
//
// A panic inside one query's processing (a buggy algorithm plugin, injected
// fault, ...) never crashes the process or deadlocks the other queries: it
// is recovered per query, the query's state is recomputed from scratch on
// the shared (still consistent) topology, and the result carries the panic
// as Result.Err. The other queries' results are unaffected.
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

// dirtyAttach pins one batch's change summary to the representative state
// recording it, so the recorder can be detached when the batch ends.
type dirtyAttach struct {
	st *state
	cs *ChangeSummary
}

// applyBatchCoreLocked is the shared batch engine. wantResults selects the
// classic O(Q) []Result materialisation (ApplyBatch) or the lean BatchDelta
// report (ApplyBatchDelta); the applied state transition is identical.
func (m *MultiCISO) applyBatchCoreLocked(batch []graph.Update, wantResults bool) ([]Result, BatchDelta) {
	nq := len(m.states)
	var results []Result
	if wantResults {
		results = make([]Result, nq)
	}

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
	// have passed the supplier-equality test and blocked the skip). Since no
	// member state changes, the per-event tests compose across the whole
	// batch (normalization guarantees one net event per edge), and values
	// are identical across a source group, so one representative decides for
	// all members. Suspect (degraded) queries are never skipped and never
	// represent.
	active := m.activeBuf[:0]
	attach := m.attachBuf[:0]
	var scanErrs map[int]error // rep query index → panic recovered in the skip scan
	// Summaries are recorded in place: grown up front so the recorder
	// pointers handed to the states stay valid, and each slot's vertex buffer
	// is reused (ChangeSummaries hands out deep copies).
	m.lastSums = slices.Grow(m.lastSums[:0], len(m.groups))
	skippedGroups := 0
	for gi := range m.groups {
		g := &m.groups[gi]
		if m.skip && g.rep >= 0 {
			unaffected, scanErr := m.groupUnaffectedLocked(g.rep, nb)
			if unaffected {
				skippedGroups++
				// Suspect members of a skipped group still process
				// individually.
				if m.nSuspect > 0 {
					for _, i := range g.members {
						if m.suspect[i] {
							active = append(active, i)
						}
					}
				}
				continue
			}
			if scanErr != nil {
				// The plugin panicked during the scan: the group runs the
				// full machinery, and the panic is charged to the
				// representative exactly like a phase panic — its phases are
				// suppressed and recovery recomputes its state below.
				if scanErrs == nil {
					scanErrs = make(map[int]error, 1)
				}
				scanErrs[g.rep] = scanErr
			}
		}
		// Processed group: one representative member records the region's
		// dirty set for the batch's change summaries.
		ri := g.rep
		if ri < 0 {
			ri = g.members[0]
		}
		k := len(m.lastSums)
		m.lastSums = m.lastSums[:k+1]
		cs := &m.lastSums[k]
		*cs = ChangeSummary{Source: g.src, Vertices: cs.Vertices[:0]}
		m.states[ri].dirty = cs
		attach = append(attach, dirtyAttach{st: m.states[ri], cs: cs})
		active = append(active, g.members...)
	}
	m.activeBuf, m.attachBuf = active, attach
	skipped := nq - len(active)

	// Nested-parallelism policy (DESIGN.md §16): flip the processed states
	// to intra-query parallel drains when the relax-worker budget is not
	// already consumed by query-level parallelism — i.e. narrow processed
	// sets and big frontiers; wide sets keep the per-query serial drains.
	// Restored on every exit path so states sit serial between batches
	// (recovery recomputes inside this call still drain parallel).
	if pp := m.intraPropLocked(len(active)); pp != nil {
		for _, i := range active {
			m.states[i].prop = pp
		}
		defer func() {
			for _, i := range active {
				m.states[i].prop = serialProp
			}
		}()
	}

	// Snapshot each processed query's counters on the caller's goroutine,
	// before any phase runs: the per-batch deltas derived from these drive
	// both the result attribution and the merged-view maintenance below, so
	// they must exist even for a query that panics in its first phase.
	// Dense snapshots into retained buffers: no per-query map allocation on
	// this path. Skipped queries do no work and carry no delta.
	for len(m.beforeBufs) < nq {
		m.beforeBufs = append(m.beforeBufs, nil)
	}
	for _, i := range active {
		m.beforeBufs[i] = m.cnts[i].DenseSnapshot(m.beforeBufs[i][:0])
	}
	// The lean path reports answer movement: capture processed queries'
	// pre-batch answers (skipped answers provably cannot move).
	preAns := m.preAnsBuf[:0]
	if !wantResults {
		for _, i := range active {
			preAns = append(preAns, m.states[i].answer())
		}
		m.preAnsBuf = preAns
	}
	errs := m.errsBuf[:0]
	for _, i := range active {
		if scanErrs != nil {
			errs = append(errs, scanErrs[i])
		} else {
			errs = append(errs, nil)
		}
	}
	m.errsBuf = errs

	// Shared: topology for the addition phase.
	if len(nb.Adds)+len(nb.Dels)+len(nb.Reweights) > 0 {
		m.epoch++ // recorded cold starts are converged for the old snapshot
	}
	for _, up := range nb.Adds {
		m.g.AddEdge(up.From, up.To, up.W)
	}
	for _, rw := range nb.Reweights {
		m.g.RemoveEdge(rw.From, rw.To)
		m.g.AddEdge(rw.From, rw.To, rw.NewW)
	}
	for i := range attach {
		attach[i].cs.Epoch = m.epoch
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

	// Phase A per processed query on the worker pool (the topology is
	// read-only from here until the shared deletion pass).
	addSpans := slices.Grow(m.spanBuf[:0], len(active))[:len(active)]
	m.spanBuf = addSpans
	m.forEachQuery(active, errs, func(k, i int) {
		tq := clk.now()
		m.states[i].processAdditions(addEvents)
		addSpans[k] = clk.since(tq)
	})

	// Shared: deletion topology.
	t1 := clk.now()
	for _, up := range nb.Dels {
		m.g.RemoveEdge(up.From, up.To)
	}
	sharedSpan := addTopoSpan + clk.since(t1)

	// Phases B–D per processed query: classify, prioritise, promote,
	// answer, delayed.
	m.forEachQuery(active, errs, func(k, i int) {
		st := m.states[i]
		tq := clk.now()
		st.classifyDeletions(delEvents, true)
		st.repairValuable()
		// Every query's response includes the (single) shared topology
		// span — the batch cannot be answered without it — plus its own
		// per-query phases.
		response := sharedSpan + addSpans[k] + clk.since(tq)
		st.repairDelayed()
		if wantResults {
			results[i] = Result{
				Answer:    st.answer(),
				Response:  response,
				Converged: sharedSpan + addSpans[k] + clk.since(tq),
				cntSrc:    m.cnts[i],
				cntDelta:  m.cnts[i].DenseDelta(m.beforeBufs[i]),
			}
		}
	})
	// Degraded queries: recover their state and surface the panic. A query
	// whose recovery recompute itself fails is marked suspect — its state
	// cannot be trusted, so it is never skipped and never represents its
	// group until a later recovery succeeds.
	var joinedErrs []error
	for k, err := range errs {
		if err == nil {
			continue
		}
		i := active[k]
		m.cnts[i].Inc(stats.CntQueryPanic)
		m.repairState(i)
		if wantResults {
			results[i] = Result{
				Answer:   m.states[i].answer(),
				Err:      err,
				cntSrc:   m.cnts[i],
				cntDelta: m.cnts[i].DenseDelta(m.beforeBufs[i]),
			}
		} else {
			joinedErrs = append(joinedErrs, err)
		}
	}
	// Detach the per-source change recorders.
	for _, at := range attach {
		at.st.dirty = nil
	}
	// Fold each processed query's per-batch delta into the merged view.
	// Every counter movement of this batch — recovery recomputes included —
	// is captured in the deltas, so this is equivalent to (but much cheaper
	// than) a full reset-and-re-add across all queries. Skipped queries
	// moved nothing.
	if wantResults {
		for _, i := range active {
			m.cnt.AddDelta(m.cnts[i], results[i].cntDelta)
		}
	} else {
		for _, i := range active {
			m.deltaBuf = m.cnts[i].AppendDenseDelta(m.deltaBuf[:0], m.beforeBufs[i])
			m.cnt.AddDelta(m.cnts[i], m.deltaBuf)
		}
	}
	if skipped > 0 {
		m.cnt.Add(stats.CntUpdateSkipQueries, int64(skipped))
		m.cnt.Add(stats.CntUpdateSkipGroups, int64(skippedGroups))
	}

	// Materialise the requested report.
	var delta BatchDelta
	if wantResults {
		// Skipped queries still get a Result — same length, same order, as
		// every ApplyBatch caller expects — but it is assembled from O(1)
		// reads: the (unchanged) answer and the shared span.
		if skipped > 0 {
			for i := range m.states {
				if results[i].cntSrc == nil {
					// Not filled by the processed loops above: skipped.
					results[i] = Result{
						Answer:    m.states[i].answer(),
						Response:  sharedSpan,
						Converged: sharedSpan,
						Skipped:   true,
						cntSrc:    m.cnts[i],
					}
				}
			}
		}
		return results, delta
	}
	delta.Skipped = skipped
	delta.Processed = len(active)
	delta.Err = errors.Join(joinedErrs...)
	for k, i := range active {
		if errs[k] != nil || m.states[i].answer() != preAns[k] {
			delta.Changed = append(delta.Changed, ChangedAnswer{Index: i, Value: m.states[i].answer()})
		}
	}
	slices.SortFunc(delta.Changed, func(a, b ChangedAnswer) int { return a.Index - b.Index })
	return nil, delta
}

// groupUnaffectedLocked reports whether every normalized event of nb is
// useless (Algorithm 1) against the converged values of the group's
// representative query rep — the per-source skip test. A plugin panic
// during the scan is returned as an error: the group conservatively runs
// the full machinery and the caller charges the panic to rep, whose
// recovery path owns the failure.
func (m *MultiCISO) groupUnaffectedLocked(rep int, nb NormalizedBatch) (unaffected bool, err error) {
	st := m.states[rep]
	defer func() {
		if r := recover(); r != nil {
			unaffected = false
			err = fmt.Errorf("multiciso: query %d %v panicked: %v", rep, m.queries[rep], r)
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

// forEachQuery runs f(k, idxs[k]) for every listed query whose errs[k] entry
// is still nil on a bounded worker pool: min(workers, len(idxs)) goroutines
// pull positions from a shared cursor, each owning one scratch slot which it
// attaches to a query's state for the duration of f. Each query touches only
// its own state and counters; the shared topology is read-only inside f. A
// panic inside f is recovered into errs[k] (and the slot's scratch
// scrubbed); the pool always drains. With change-driven skipping, idxs is
// the batch's processed subset — the pool never touches skipped queries.
func (m *MultiCISO) forEachQuery(idxs []int, errs []error, f func(k, i int)) {
	w := m.workers
	if w < 1 {
		w = 1
	}
	if w > len(idxs) {
		w = len(idxs)
	}
	m.ensureScratches(w)
	run := func(slot, k int) {
		i := idxs[k]
		st := m.states[i]
		st.sc = m.scs[slot]
		defer func() {
			if r := recover(); r != nil {
				errs[k] = fmt.Errorf("multiciso: query %d %v panicked: %v", i, m.queries[i], r)
				m.scs[slot].clear() // a mid-flight panic leaves marks behind
			}
			st.flush() // a panicking phase loses no counts and leaves none behind
			st.sc = nil
		}()
		f(k, i)
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
	if w < 1 {
		w = 1
	}
	n := m.g.NumVertices()
	for len(m.scs) < w {
		m.scs = append(m.scs, newScratch(m.a, n))
	}
}

// repairState restores query i to a consistent converged state after a
// recovered panic interrupted its processing mid-propagation: scratch marks
// are cleared and the query recomputes from scratch against the shared
// topology (which only mutates on the caller's goroutine, outside the
// per-query phases, so it is always consistent here). If the recompute
// itself panics the state stays degraded and the query is marked suspect —
// excluded from change-driven skipping and from representing its source
// group — until a later recovery converges; the error remains on the
// result.
func (m *MultiCISO) repairState(i int) {
	ok := false
	defer func() {
		_ = recover()
		m.setSuspectLocked(i, !ok)
	}()
	m.ensureScratches(1)
	st := m.states[i]
	st.sc = m.scs[0]
	defer func() {
		st.flush()
		st.sc = nil
	}()
	st.sc.clear()
	st.fullCompute()
	ok = true
}
