package core

import (
	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
)

// state binds the stages of the incremental-computation kernel for one
// source (DESIGN.md §11), mirroring the paper's pipeline (§III-A):
//
//   - topology view: g, the shared dynamic graph (read-only inside the
//     phases; mutated only between them by the owning engine);
//   - vertex state: val and parent, one flat slot per vertex — the values
//     and the dependency tree (which in-neighbor supplies each value);
//   - classifier: the contribution tests and key-path tracking (classify.go),
//     reading the vertex state;
//   - scheduler + propagator: the worklist and the relax/drain/repair
//     machinery (scheduler.go, propagate.go), working over transient scratch
//     that can be shared across the states executed on the same worker.
//
// Invariant maintained between operations: for every vertex x ≠ source with
// parent[x] != NoVertex, the edge parent[x]→x exists and
// val[x] == ⊕(val[parent[x]], w(parent[x]→x)). The source is pinned at
// Source() with no parent. This invariant is what makes parent-based
// deletion tagging exact (DESIGN.md §3.2); tests assert it.
type state struct {
	g   *graph.Dynamic
	a   algo.Algorithm
	src graph.VertexID
	// dests are the destinations whose key paths phase B marks: the one
	// query of a single-query engine, every member of a MultiCISO source
	// group (DESIGN.md §11.2).
	dests []graph.VertexID

	// val[v] is v's value and parent[v] the in-neighbor supplying it
	// (NoVertex if none). Reads index them directly; writes go through
	// setVertex/adoptParent so the change summary sees them.
	val    []algo.Value
	parent []graph.VertexID

	// op is the algebra resolved for the hot paths (ops.go); a is kept for
	// the cold ones (Source, Name, the invariant audit).
	op ops

	// The kernel's counts (relax, state_update, activation, tagged, … — see
	// tallyNames) sit on the per-⊕ hot path. One goroutine owns a state for
	// the length of a phase, so they are counted in plain tallies and added to
	// the pre-resolved atomic cells once per phase, by flush (DESIGN.md §9.3).
	tally [numTallies]int64
	h     [numTallies]stats.Handle

	// sc is the execution scratch (worklist + tagging buffers). Single-query
	// engines own one per state; MultiCISO attaches a per-worker scratch
	// before running a group's phases, so scratch memory scales with worker
	// count, not source count.
	sc *scratch

	// dirty, when non-nil, records every vertex this state writes into the
	// batch's per-source change summary (DESIGN.md §15). MultiCISO attaches
	// it to each processed group's state for the duration of the batch;
	// single-query engines leave it nil, so the hot path pays one predicted
	// branch.
	dirty *ChangeSummary
}

// newState builds a state with its own scratch and every vertex unreached —
// the configuration every single-query engine uses.
func newState(g *graph.Dynamic, a algo.Algorithm, q Query, cnt *stats.Counters) *state {
	st := newStateOn(newScratch(a, g.NumVertices()), g, a, q.S, cnt)
	st.dests = []graph.VertexID{q.D}
	st.resetAll()
	return st
}

// newStateOn binds a state for src over freshly allocated, zeroed vertex
// arrays and no destination; the caller resets or computes over them. sc may
// be nil for states whose owner attaches a scratch per execution (MultiCISO).
func newStateOn(sc *scratch, g *graph.Dynamic, a algo.Algorithm, src graph.VertexID, cnt *stats.Counters) *state {
	n := g.NumVertices()
	st := &state{
		g:      g,
		a:      a,
		src:    src,
		val:    make([]algo.Value, n),
		parent: make([]graph.VertexID, n),
		op:     resolveOps(a),
		sc:     sc,
	}
	for i, name := range tallyNames {
		st.h[i] = cnt.Handle(name)
	}
	return st
}

// Indices into state.tally.
const (
	tRelax = iota
	tState
	tAct
	tTagged
	tLeaf
	tRegion
	tValuable
	tDelayed
	tUseless
	tPromoted
	numTallies
)

var tallyNames = [numTallies]string{
	tRelax: stats.CntRelax, tState: stats.CntStateUpdate, tAct: stats.CntActivation,
	tTagged: stats.CntTagged, tLeaf: stats.CntRepairLeaf, tRegion: stats.CntRepairRegion,
	tValuable: stats.CntUpdateValuable, tDelayed: stats.CntUpdateDelayed, tUseless: stats.CntUpdateUseless,
	tPromoted: stats.CntUpdatePromoted,
}

// flush adds the plain tallies to their atomic cells and zeroes them. Every
// phase exit calls it — processAddition, repairVertex, fullCompute, the
// engines' own search loops, and forEachQuery's deferred recover — so between
// public entry points the tallies are zero and Counters() is complete.
func (st *state) flush() {
	for i, n := range st.tally {
		if n != 0 {
			st.h[i].Add(n)
			st.tally[i] = 0
		}
	}
}

// setVertex writes v's value and parent together.
func (st *state) setVertex(v graph.VertexID, val algo.Value, parent graph.VertexID) {
	if st.dirty != nil {
		st.dirty.note(v)
	}
	st.val[v] = val
	st.parent[v] = parent
}

// adoptParent rewrites only v's parent (supplier adoption during repair).
func (st *state) adoptParent(v, parent graph.VertexID) {
	if st.dirty != nil {
		st.dirty.note(v)
	}
	st.parent[v] = parent
}

// resetAll puts every vertex back to the unreached state with the source
// pinned.
func (st *state) resetAll() {
	init := st.a.Init()
	for i := range st.val {
		st.val[i] = init
		st.parent[i] = graph.NoVertex
	}
	st.val[st.src] = st.a.Source()
}

// answer returns a single-query engine's answer: its destination's value.
func (st *state) answer() algo.Value { return st.val[st.dests[0]] }

// fullCompute converges from scratch on the current topology.
func (st *state) fullCompute() {
	if st.dirty != nil {
		st.dirty.noteAll() // a from-scratch rebuild dirties the whole region
	}
	st.resetAll()
	st.sc.wl.reset()
	st.sc.wl.push(st.src, st.val[st.src])
	st.drain()
	st.flush()
}
