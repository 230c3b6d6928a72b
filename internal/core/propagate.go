package core

import (
	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
)

// The propagator stage: monotonic best-first propagation (relaxEdge/drain)
// and KickStarter-style deletion recovery (repairVertex + tagging) over the
// vertex state, pulling work from the scheduler's worklist.

// relaxEdge applies ⊕/⊗ to edge u→v with raw weight w. It returns whether
// v improved (in which case v's new value has been pushed for propagation).
// The source vertex is pinned and never updated.
func (st *state) relaxEdge(u, v graph.VertexID, w float64) bool {
	st.tally[tRelax]++
	if v == st.src {
		return false
	}
	t := st.op.extend(st.val[u], w)
	if !st.op.better(t, st.val[v]) {
		return false
	}
	st.setVertex(v, t, u)
	st.tally[tState]++
	st.tally[tAct]++
	st.sc.wl.push(v, t)
	return true
}

// drain runs best-first propagation until the worklist empties — the one
// drain every engine and phase uses (DESIGN.md §16). Stale entries (value no
// longer current) are skipped lazily.
func (st *state) drain() {
	wl := &st.sc.wl
	for wl.len() > 0 {
		v, score := wl.pop()
		if st.val[v] != score {
			continue // superseded by a better value
		}
		for _, e := range st.g.Out(v) {
			st.relaxEdge(v, e.To, e.W)
		}
	}
}

// processAddition ingests an addition whose topology change has already
// been applied: relax the new edge and propagate any improvement. It
// reports whether any state changed — note that the relaxation's Better
// test is exactly Algorithm 1's valuable-addition check.
func (st *state) processAddition(u, v graph.VertexID, w float64) bool {
	changed := st.relaxEdge(u, v, w)
	if changed {
		st.drain()
	}
	st.flush()
	return changed
}

// processAdditions is phase A for a whole batch whose edges are all in the
// topology already: relax every addition event, then drain once. The
// fixpoint is the one per-event drains reach — an event relaxed against a
// tail that improves later is relaxed again when the drain pops that tail.
func (st *state) processAdditions(adds []graph.Update) {
	for _, up := range adds {
		st.relaxEdge(up.From, up.To, up.W)
	}
	if st.sc.wl.len() > 0 {
		st.drain()
	}
	st.flush()
}

// repairVertex re-derives v after one of its in-edges was deleted, and
// reports whether v's value changed. DESIGN.md §9.6 has the proofs.
//
// One scan of In(v) yields the best replacement value, its first supplier,
// and every supplier still offering exactly the old value. When one of the
// latter is provably not a dependent of v it is adopted in place (adopting a
// dependent would create a self-supporting island). Two certificates are
// used, in cost order:
//
//   - the tail's score is strictly better than v's — a vertex deriving
//     from v can never score strictly better (monotone ⊕);
//   - the tail's parent chain reaches the source without passing v — the
//     chain IS its current derivation. For algebras with massive ties
//     (Reach: every reached vertex scores 1) this is what keeps supplier
//     deletions from degenerating into whole-subtree re-computations.
//
// Otherwise the region transitively derived from v is tagged through parent
// pointers — the KickStarter-style tagging overhead the paper attributes to
// deletions — and repaired (repairHeads).
func (st *state) repairVertex(v graph.VertexID) bool {
	if v == st.src {
		return false // the source is pinned
	}
	old := st.val[v]
	if !st.op.reached(old) {
		return false // nothing to lose
	}
	if h, adopted := st.scanSuppliers(v, old); !adopted {
		st.sc.inSet[v] = true
		st.sc.heads = append(st.sc.heads[:0], h)
		st.repairHeads()
	}
	st.flush()
	return st.val[v] != old
}

// headScan is a repair root's supplier scan: the best value its
// in-neighbours offer and the first supplier offering it.
type headScan struct {
	v, parent graph.VertexID
	best      algo.Value
	// inRegion: v is repaired with the region — some vertex derives from it,
	// or its best supplier lies in the region.
	inRegion bool
}

// scanSuppliers is a repair's first scan of In(v), whose value old lost a
// supplier: it returns the best value the in-neighbours offer and its first
// supplier, and adopts in place a supplier still offering exactly old that
// provably does not derive from v (the certificates above), reporting
// whether it did.
func (st *state) scanSuppliers(v graph.VertexID, old algo.Value) (h headScan, adopted bool) {
	cand := st.sc.buf[:0]
	h = headScan{v: v, parent: graph.NoVertex, best: st.op.init}
	for _, e := range st.g.In(v) {
		if e.To == v {
			continue // a self-loop supplies nothing
		}
		st.tally[tRelax]++
		t := st.op.extend(st.val[e.To], e.W)
		if st.op.better(t, h.best) {
			h.best, h.parent = t, e.To
		}
		if t == old {
			cand = append(cand, e.To)
		}
	}
	st.sc.buf = cand
	if h.best == old {
		for _, y := range cand {
			if st.op.better(st.val[y], old) || !st.chainPasses(y, v) {
				st.adoptParent(v, y)
				return h, true
			}
		}
	}
	return h, false
}

// repairHeads repairs the roots in sc.heads — each marked in inSet and left
// without a certified supplier — and everything deriving from them. Their
// dependents are tagged in one BFS. A root nothing derives from (a leaf of
// the dependency tree) whose best supplier lies outside the tagged region
// takes (best, parent) from its own scan; the rest of the region is
// trimmed, seeded and drained once.
func (st *state) repairHeads() {
	sc := st.sc
	sc.buf = sc.buf[:0]
	for _, h := range sc.heads {
		sc.buf = append(sc.buf, h.v)
	}
	region := st.tagDependents()
	// Leaf roots: no vertex derives from one, and every in-neighbour outside
	// the region holds its final value while those inside can only get
	// worse, so a best supplier outside the region makes the scan's
	// (best, parent) the root's repaired state. It is no better than the old
	// value, so it improves no out-neighbour: no drain is owed, and the
	// region's trim reads it as a final supplier. Decided before any root is
	// unmarked: a root's scan read the others' old values.
	for i := range sc.heads {
		if h := &sc.heads[i]; h.parent != graph.NoVertex && sc.inSet[h.parent] {
			h.inRegion = true
		}
	}
	rest := region[:0]
	for i, x := range region {
		if i < len(sc.heads) && !sc.heads[i].inRegion {
			st.tally[tLeaf]++
			sc.inSet[x] = false
			st.setVertex(x, sc.heads[i].best, sc.heads[i].parent)
			continue
		}
		rest = append(rest, x)
	}
	if len(rest) > 0 {
		st.tally[tRegion]++
		st.repairRegion(rest)
	}
}

// repairRegion re-converges a tagged region (in dependence, i.e. BFS, order;
// all of it marked in inSet) with adoption trimming. Every region vertex
// that still derives its exact old value from a supplier outside the
// still-marked set adopts that supplier in place and is unmarked (an
// unmarked vertex's chain provably avoids every marked one — if it passed a
// member it would pass v and be a member itself), which keeps whole subtrees
// out of the repair: their root is unmarked before they are examined. The
// rest are broken: each takes the best value its unmarked suppliers offer as
// a tentative state and is pushed. That value has seen every supplier but
// the marked ones — which end up broken (pushed, so the drain relaxes their
// out-edges) or adopted later, and those relax their edges into the broken
// set here, before the drain settles the rest.
func (st *state) repairRegion(region []graph.VertexID) {
	sc := st.sc
	inSet := sc.inSet
	broken, late := sc.broken[:0], sc.late[:0]
	for _, x := range region {
		bestX, bestParent := st.op.init, graph.NoVertex
		for _, e := range st.g.In(x) {
			if inSet[e.To] {
				continue // still-suspect supplier
			}
			st.tally[tRelax]++
			if t := st.op.extend(st.val[e.To], e.W); st.op.better(t, bestX) {
				bestX, bestParent = t, e.To
			}
		}
		if bestX != st.val[x] {
			st.setVertex(x, bestX, bestParent)
			broken = append(broken, x)
			continue
		}
		st.adoptParent(x, bestParent)
		inSet[x] = false // adopted: value survives untouched
		if len(broken) > 0 {
			late = append(late, x)
		}
	}
	sc.wl.reset()
	for _, x := range broken {
		if val := st.val[x]; st.op.reached(val) {
			st.tally[tAct]++
			sc.wl.push(x, val)
		}
	}
	for _, u := range late {
		for _, e := range st.g.Out(u) {
			if inSet[e.To] {
				st.relaxEdge(u, e.To, e.W)
			}
		}
	}
	for _, x := range broken {
		inSet[x] = false
	}
	sc.broken, sc.late = broken[:0], late[:0]
	st.drain()
}

// chainPasses reports whether y's parent chain passes through v (i.e. y's
// current value derives from v). The walk is bounded by the vertex count;
// an anomalous overflow is conservatively treated as "passes".
func (st *state) chainPasses(y, v graph.VertexID) bool {
	for hops := 0; hops <= len(st.val); hops++ {
		if y == v {
			return true
		}
		y = st.parent[y]
		if y == graph.NoVertex {
			return false
		}
	}
	return true
}

// tagDependents extends the roots in sc.buf — sc.heads' vertices, in order,
// already marked in inSet — with every vertex whose value transitively
// depends on one of them through parent pointers, in one BFS that visits
// each vertex once, and sets inRegion on the heads something derives from.
// It marks the region in inSet (callers must clear the marks) and counts
// tagged vertices.
func (st *state) tagDependents() []graph.VertexID {
	sc := st.sc
	for i := 0; i < len(sc.buf); i++ {
		x := sc.buf[i]
		st.tally[tTagged]++
		for _, e := range st.g.Out(x) {
			if st.parent[e.To] != x {
				continue
			}
			if i < len(sc.heads) {
				sc.heads[i].inRegion = true
			}
			if !sc.inSet[e.To] {
				sc.inSet[e.To] = true
				sc.buf = append(sc.buf, e.To)
			}
		}
	}
	return sc.buf
}
