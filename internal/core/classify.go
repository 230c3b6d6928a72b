package core

import (
	"slices"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
)

// Class is the contribution level Algorithm 1 assigns to a graph update.
type Class int

// Contribution levels, in scheduling-priority order.
const (
	// ClassUseless updates cannot change any converged state; they are
	// dropped (their topology change still applies).
	ClassUseless Class = iota
	// ClassDelayed deletions change their head vertex's state but lie off
	// the global key path: they cannot change the current answer, only
	// future ones, so they are processed after the response.
	ClassDelayed
	// ClassValuable updates change converged state on (or feeding) the
	// query; they are processed with the highest priority.
	ClassValuable
)

func (c Class) String() string {
	switch c {
	case ClassUseless:
		return "useless"
	case ClassDelayed:
		return "delayed"
	case ClassValuable:
		return "valuable"
	default:
		return "invalid"
	}
}

// ClassifyAddition implements Algorithm 1 lines 3–9: an addition u→v is
// valuable iff the triangle check ⊕(state[u], w) improves on state[v] —
// i.e. the new edge supplies a better path to v. Otherwise a better path
// already exists and the update is useless.
func ClassifyAddition(a algo.Algorithm, stateU, stateV algo.Value, rawW float64) Class {
	if a.Better(a.Propagate(stateU, a.Weight(rawW)), stateV) {
		return ClassValuable
	}
	return ClassUseless
}

// ClassifyDeletion implements Algorithm 1 lines 10–20: a deletion u→v is
// potentially valuable iff the deleted edge currently supplies v's state
// (⊕(state[u], w) == state[v], the triangle equality). Among those, the
// deletion is non-delayed valuable when the edge lies on the global key
// path (onKeyPath), because then the current answer depends on it; other
// suppliers are delayed. Non-suppliers are useless.
func ClassifyDeletion(a algo.Algorithm, stateU, stateV algo.Value, rawW float64, onKeyPath bool) Class {
	if !algo.Reached(a, stateV) {
		// An unreached head has nothing to lose; this also keeps the
		// (possibly huge) unreached region's edges — where the paper's
		// literal equality test degenerates to Init == Init — out of the
		// delayed queue.
		return ClassUseless
	}
	if a.Propagate(stateU, a.Weight(rawW)) != stateV {
		return ClassUseless
	}
	if onKeyPath {
		return ClassValuable
	}
	return ClassDelayed
}

// addUseless is ClassifyAddition's uselessness test against st's values: the
// new edge u→v (weight w) does not improve the head.
func (st *state) addUseless(u, v graph.VertexID, w float64) bool {
	return !st.op.better(st.op.extend(st.val[u], w), st.val[v])
}

// delUseless is ClassifyDeletion's uselessness test against st's values: the
// deleted edge u→v (stored weight w0) supplies no state — the head is
// unreached, or the supplier equality fails.
func (st *state) delUseless(u, v graph.VertexID, w0 float64) bool {
	sv := st.val[v]
	return !st.op.reached(sv) || st.op.extend(st.val[u], w0) != sv
}

// classifyDeletion is ClassifyDeletion against st's values and the key-path
// marks keyPath last wrote. A re-weighting's deletion half also supplies v
// when v records u as its parent: the edge carries its new weight through
// phase A, so when phase A improved u, v kept the value the old weight
// derived while the equality test reads u's new value — a supplier the
// equality alone would drop, leaving v stale. A plain deletion's edge is
// present through phase A, so there an improved u re-derived v over it and
// the equality alone is exact.
func (st *state) classifyDeletion(u, v graph.VertexID, w0 float64, reweight bool) Class {
	switch {
	case (!reweight || st.parent[v] != u) && st.delUseless(u, v, w0):
		return ClassUseless
	case st.edgeOnKeyPath(u, v):
		return ClassValuable
	}
	return ClassDelayed
}

// keyPath re-derives the global key path of every destination — the union
// of the parent chains d → … → s — and moves the scratch's key-path marks
// onto it: the previous union's vertices are un-marked, the new one's marked.
// Each chain is walked only until it meets a vertex already marked, so a
// call costs the two unions, not O(V) and not the sum of the paths. The
// returned slice lists the union (for one destination: the path in
// source-to-destination order), nil when no destination is reached; it is
// the scratch's buffer and is overwritten by the next call.
func (st *state) keyPath() []graph.VertexID {
	sc := st.sc
	st.clearKeyPath()
	path := sc.path
	for _, d := range st.dests {
		if !st.op.reached(st.val[d]) {
			continue
		}
		start, complete := len(path), false
		for v := d; v != graph.NoVertex && len(path)-start <= len(st.val); v = st.parent[v] {
			if sc.onPath[v] {
				complete = true // joins an earlier destination's chain
				break
			}
			path = append(path, v)
			if v == st.src {
				complete = true
				break
			}
		}
		if !complete {
			// d reached without a chain to s: a dead end or a cycle, which a
			// region repair can close mid-batch by adopting the head of a
			// pending deletion around its stale parent. No key path, as if d
			// were unreached, until phase D repairs that head.
			path = path[:start]
			continue
		}
		for _, x := range path[start:] {
			sc.onPath[x] = true
		}
	}
	sc.path = path
	if len(path) == 0 {
		return nil
	}
	slices.Reverse(path) // one destination: s→…→d order
	return path
}

// clearKeyPath un-marks the key path, restoring the scratch's
// between-operations state.
func (st *state) clearKeyPath() {
	for _, v := range st.sc.path {
		st.sc.onPath[v] = false
	}
	st.sc.path = st.sc.path[:0]
}

// edgeOnKeyPath reports whether edge u→v lies on the key paths keyPath last
// derived, i.e. v is on the union and u supplies v.
func (st *state) edgeOnKeyPath(u, v graph.VertexID) bool {
	return st.sc.onPath[v] && st.parent[v] == u
}
