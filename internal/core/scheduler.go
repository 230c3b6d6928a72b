package core

import (
	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
)

// The scheduler stage: the priority worklist that orders propagation work,
// plus the transient scratch (worklist + tagging buffers) an execution slot
// carries. In the paper's pipeline this is the scheduling unit between the
// identification (classifier) and propagation stages.

// scratch is the per-execution working set: the worklist, the tagging buffer
// and the membership/key-path mark arrays. None of it survives a state's
// processing — between operations the worklist is empty, its index all zero
// and every mark is false — so MultiCISO shares one scratch per worker slot
// across all the source groups that slot executes, keeping scratch memory
// O(V × workers) instead of O(V × sources). Single-query engines own one
// scratch per state.
type scratch struct {
	wl     worklist
	buf    []graph.VertexID // reusable buffer for tagging
	inSet  []bool           // reusable membership marks, len N, all false between uses
	onPath []bool           // key-path marks, len N: true exactly on path's vertices
	path   []graph.VertexID // the key-path union keyPath last derived

	// Repairs: the roots' supplier scans (repairHeads), and the vertices the
	// region trim could not keep and those it kept only after the first of
	// them was found (repairRegion).
	heads        []headScan
	broken, late []graph.VertexID
	// Phases B–D: the batch's classified deletions awaiting their slot.
	valuable, delayed []pendingDeletion
}

// newScratch builds a scratch for n vertices, armed for a's worklist order.
func newScratch(a algo.Algorithm, n int) *scratch {
	sc := &scratch{inSet: make([]bool, n), onPath: make([]bool, n)}
	sc.wl.arm(a, n)
	return sc
}

// clear forces every transient mark back to the between-operations state.
// Only needed after a recovered panic left a state's processing mid-flight;
// normal operation restores the marks as it goes.
func (sc *scratch) clear() {
	sc.wl.reset()
	clear(sc.wl.pos) // a sift cut short by a panic can leave an entry unindexed
	sc.buf = sc.buf[:0]
	for i := range sc.inSet {
		sc.inSet[i] = false
	}
	for i := range sc.onPath {
		sc.onPath[i] = false
	}
	sc.path = sc.path[:0]
}

// worklist is an indexed best-first priority queue over (vertex, score)
// pairs. Best-first order makes propagation label-setting for monotone
// algorithms (a generic Dijkstra).
//
// In heap mode it holds at most one entry per vertex: pos maps a vertex to
// 1 + its slot in items (0 when absent), and a push of a queued vertex
// re-scores its entry in place and sifts it (decrease-key), so a pop never
// yields a superseded entry and the heap never outgrows the vertex count.
// The heap is 4-ary and monomorphic over []wlItem — sift-up/sift-down
// written against the concrete element type, so pushes and pops never box
// through an interface and the backing array is reused across reset cycles
// (zero allocations at steady state; tests assert this). Table algebras store
// score·sign as the key, so a sift step is one float compare; generic
// plug-ins compare through Better.
//
// For plateau algebras (algo.IsPlateau: every live score ties, e.g. Reach)
// the heap degenerates to a FIFO ring over the same backing array: when all
// scores are equal, arrival order IS best-first order, and push/pop become
// pointer bumps. The ring keeps no index.
type worklist struct {
	op      ops // heap order: the algebra's ⊗ through its op-code
	fifo    bool
	generic bool // heap keys compare through op.a.Better, not <
	items   []wlItem
	pos     []int32 // heap mode: vertex → 1 + its slot in items, 0 when absent
	head    int     // FIFO mode: index of the next pop; always 0 in heap mode
}

// wlItem is a queued vertex and its key: score·sign for table algebras (so
// smaller is better), the score itself for generic plug-ins.
type wlItem struct {
	v   graph.VertexID
	key algo.Value
}

// arm binds the worklist to an algorithm over n vertices and selects the
// plateau fast path.
func (w *worklist) arm(a algo.Algorithm, n int) {
	w.op = resolveOps(a)
	w.fifo = algo.IsPlateau(a)
	w.generic = w.op.code == opGeneric
	w.pos = nil
	if !w.fifo {
		w.pos = make([]int32, n)
	}
	w.items, w.head = w.items[:0], 0
}

// worklistShrinkCap is the high-water mark on the worklist's backing array:
// reset drops anything larger instead of pinning the worst batch's capacity
// in every scratch slot forever. 64Ki items is 1 MiB — far above any
// steady-state frontier (the zero-alloc guards run at size 64), so the
// shrink only ever fires after a genuinely exceptional batch.
const worklistShrinkCap = 1 << 16

// reset empties the worklist, clearing the index of every entry left queued
// (a search that stops early leaves some behind).
func (w *worklist) reset() {
	if !w.fifo {
		for _, it := range w.items {
			w.pos[it.v] = 0
		}
	}
	if cap(w.items) > worklistShrinkCap {
		w.items = nil // next push reallocates at append's default growth
	} else {
		w.items = w.items[:0]
	}
	w.head = 0
}

func (w *worklist) len() int { return len(w.items) - w.head }

// push queues v at score, or — in heap mode, when v is queued already —
// re-scores its entry and sifts it to its new place.
func (w *worklist) push(v graph.VertexID, score algo.Value) {
	if w.fifo {
		w.items = append(w.items, wlItem{v: v, key: score})
		return
	}
	key := score * w.op.sign
	if p := w.pos[v]; p != 0 {
		i := int(p - 1)
		old := w.items[i].key
		w.items[i].key = key
		if w.less(key, old) {
			w.siftUp(i)
		} else {
			w.siftDown(i)
		}
		return
	}
	w.items = append(w.items, wlItem{v: v, key: key})
	w.siftUp(len(w.items) - 1)
}

func (w *worklist) pop() (graph.VertexID, algo.Value) {
	if w.fifo {
		it := w.items[w.head]
		w.head++
		if w.head == len(w.items) {
			w.items = w.items[:0]
			w.head = 0
		}
		return it.v, it.key
	}
	it := w.items[0]
	w.pos[it.v] = 0
	last := len(w.items) - 1
	if last > 0 {
		w.items[0] = w.items[last]
		w.items = w.items[:last]
		w.siftDown(0)
	} else {
		w.items = w.items[:0]
	}
	return it.v, it.key * w.op.sign
}

// less orders two heap keys: true when a is strictly better than b.
func (w *worklist) less(a, b algo.Value) bool {
	if w.generic {
		return w.op.a.Better(a, b)
	}
	return a < b
}

// heapArity is the heap's fan-out. A cold start's heap holds a large share
// of the vertices, and four children per slot halve the sift-down depth of
// a binary heap for one more compare per level (DESIGN.md §9.2 has the
// measurement).
const heapArity = 4

// siftUp and siftDown move items[i] to its place with the hole-shifting
// idiom, keeping pos in step with every entry they move. The algebra is
// resolved once per sift: table keys compare with <, generic ones through
// Better.
func (w *worklist) siftUp(i int) {
	items, pos := w.items, w.pos
	item := items[i]
	if w.generic {
		better := w.op.a.Better
		for i > 0 {
			p := (i - 1) / heapArity
			if !better(item.key, items[p].key) {
				break
			}
			items[i] = items[p]
			pos[items[i].v] = int32(i + 1)
			i = p
		}
	} else {
		for i > 0 {
			p := (i - 1) / heapArity
			if !(item.key < items[p].key) {
				break
			}
			items[i] = items[p]
			pos[items[i].v] = int32(i + 1)
			i = p
		}
	}
	items[i] = item
	pos[item.v] = int32(i + 1)
}

func (w *worklist) siftDown(i int) {
	items, pos := w.items, w.pos
	n := len(items)
	item := items[i]
	if w.generic {
		better := w.op.a.Better
		for {
			best := heapArity*i + 1
			if best >= n {
				break
			}
			for c, end := best+1, min(best+heapArity, n); c < end; c++ {
				if better(items[c].key, items[best].key) {
					best = c
				}
			}
			if !better(items[best].key, item.key) {
				break
			}
			items[i] = items[best]
			pos[items[i].v] = int32(i + 1)
			i = best
		}
	} else {
		for {
			best := heapArity*i + 1
			if best >= n {
				break
			}
			bk, end := items[best].key, min(best+heapArity, n)
			for c := best + 1; c < end; c++ {
				if items[c].key < bk {
					best, bk = c, items[c].key
				}
			}
			if !(bk < item.key) {
				break
			}
			items[i] = items[best]
			pos[items[i].v] = int32(i + 1)
			i = best
		}
	}
	items[i] = item
	pos[item.v] = int32(i + 1)
}

// pendingDeletion is a classified deletion awaiting its scheduling slot.
type pendingDeletion struct {
	u, v graph.VertexID
	done bool // delayed entries only: promoted and repaired in phase C
}

// classifyDeletions is phase B for one state: derive the key paths and sort
// the batch's deletion events (their topology change already applied) into
// the scratch's valuable and delayed lists; useless ones are dropped.
// dels[plain:] are re-weightings' deletion halves. With classify off every
// event is valuable, in arrival order (the no-drop ablation).
func (st *state) classifyDeletions(dels []graph.Update, plain int, classify bool) {
	sc := st.sc
	sc.valuable, sc.delayed = sc.valuable[:0], sc.delayed[:0]
	st.keyPath()
	for k, up := range dels {
		class := ClassValuable
		if classify {
			class = st.classifyDeletion(up.From, up.To, up.W, k >= plain)
		}
		switch class {
		case ClassValuable:
			st.tally[tValuable]++
			sc.valuable = append(sc.valuable, pendingDeletion{u: up.From, v: up.To})
		case ClassDelayed:
			st.tally[tDelayed]++
			sc.delayed = append(sc.delayed, pendingDeletion{u: up.From, v: up.To})
		default:
			st.tally[tUseless]++
		}
	}
}

// repairValuable is phase C: repair the valuable deletions, highest priority
// first in arrival order. Each repair can reroute the key path, so it is
// re-derived and every pending delayed deletion the new path runs through is
// promoted (DESIGN.md §3.2); the answer is final when no valuable work
// remains.
func (st *state) repairValuable() {
	sc := st.sc
	for i := 0; i < len(sc.valuable); i++ {
		st.repairVertex(sc.valuable[i].v)
		st.keyPath()
		for j := range sc.delayed {
			if pd := &sc.delayed[j]; !pd.done && st.edgeOnKeyPath(pd.u, pd.v) {
				pd.done = true
				st.tally[tPromoted]++
				sc.valuable = append(sc.valuable, *pd)
			}
		}
	}
}

// repairDelayed is phase D: the delayed deletions still pending restore full
// convergence after the response, as one multi-root region repair
// (DESIGN.md §9.6). Each pending head, in arrival order, gets repairVertex's
// supplier scan and adopts a certified exact supplier when it has one; the
// heads left over are marked and repaired together (repairHeads): their
// dependents are tagged in one BFS, then trimmed and drained once. Every
// vertex outside the union then derives its old value through existing exact
// edges that avoid every pending head, so it is final, and repairRegion's
// trim argument holds with many roots. It ends the batch: the key-path marks
// are cleared and the phases' tallies flushed.
func (st *state) repairDelayed() {
	sc := st.sc
	sc.heads = sc.heads[:0]
	for _, pd := range sc.delayed {
		v := pd.v
		if pd.done || v == st.src || sc.inSet[v] || !st.op.reached(st.val[v]) {
			continue
		}
		if h, adopted := st.scanSuppliers(v, st.val[v]); !adopted {
			sc.inSet[v] = true
			sc.heads = append(sc.heads, h)
		}
	}
	if len(sc.heads) > 0 {
		st.repairHeads()
	}
	st.clearKeyPath()
	st.flush()
}
