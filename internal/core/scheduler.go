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
// processing — between operations the worklist is empty and every mark is
// false — so MultiCISO shares one scratch per worker slot across all the
// source groups that slot executes, keeping scratch memory O(V × workers)
// instead of O(V × sources). Single-query engines own one scratch per state.
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
	sc.wl.arm(a)
	return sc
}

// clear forces every transient mark back to the between-operations state.
// Only needed after a recovered panic left a state's processing mid-flight;
// normal operation restores the marks as it goes.
func (sc *scratch) clear() {
	sc.wl.reset()
	sc.buf = sc.buf[:0]
	for i := range sc.inSet {
		sc.inSet[i] = false
	}
	for i := range sc.onPath {
		sc.onPath[i] = false
	}
	sc.path = sc.path[:0]
}

// worklist is a lazy best-first priority queue over (vertex, score) pairs.
// Best-first order makes propagation label-setting for monotone algorithms
// (a generic Dijkstra); stale entries are skipped at pop time.
//
// The queue is a monomorphic binary heap over []wlItem — sift-up/sift-down
// written against the concrete element type, so pushes and pops never box
// through an interface and the backing array is reused across reset cycles
// (zero allocations at steady state; tests assert this).
//
// For plateau algebras (algo.IsPlateau: every live score ties, e.g. Reach)
// the heap degenerates to a FIFO ring over the same backing array: when all
// scores are equal, arrival order IS best-first order, and push/pop become
// pointer bumps.
type worklist struct {
	op    ops // heap order: the algebra's ⊗ through its op-code
	fifo  bool
	items []wlItem
	head  int // FIFO mode: index of the next pop; always 0 in heap mode
}

type wlItem struct {
	v     graph.VertexID
	score algo.Value
}

// arm binds the worklist to an algorithm and selects the plateau fast path.
func (w *worklist) arm(a algo.Algorithm) {
	w.op = resolveOps(a)
	w.fifo = algo.IsPlateau(a)
	w.reset()
}

// worklistShrinkCap is the high-water mark on the worklist's backing array:
// reset drops anything larger instead of pinning the worst batch's capacity
// in every scratch slot forever. 64Ki items is 1 MiB — far above any
// steady-state frontier (the zero-alloc guards run at size 64), so the
// shrink only ever fires after a genuinely exceptional batch.
const worklistShrinkCap = 1 << 16

func (w *worklist) reset() {
	if cap(w.items) > worklistShrinkCap {
		w.items = nil // next push reallocates at append's default growth
	} else {
		w.items = w.items[:0]
	}
	w.head = 0
}

func (w *worklist) len() int { return len(w.items) - w.head }

func (w *worklist) push(v graph.VertexID, score algo.Value) {
	w.items = append(w.items, wlItem{v: v, score: score})
	if !w.fifo {
		w.siftUp(len(w.items) - 1)
	}
}

func (w *worklist) pop() (graph.VertexID, algo.Value) {
	if w.fifo {
		it := w.items[w.head]
		w.head++
		if w.head == len(w.items) {
			w.items = w.items[:0]
			w.head = 0
		}
		return it.v, it.score
	}
	it := w.items[0]
	last := len(w.items) - 1
	w.items[0] = w.items[last]
	w.items = w.items[:last]
	if last > 1 {
		w.siftDown(0)
	}
	return it.v, it.score
}

func (w *worklist) siftUp(i int) {
	item := w.items[i]
	for i > 0 {
		p := (i - 1) / 2
		if !w.op.better(item.score, w.items[p].score) {
			break
		}
		w.items[i] = w.items[p]
		i = p
	}
	w.items[i] = item
}

func (w *worklist) siftDown(i int) {
	n := len(w.items)
	item := w.items[i]
	for {
		best := 2*i + 1
		if best >= n {
			break
		}
		if r := best + 1; r < n && w.op.better(w.items[r].score, w.items[best].score) {
			best = r
		}
		if !w.op.better(w.items[best].score, item.score) {
			break
		}
		w.items[i] = w.items[best]
		i = best
	}
	w.items[i] = item
}

// pendingDeletion is a classified deletion awaiting its scheduling slot.
type pendingDeletion struct {
	u, v graph.VertexID
	done bool // delayed entries only: promoted and repaired in phase C
}

// classifyDeletions is phase B for one state: derive the key paths and sort
// the batch's deletion events (their topology change already applied) into
// the scratch's valuable and delayed lists; useless ones are dropped. With
// classify off every event is valuable, in arrival order (the no-drop
// ablation).
func (st *state) classifyDeletions(dels []graph.Update, classify bool) {
	sc := st.sc
	sc.valuable, sc.delayed = sc.valuable[:0], sc.delayed[:0]
	st.keyPath()
	for _, up := range dels {
		class := ClassValuable
		if classify {
			class = st.classifyDeletion(up.From, up.To, up.W)
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
