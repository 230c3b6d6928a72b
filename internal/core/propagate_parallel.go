package core

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
)

// Bucketed intra-query parallel propagation (DESIGN.md §16).
//
// The parallel propagator replaces the serial best-first drain with a
// round-based scheme: the outstanding work lives in a deduplicated pending
// set; each round selects a deterministic score bucket (delta-stepping for
// ranked algebras, the whole level for plateau algebras), relaxes the
// bucket's out-edges across a bounded worker group committing improvements
// with atomic min-CAS on the value cells, then resolves parent pointers
// sequentially from the workers' claim lists. Determinism contract:
//
//   - Values are bit-identical to the serial drain on every algebra. Both
//     schedules converge to the same least fixpoint of the monotone
//     relaxation system, and the algebras produce neither NaNs nor signed
//     zeros, so "same value" is "same bits".
//   - Parents are deterministic given (frontierMin, buckets) — independent
//     of worker count and interleaving. A vertex is (re)parented only in a
//     round where its VALUE improved, to the minimum-id supplier among that
//     round's claims still offering the committed value. The surviving claim
//     set is a function of the round's frontier snapshot alone, and a
//     min-fold over a set is order-independent.
//   - Parent chains stay acyclic: a parent assigned this round supplied its
//     child's final value from a frontier snapshot score, and the algebras
//     are expansive along ⊕, so a cycle would force a strictly-better-than-
//     itself score.
//
// Frontiers below frontierMin fall back to the serial drain; the hybrid
// escalates and de-escalates as the frontier grows and shrinks within one
// drain.

// loadValue atomically reads v's value. Required for every value read that
// can race with a concurrent casSet — i.e. inside the relax phase. Outside
// that phase (all writers joined) plain reads of st.val are fine.
func (st *state) loadValue(v graph.VertexID) algo.Value {
	return math.Float64frombits(atomic.LoadUint64((*uint64)(unsafe.Pointer(&st.val[v]))))
}

// casSet atomically replaces v's value old→new, failing if the cell no
// longer holds old — the commit primitive of the min-CAS protocol. Values
// are compared as raw float64 bits: the algebras never produce NaN, and
// every zero they produce is +0, so bit equality is value equality here.
// Parents are NOT written by casSet — parent choice on ties must be
// deterministic, so claims carry them to the sequential resolution.
func (st *state) casSet(v graph.VertexID, old, new algo.Value) bool {
	return atomic.CompareAndSwapUint64((*uint64)(unsafe.Pointer(&st.val[v])),
		math.Float64bits(old), math.Float64bits(new))
}

// DefaultParallelFrontierMin is the frontier size below which parallel
// coordination costs more than it buys; used when the option is left zero.
const DefaultParallelFrontierMin = 256

// defaultParallelBuckets is the delta-stepping band count: each round takes
// the best 1/buckets slice of the pending score spread.
const defaultParallelBuckets = 16

// parChunk is how many frontier items a worker grabs per cursor bump.
const parChunk = 16

// parFrontierPerWorker caps the worker group: no point waking a worker for
// fewer than this many frontier vertices.
const parFrontierPerWorker = 32

// parClaim records "u offered vertex v the value t" during a relax phase.
// Claims are the bridge between the racy value commits and the deterministic
// sequential parent resolution: every CAS win and every exact tie files one.
type parClaim struct {
	v, u graph.VertexID
	t    algo.Value
}

// parWorkerScratch is one worker slot's private relax-phase output. The
// slices are reused round to round; the counts are folded into the state's
// tallies by the coordinator after the phase barrier.
type parWorkerScratch struct {
	claims   []parClaim
	improved []graph.VertexID

	nRelax, nState, nRetry int64
}

// parPanic carries a worker goroutine's panic value to the coordinator so
// it can re-panic on the state's own goroutine (where MultiCISO's per-group
// recovery and the engines' repair paths live) after the phase barrier.
type parPanic struct{ r any }

// parScratch is the parallel propagator's working set, hung off the
// execution scratch so MultiCISO pays O(V) per worker slot, not per source.
type parScratch struct {
	// round is the monotone round counter. Stamps compare against it, so
	// neither stamp array is ever cleared between drains.
	round uint64

	// stamp[v] == round iff v's value improved this round. Workers race to
	// stamp via CAS; the winner appends v to its improved list, so each
	// improved vertex is reported exactly once per round.
	stamp []uint64

	// claimed[v] == round iff v's parent was assigned this round (sequential
	// resolution only, no atomics).
	claimed []uint64

	pending   []graph.VertexID // outstanding vertices, deduplicated
	inPending []bool           // membership marks for pending
	frontier  []wlItem         // this round's bucket: (vertex, snapshot score)

	workers  []parWorkerScratch
	cursor   atomic.Int64 // chunked work-stealing cursor over frontier
	wg       sync.WaitGroup
	panicked atomic.Pointer[parPanic]
}

// ensurePar returns the scratch's parallel working set, growing it to cover
// n vertices and w worker slots.
func (sc *scratch) ensurePar(n, w int) *parScratch {
	ps := sc.par
	if ps == nil {
		ps = &parScratch{}
		sc.par = ps
	}
	if len(ps.stamp) < n {
		ps.stamp = make([]uint64, n)
		ps.claimed = make([]uint64, n)
		ps.inPending = make([]bool, n)
	}
	for len(ps.workers) < w {
		ps.workers = append(ps.workers, parWorkerScratch{})
	}
	return ps
}

// clear scrubs the transient parallel state after a recovered panic left a
// drain mid-flight. Stamps are monotone and need no clearing.
func (ps *parScratch) clear() {
	for _, v := range ps.pending {
		ps.inPending[v] = false
	}
	ps.pending = ps.pending[:0]
	ps.frontier = ps.frontier[:0]
	for i := range ps.workers {
		ps.workers[i].claims = ps.workers[i].claims[:0]
		ps.workers[i].improved = ps.workers[i].improved[:0]
	}
	ps.panicked.Store(nil)
}

// bytes returns the parallel working set's resident size.
func (ps *parScratch) bytes() int64 {
	b := int64(len(ps.stamp))*8 + int64(len(ps.claimed))*8 +
		int64(len(ps.inPending)) + int64(cap(ps.pending))*4 +
		int64(cap(ps.frontier))*16
	for i := range ps.workers {
		b += int64(cap(ps.workers[i].claims))*16 + int64(cap(ps.workers[i].improved))*4
	}
	return b
}

// parallelPropagator drains with bucketed intra-query parallelism. It is
// immutable configuration; all mutable state lives in the scratch, so one
// propagator can be shared across every state of an engine.
type parallelPropagator struct {
	workers     int // worker-group bound, ≥ 2
	minFrontier int // below this the drain stays serial
	buckets     int // delta-stepping band count
}

// newParallelPropagator builds a propagator for a worker group of w with
// escalation threshold frontierMin (≤ 0 selects the default).
func newParallelPropagator(w, frontierMin int) *parallelPropagator {
	if w < 2 {
		w = 2
	}
	if frontierMin <= 0 {
		frontierMin = DefaultParallelFrontierMin
	}
	return &parallelPropagator{workers: w, minFrontier: frontierMin, buckets: defaultParallelBuckets}
}

// drain runs the hybrid serial/parallel drain to convergence.
func (p *parallelPropagator) drain(st *state) {
	wl := &st.sc.wl
	escalated := false
	for {
		// Serial segment: identical to serialDrain while the frontier is
		// thin, checking for escalation at each pop.
		for wl.len() > 0 && wl.len() < p.minFrontier {
			v, score := wl.pop()
			if st.val[v] != score {
				continue // superseded by a better value
			}
			for _, e := range st.g.Out(v) {
				st.relaxEdge(v, e.To, e.W)
			}
		}
		if wl.len() == 0 {
			break
		}
		escalated = true
		p.parallelRounds(st)
	}
	if !escalated {
		st.tally[tParFallback]++
	}
}

// parallelRounds absorbs the worklist into the pending set and runs bucket
// rounds until the frontier thins back below the threshold, then hands the
// remainder back to the serial worklist.
func (p *parallelPropagator) parallelRounds(st *state) {
	ps := st.sc.ensurePar(len(st.val), p.workers)
	wl := &st.sc.wl
	for wl.len() > 0 {
		v, score := wl.pop()
		if st.val[v] != score || ps.inPending[v] {
			continue // stale or duplicate entries drop at transfer time
		}
		ps.inPending[v] = true
		ps.pending = append(ps.pending, v)
	}
	plateau := algo.IsPlateau(st.a)
	for len(ps.pending) >= p.minFrontier {
		ps.round++
		st.tally[tParBuckets]++
		p.selectBucket(st, ps, plateau)

		// Relax phase: the worker group scales with the frontier; a group of
		// one runs inline with no goroutines at all.
		w := p.workers
		if lim := 1 + len(ps.frontier)/parFrontierPerWorker; w > lim {
			w = lim
		}
		ps.cursor.Store(0)
		for i := 1; i < w; i++ {
			ps.wg.Add(1)
			go p.relaxWorkerGo(st, ps, i)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					ps.panicked.CompareAndSwap(nil, &parPanic{r: r})
				}
			}()
			p.relaxWorker(st, ps, 0)
		}()
		ps.wg.Wait()
		for i := range ps.workers[:w] {
			ws := &ps.workers[i]
			st.tally[tRelax] += ws.nRelax
			st.tally[tState] += ws.nState
			st.tally[tAct] += ws.nState
			st.tally[tCASRetry] += ws.nRetry
			ws.nRelax, ws.nState, ws.nRetry = 0, 0, 0
		}
		if pp := ps.panicked.Swap(nil); pp != nil {
			// Re-panic only after the barrier: every worker has stopped, so
			// the recovery path (scratch.clear + full recompute) cannot race
			// a straggler still writing state.
			panic(pp.r)
		}
		p.resolveRound(st, ps, w)
	}
	// De-escalate the thin tail: hand the remainder back to the serial
	// worklist in ascending-vertex order so the resumed serial drain sees a
	// canonical push sequence regardless of how rounds interleaved.
	if len(ps.pending) > 0 {
		slices.Sort(ps.pending)
		for _, v := range ps.pending {
			ps.inPending[v] = false
			wl.push(v, st.val[v])
		}
		ps.pending = ps.pending[:0]
	}
}

// selectBucket moves this round's bucket from pending into the frontier,
// snapshotting each member's score. Plateau algebras take the whole pending
// set (every live score ties — level-synchronous BFS). Ranked algebras take
// the delta-stepping band [best, best + spread/buckets] in whichever numeric
// direction the algebra ranks Better; banding keeps label-correcting rework
// low without the serial heap's total order.
func (p *parallelPropagator) selectBucket(st *state, ps *parScratch, plateau bool) {
	ps.frontier = ps.frontier[:0]
	if plateau {
		p.takeAll(st, ps)
		return
	}
	lo, hi := st.val[ps.pending[0]], st.val[ps.pending[0]]
	for _, v := range ps.pending[1:] {
		if s := st.val[v]; s < lo {
			lo = s
		} else if s > hi {
			hi = s
		}
	}
	width := (hi - lo) / float64(p.buckets)
	if width == 0 || math.IsInf(width, 0) || math.IsNaN(width) {
		// All scores tie, or the spread is unbounded (e.g. an infinite
		// source score next to finite ones): banding is meaningless or
		// numerically unsafe, take the lot.
		p.takeAll(st, ps)
		return
	}
	keep := ps.pending[:0]
	if st.op.better(lo, hi) { // smaller is better
		thr := lo + width
		for _, v := range ps.pending {
			if s := st.val[v]; s <= thr {
				ps.inPending[v] = false
				ps.frontier = append(ps.frontier, wlItem{v: v, score: s})
			} else {
				keep = append(keep, v)
			}
		}
	} else { // larger is better
		thr := hi - width
		for _, v := range ps.pending {
			if s := st.val[v]; s >= thr {
				ps.inPending[v] = false
				ps.frontier = append(ps.frontier, wlItem{v: v, score: s})
			} else {
				keep = append(keep, v)
			}
		}
	}
	ps.pending = keep
}

// takeAll drains the whole pending set into the frontier.
func (p *parallelPropagator) takeAll(st *state, ps *parScratch) {
	for _, v := range ps.pending {
		ps.inPending[v] = false
		ps.frontier = append(ps.frontier, wlItem{v: v, score: st.val[v]})
	}
	ps.pending = ps.pending[:0]
}

// relaxWorkerGo is the spawned-worker wrapper: barrier bookkeeping plus
// panic capture (a bare panic on a worker goroutine would kill the process
// instead of reaching the engines' recovery).
func (p *parallelPropagator) relaxWorkerGo(st *state, ps *parScratch, slot int) {
	defer ps.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			ps.panicked.CompareAndSwap(nil, &parPanic{r: r})
		}
	}()
	p.relaxWorker(st, ps, slot)
}

// relaxWorker relaxes frontier chunks until the cursor runs out. Offers are
// computed from the frontier's snapshot scores only — never from the live
// (racing) value cells — so the offer set is a pure function of the round's
// frontier and the topology, independent of interleaving. Commits go through
// the value CAS; parents are NOT written here (claims carry them to the
// sequential resolution).
func (p *parallelPropagator) relaxWorker(st *state, ps *parScratch, slot int) {
	ws := &ps.workers[slot]
	claims := ws.claims[:0]
	improved := ws.improved[:0]
	op, g, src := &st.op, st.g, st.src
	round, frontier := ps.round, ps.frontier
	var nRelax, nState, nRetry int64
	for {
		k0 := int(ps.cursor.Add(parChunk)) - parChunk
		if k0 >= len(frontier) {
			break
		}
		k1 := min(k0+parChunk, len(frontier))
		for _, it := range frontier[k0:k1] {
			for _, e := range g.Out(it.v) {
				nRelax++
				x := e.To
				if x == src {
					continue // the source is pinned
				}
				t := op.extend(it.score, e.W)
				cur := st.loadValue(x)
				for op.better(t, cur) {
					if !st.casSet(x, cur, t) {
						nRetry++
						cur = st.loadValue(x)
						continue
					}
					nState++
					// First improver of x this round reports it, exactly once.
					s := atomic.LoadUint64(&ps.stamp[x])
					for s != round {
						if atomic.CompareAndSwapUint64(&ps.stamp[x], s, round) {
							improved = append(improved, x)
							break
						}
						s = atomic.LoadUint64(&ps.stamp[x])
					}
					cur = t
					break
				}
				if t == cur {
					// t is (now) x's current value: file a supplier claim.
					// Covers both our own CAS win and an exact tie with a
					// value someone else committed.
					claims = append(claims, parClaim{v: x, u: it.v, t: t})
				}
			}
		}
	}
	ws.claims = claims
	ws.improved = improved
	ws.nRelax, ws.nState, ws.nRetry = nRelax, nState, nRetry
}

// resolveRound folds the workers' phase output back into the state on the
// coordinator: improved vertices re-enter the pending set (and the batch's
// change summary), then parents resolve deterministically — a vertex is
// (re)parented only if its value improved this round, to the minimum-id
// supplier among the surviving claims. Survivors are claims whose offered
// value is the vertex's committed value; the min-fold over that set is
// order-independent, so worker interleaving cannot leak into the tree.
func (p *parallelPropagator) resolveRound(st *state, ps *parScratch, w int) {
	round := ps.round
	for i := 0; i < w; i++ {
		for _, v := range ps.workers[i].improved {
			if st.dirty != nil {
				st.dirty.note(v)
			}
			if !ps.inPending[v] {
				ps.inPending[v] = true
				ps.pending = append(ps.pending, v)
			}
		}
	}
	for i := 0; i < w; i++ {
		ws := &ps.workers[i]
		for _, c := range ws.claims {
			if ps.stamp[c.v] != round || c.t != st.val[c.v] {
				continue // value did not improve this round, or claim went stale
			}
			if ps.claimed[c.v] != round {
				ps.claimed[c.v] = round
				st.parent[c.v] = c.u
			} else if c.u < st.parent[c.v] {
				st.parent[c.v] = c.u
			}
		}
		ws.claims = ws.claims[:0]
		ws.improved = ws.improved[:0]
	}
}
