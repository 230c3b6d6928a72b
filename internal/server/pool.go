package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
)

// QueryPool spreads pairwise queries across a fixed set of MultiCISO
// shards, each with its own topology clone — shard 0's is the server's one
// authoritative topology (Topology) — and publishes answers through an
// immutable snapshot so reads never block on batch application.
//
// Write path (single writer — the server's commit stage): ApplyBatch
// fans the sanitized batch out to every shard in parallel; each shard
// serializes on its own lock, so a concurrent Register only delays the one
// shard it lands on. The shards report per-batch answer deltas
// (core.ApplyBatchDelta), and the pool folds them into its value table:
// when answers moved, a fresh Snapshot is built and swapped in; when the
// batch changed nothing — the common case under change-driven skipping —
// publication is an O(1) position bump aliasing the previous arrays, so
// steady-state serving cost tracks the changed set, not the registered
// query count (DESIGN.md §15). The changed ids feed the watch hub.
//
// Read path: Answers loads the current Snapshot pointer — no lock shared
// with the writer, so queries are served at memory speed even while a batch
// (including its delayed work) is being applied.
type QueryPool struct {
	a      algo.Algorithm
	shards []*poolShard

	mu      sync.Mutex // registration bookkeeping + snapshot rebuilds
	refs    []qref     // global query id → shard/local position
	queries []core.Query
	locals  [][]int                // shard → local index → global id (inverse of refs)
	vals    []algo.Value           // global id → current answer (guarded by mu)
	shardOf map[graph.VertexID]int // source → the shard holding its group
	sources []int                  // shard → source groups it holds

	snap    atomic.Pointer[Snapshot]
	batches atomic.Uint64

	// Per-apply shard results, one slot per shard, and the fan-out's
	// WaitGroup, reused by every ApplyBatch/ApplyUpdates; only the single
	// writer touches them.
	deltas []core.BatchDelta
	fss    []core.FastStats
	wg     sync.WaitGroup
}

type poolShard struct {
	mu  sync.Mutex
	eng *core.MultiCISO
}

type qref struct{ shard, local int }

// Snapshot is one immutable published view of every registered query's
// answer. Readers share it; nothing in it is ever mutated after Publish.
type Snapshot struct {
	// Batches counts the update batches applied when the snapshot was taken.
	Batches uint64
	// Queries and Values are parallel, in registration order.
	Queries []core.Query
	Values  []algo.Value
}

// NewQueryPool builds a pool of `shards` MultiCISO engines, each owning a
// clone of g. Queries are registered later with Register. workers bounds
// each shard's query-processing pool (<=1 runs serially); kind is ignored
// (see core.StoreKind). skip toggles
// change-driven query skipping in the shard engines (on in production;
// Config.DisableChangeSkip turns it off for differential testing). Any
// extra options are passed through to every shard engine.
func NewQueryPool(g *graph.Dynamic, a algo.Algorithm, shards, workers int, _ core.StoreKind, skip bool, extra ...core.MultiOption) *QueryPool {
	if shards < 1 {
		shards = 1
	}
	p := &QueryPool{
		a:       a,
		shards:  make([]*poolShard, shards),
		locals:  make([][]int, shards),
		shardOf: make(map[graph.VertexID]int),
		sources: make([]int, shards),
		deltas:  make([]core.BatchDelta, shards),
		fss:     make([]core.FastStats, shards),
	}
	opts := []core.MultiOption{core.WithWorkers(workers), core.WithChangeSkip(skip)}
	opts = append(opts, extra...)
	for i := range p.shards {
		eng := core.NewMultiCISO(opts...)
		eng.Reset(g.Clone(), a, nil)
		p.shards[i] = &poolShard{eng: eng}
	}
	p.snap.Store(&Snapshot{})
	return p
}

// NumShards returns the shard count.
func (p *QueryPool) NumShards() int { return len(p.shards) }

// NumQueries returns the number of registered queries.
func (p *QueryPool) NumQueries() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.refs)
}

// Register arms q on the shard that holds its source — or, for a new source,
// the shard holding the fewest source groups (ties to the lowest index) —
// runs its initial computation against that shard's current topology, and
// publishes a refreshed snapshot. The returned id is stable for the pool's
// lifetime.
func (p *QueryPool) Register(q core.Query) (id int, ans algo.Value) {
	p.mu.Lock()
	defer p.mu.Unlock()
	best := p.placeLocked(q.S)
	sh := p.shards[best]
	sh.mu.Lock()
	local, ans := sh.eng.AddQuery(q)
	sh.mu.Unlock()
	id = p.installLocked(q, best, local, ans)
	p.publishLocked()
	return id, ans
}

// RegisterAll registers qs in order with Register's placement, but arms
// each shard's share in one engine call (core.MultiCISO.AddQueries) and
// publishes once: no topology clone per distinct source, one cold start per
// source. Ids, placement, answers and engine counters equal a Register
// loop's, on an empty or a non-empty pool. Each shard's lock is held for its
// whole share, so it is meant for start-up and restore, not beside live
// writes.
func (p *QueryPool) RegisterAll(qs []core.Query) (ids []int, answers []algo.Value) {
	if len(qs) == 0 {
		return nil, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	placed := make([]int, len(qs))
	perShard := make([][]core.Query, len(p.shards))
	for k, q := range qs {
		best := p.placeLocked(q.S)
		placed[k] = best
		perShard[best] = append(perShard[best], q)
	}
	firsts := make([]int, len(p.shards))
	shardAns := make([][]algo.Value, len(p.shards))
	for i, sh := range p.shards {
		if len(perShard[i]) == 0 {
			continue
		}
		sh.mu.Lock()
		firsts[i], shardAns[i] = sh.eng.AddQueries(perShard[i])
		sh.mu.Unlock()
	}
	ids = make([]int, len(qs))
	answers = make([]algo.Value, len(qs))
	taken := make([]int, len(p.shards))
	for k, q := range qs {
		si := placed[k]
		j := taken[si]
		taken[si]++
		ids[k] = p.installLocked(q, si, firsts[si]+j, shardAns[si][j])
		answers[k] = shardAns[si][j]
	}
	p.publishLocked()
	return ids, answers
}

// placeLocked picks the shard for a query from src: the one already
// holding src's source group, so a source keeps one state in the pool
// (core.MultiCISO shares it among the group's queries); for a new source,
// the shard holding the fewest source groups, ties to the lowest index —
// per-shard work scales with sources, not queries.
func (p *QueryPool) placeLocked(src graph.VertexID) int {
	if si, ok := p.shardOf[src]; ok {
		return si
	}
	best := 0
	for i, n := range p.sources {
		if n < p.sources[best] {
			best = i
		}
	}
	p.shardOf[src] = best
	p.sources[best]++
	return best
}

// installLocked files a query armed on shard at local index local and
// returns its global id.
func (p *QueryPool) installLocked(q core.Query, shard, local int, ans algo.Value) int {
	id := len(p.refs)
	p.refs = append(p.refs, qref{shard: shard, local: local})
	p.queries = append(p.queries, q)
	p.vals = append(p.vals, ans)
	for len(p.locals[shard]) <= local {
		p.locals[shard] = append(p.locals[shard], -1)
	}
	p.locals[shard][local] = id
	return id
}

// Topology returns the pool's one authoritative topology: shard 0's engine
// graph (core.MultiCISO.Topology). Every other shard holds an identical
// clone and takes the same updates. Single-writer contract:
//
//   - the graph is mutated only inside ApplyBatch/ApplyUpdates (and
//     replaced by Rebootstrap), by the caller's commit goroutine, under the
//     shard lock;
//   - the commit goroutine may read it between applies without a lock;
//   - every other reader holds the shard lock or the engine lock (or a
//     lock of the caller's that excludes the commit goroutine).
//
// The vertex count is fixed for a graph's lifetime and may be read freely.
func (p *QueryPool) Topology() *graph.Dynamic { return p.shards[0].eng.Topology() }

// Rebootstrap swaps every shard engine onto a fresh topology, re-arming
// the registered queries in place: ids, shard placement, and local order
// are all preserved, so client-held query ids stay valid while the answers
// recompute from the new topology. Used by a follower after a checkpoint
// re-bootstrap (retention race or leader reset). The pool takes ownership
// of g (shard 0 adopts it; the others clone it). Serializes against
// Register and ApplyBatch.
func (p *QueryPool) Rebootstrap(g *graph.Dynamic) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Group queries by their existing shard; refs were appended in id order,
	// so per-shard append order reproduces each query's local index.
	perShard := make([][]core.Query, len(p.shards))
	for id, r := range p.refs {
		perShard[r.shard] = append(perShard[r.shard], p.queries[id])
	}
	for i, sh := range p.shards {
		sg := g
		if i > 0 {
			sg = g.Clone()
		}
		sh.mu.Lock()
		sh.eng.Reset(sg, p.a, perShard[i])
		sh.mu.Unlock()
	}
	p.reloadValsLocked()
	p.publishLocked()
}

// reloadValsLocked rebuilds the whole value table from the shard engines —
// the full O(Q) pass reserved for re-bootstraps; steady-state batches fold
// deltas instead.
func (p *QueryPool) reloadValsLocked() {
	perShard := make([][]algo.Value, len(p.shards))
	for i, sh := range p.shards {
		perShard[i] = sh.eng.Answers()
	}
	for id, r := range p.refs {
		p.vals[id] = perShard[r.shard][r.local]
	}
}

// ApplyBatch applies one sanitized batch to every shard in parallel and
// publishes the refreshed snapshot, returning the queries whose answer
// changed (global ids, ascending). The returned error joins any per-query
// degradations (recovered panics inside a shard engine); answers stay
// correct — the degraded query recomputed on the shard's consistent
// topology — so the batch still counts as applied.
func (p *QueryPool) ApplyBatch(batch []graph.Update) ([]core.ChangedAnswer, error) {
	p.applyShards(batch, false)
	p.batches.Add(1)
	p.mu.Lock()
	changed := p.foldDeltasLocked(p.deltas)
	p.mu.Unlock()
	var err error
	for i := range p.deltas {
		err = joinNonNil(err, p.deltas[i].Err)
	}
	return changed, err
}

// ApplyUpdates runs one fast-path group through every shard's per-update
// path (core.ApplyUpdatesDelta) in parallel and publishes the refreshed
// snapshot, returning the changed queries like ApplyBatch. Each update
// counts as its own stream position — the published Snapshot.Batches
// advances by len(ups), exactly as if every update had been its own
// single-update batch. Error semantics match ApplyBatch: degradations
// join, answers stay correct, the group still counts.
func (p *QueryPool) ApplyUpdates(ups []graph.Update) (core.FastStats, []core.ChangedAnswer, error) {
	p.applyShards(ups, true)
	deltas, fss := p.deltas, p.fss
	p.batches.Add(uint64(len(ups)))
	p.mu.Lock()
	changed := p.foldDeltasLocked(deltas)
	p.mu.Unlock()
	var fs core.FastStats
	var err error
	for i := range p.shards {
		// Shards disagree only on routing (they hold different query
		// subsets); report the widest view — the max unsafe count across
		// shards — so operators see how much of the group serialized.
		if fss[i].Unsafe > fs.Unsafe {
			fs.Unsafe = fss[i].Unsafe
		}
		err = joinNonNil(err, deltas[i].Err)
	}
	fs.Safe = len(ups) - fs.Unsafe
	return fs, changed, err
}

// applyShards runs one commit on every shard — ApplyUpdatesDelta when
// perUpdate, else ApplyBatchDelta — into p.deltas/p.fss: shard 0 on the
// calling goroutine, the others on one goroutine each. A one-shard pool (the
// default) therefore spawns nothing and allocates nothing; a spawn would wake
// a second thread while the caller parks.
func (p *QueryPool) applyShards(ups []graph.Update, perUpdate bool) {
	for i := 1; i < len(p.shards); i++ {
		p.wg.Add(1)
		go func(i int) {
			defer p.wg.Done()
			p.applyShard(i, ups, perUpdate)
		}(i)
	}
	p.applyShard(0, ups, perUpdate)
	p.wg.Wait()
}

func (p *QueryPool) applyShard(i int, ups []graph.Update, perUpdate bool) {
	sh := p.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if perUpdate {
		p.fss[i], p.deltas[i], _ = sh.eng.ApplyUpdatesDelta(ups)
	} else {
		p.deltas[i] = sh.eng.ApplyBatchDelta(ups)
	}
}

// foldDeltasLocked maps each shard's changed local indices to global ids,
// updates the value table, and publishes. Batches whose answers all held
// still publish — an O(1) snapshot aliasing the previous arrays with the
// advanced position — so Snapshot.Batches always reflects the applied
// stream. Returns the changed set in ascending global-id order.
func (p *QueryPool) foldDeltasLocked(deltas []core.BatchDelta) []core.ChangedAnswer {
	var changed []core.ChangedAnswer
	for si := range deltas {
		for _, ca := range deltas[si].Changed {
			id := p.locals[si][ca.Index]
			p.vals[id] = ca.Value
			changed = append(changed, core.ChangedAnswer{Index: id, Value: ca.Value})
		}
	}
	if len(changed) == 0 {
		old := p.snap.Load()
		p.snap.Store(&Snapshot{Batches: p.batches.Load(), Queries: old.Queries, Values: old.Values})
		return nil
	}
	sort.Slice(changed, func(a, b int) bool { return changed[a].Index < changed[b].Index })
	p.publishLocked()
	return changed
}

// publishLocked rebuilds and swaps in the answer snapshot from the value
// table. Callers hold p.mu, which orders publications from the applier and
// from Register.
func (p *QueryPool) publishLocked() {
	p.snap.Store(&Snapshot{
		Batches: p.batches.Load(),
		Queries: append([]core.Query(nil), p.queries...),
		Values:  append([]algo.Value(nil), p.vals...),
	})
}

// Answers returns the current published snapshot. The result is shared and
// immutable; callers must not modify it.
func (p *QueryPool) Answers() *Snapshot { return p.snap.Load() }

// Batches returns the number of batches applied.
func (p *QueryPool) Batches() uint64 { return p.batches.Load() }

// StateBytes sums the resident source-group state footprint across all shard
// engines.
func (p *QueryPool) StateBytes() int64 {
	var total int64
	for _, sh := range p.shards {
		total += sh.eng.StateBytes()
	}
	return total
}

// Counters returns a merged copy of every shard's engine counters.
func (p *QueryPool) Counters() *stats.Counters {
	merged := stats.NewCounters()
	for _, sh := range p.shards {
		merged.AddAll(sh.eng.Counters())
	}
	return merged
}

// QueriesSnapshot returns a copy of the registered queries in id order.
func (p *QueryPool) QueriesSnapshot() []core.Query {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]core.Query(nil), p.queries...)
}

// joinNonNil combines two possibly-nil errors.
func joinNonNil(a, b error) error {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	default:
		return fmt.Errorf("%w; %w", a, b)
	}
}
