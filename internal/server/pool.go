package server

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
)

// QueryPool serves pairwise queries from one MultiCISO engine, whose graph
// is the server's one authoritative topology (Topology), and publishes
// answers through an immutable snapshot so reads never block on batch
// application. A query's id is its engine index.
//
// Write path (single writer — the server's commit stage): ApplyBatch runs
// the sanitized batch through the engine, which spreads its source groups
// over its worker pool (core.WithWorkers) and serializes against a
// concurrent Register on its own lock. The engine reports per-batch answer
// deltas (core.ApplyBatchDelta), and the pool folds them into its value
// table: when answers moved, a fresh Snapshot is built and swapped in; when
// the batch changed nothing — the common case under change-driven skipping
// — publication is an O(1) position bump aliasing the previous arrays, so
// steady-state serving cost tracks the changed set, not the registered
// query count (DESIGN.md §15). The changed ids feed the watch hub.
//
// Read path: Answers loads the current Snapshot pointer — no lock shared
// with the writer, so queries are served at memory speed even while a batch
// (including its delayed work) is being applied.
type QueryPool struct {
	a   algo.Algorithm
	eng *core.MultiCISO

	// mu orders registration against the fold: Register holds it across
	// the engine's AddQuery and the install, so a batch that already sees
	// the new query folds its value only after the install.
	mu      sync.Mutex
	queries []core.Query
	vals    []algo.Value // id → current answer (guarded by mu)

	snap    atomic.Pointer[Snapshot]
	batches atomic.Uint64
}

// Snapshot is one immutable published view of every registered query's
// answer. Readers share it; nothing in it is ever mutated after Publish.
type Snapshot struct {
	// Batches counts the update batches applied when the snapshot was taken.
	Batches uint64
	// Queries and Values are parallel, in registration order.
	Queries []core.Query
	Values  []algo.Value
}

// NewQueryPool builds a pool over one MultiCISO engine owning a clone of g.
// Queries are registered later with Register. workers bounds the engine's
// query-processing pool (<=1 runs serially). The third argument and kind
// are ignored: the third was a shard count, and both stay only because
// benchmark/stage.go passes them (see core.StoreKind). skip toggles
// change-driven query skipping in the engine (on in production;
// Config.DisableChangeSkip turns it off for differential testing). Any
// extra options are passed through to the engine.
func NewQueryPool(g *graph.Dynamic, a algo.Algorithm, _, workers int, _ core.StoreKind, skip bool, extra ...core.MultiOption) *QueryPool {
	opts := []core.MultiOption{core.WithWorkers(workers), core.WithChangeSkip(skip)}
	p := &QueryPool{a: a, eng: core.NewMultiCISO(append(opts, extra...)...)}
	p.eng.Reset(g.Clone(), a, nil)
	p.snap.Store(&Snapshot{})
	return p
}

// NumQueries returns the number of registered queries.
func (p *QueryPool) NumQueries() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queries)
}

// Register arms q — joining its source's group, or cold-starting a new
// source against the current topology — and publishes a refreshed
// snapshot. The returned id is stable for the pool's lifetime.
func (p *QueryPool) Register(q core.Query) (id int, ans algo.Value) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id, ans = p.eng.AddQuery(q)
	p.queries = append(p.queries, q)
	p.vals = append(p.vals, ans)
	p.publishLocked()
	return id, ans
}

// RegisterAll registers qs in order in one engine call
// (core.MultiCISO.AddQueries) and publishes once: no topology clone per
// distinct source, one cold start per source. Ids, answers and engine
// counters equal a Register loop's, on an empty or a non-empty pool. The
// engine lock is held for the whole list, so it is meant for start-up and
// restore, not beside live writes.
func (p *QueryPool) RegisterAll(qs []core.Query) (ids []int, answers []algo.Value) {
	if len(qs) == 0 {
		return nil, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	first, answers := p.eng.AddQueries(qs)
	ids = make([]int, len(qs))
	for k := range ids {
		ids[k] = first + k
	}
	p.queries = append(p.queries, qs...)
	p.vals = append(p.vals, answers...)
	p.publishLocked()
	return ids, answers
}

// Topology returns the pool's one authoritative topology: the engine graph
// (core.MultiCISO.Topology). Single-writer contract:
//
//   - the graph is mutated only inside ApplyBatch/ApplyUpdates (and
//     replaced by Rebootstrap), by the caller's commit goroutine, under the
//     engine lock;
//   - the commit goroutine may read it between applies without a lock;
//   - every other reader holds the engine lock (or a lock of the caller's
//     that excludes the commit goroutine).
//
// The vertex count is fixed for a graph's lifetime and may be read freely.
func (p *QueryPool) Topology() *graph.Dynamic { return p.eng.Topology() }

// Rebootstrap swaps the engine onto a fresh topology, re-arming the
// registered queries in id order, so client-held query ids stay valid
// while the answers recompute from the new topology. Used by a follower
// after a checkpoint re-bootstrap (retention race or leader reset). The
// pool takes ownership of g. Serializes against Register and ApplyBatch.
func (p *QueryPool) Rebootstrap(g *graph.Dynamic) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.eng.Reset(g, p.a, p.queries)
	copy(p.vals, p.eng.Answers())
	p.publishLocked()
}

// ApplyBatch applies one sanitized batch and publishes the refreshed
// snapshot, returning the queries whose answer changed (ids, ascending).
// The returned error joins any per-query degradations (recovered panics
// inside the engine); answers stay correct — the degraded query recomputed
// on the engine's consistent topology — so the batch still counts as
// applied.
func (p *QueryPool) ApplyBatch(batch []graph.Update) ([]core.ChangedAnswer, error) {
	d := p.eng.ApplyBatchDelta(batch)
	p.batches.Add(1)
	return p.fold(d.Changed), d.Err
}

// ApplyUpdates runs one fast-path group through the engine's per-update
// path (core.ApplyUpdatesDelta) and publishes the refreshed snapshot,
// returning the changed queries like ApplyBatch. Each update counts as its
// own stream position — the published Snapshot.Batches advances by
// len(ups), exactly as if every update had been its own single-update
// batch. Error semantics match ApplyBatch: degradations join, answers stay
// correct, the group still counts.
func (p *QueryPool) ApplyUpdates(ups []graph.Update) (core.FastStats, []core.ChangedAnswer, error) {
	fs, d, err := p.eng.ApplyUpdatesDelta(ups)
	p.batches.Add(uint64(len(ups)))
	return fs, p.fold(d.Changed), err
}

// fold writes the engine's changed answers into the value table and
// publishes. Batches whose answers all held still publish — an O(1)
// snapshot aliasing the previous arrays with the advanced position — so
// Snapshot.Batches always reflects the applied stream. Returns changed, in
// the engine's ascending id order, or nil when it is empty.
func (p *QueryPool) fold(changed []core.ChangedAnswer) []core.ChangedAnswer {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ca := range changed {
		p.vals[ca.Index] = ca.Value
	}
	if len(changed) == 0 {
		old := p.snap.Load()
		p.snap.Store(&Snapshot{Batches: p.batches.Load(), Queries: old.Queries, Values: old.Values})
		return nil
	}
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

// StateBytes reports the engine's resident source-group state footprint.
func (p *QueryPool) StateBytes() int64 { return p.eng.StateBytes() }

// Counters returns the engine's live counters; they are safe to read from
// any goroutine.
func (p *QueryPool) Counters() *stats.Counters { return p.eng.Counters() }

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
