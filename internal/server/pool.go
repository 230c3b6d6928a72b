package server

import (
	"fmt"
	"slices"
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
// deltas (core.ApplyBatchDelta), and the pool folds them into the published
// Snapshot — the pool's one answer table: when answers moved, a fresh
// Snapshot is built and swapped in; when the batch changed nothing — the
// common case under change-driven skipping — nothing is published, so
// steady-state serving cost tracks the changed set, not the registered query
// count (DESIGN.md §15). The changed ids feed the watch hub. The stream
// position is the server's (Server.Applied), not the pool's.
//
// Read path: Answers, NumQueries and QueriesSnapshot load the current
// Snapshot pointer — no lock shared with a writer, so they are served at
// memory speed even while a batch or a registration's cold start runs.
type QueryPool struct {
	a   algo.Algorithm
	eng *core.MultiCISO

	// mu orders the publishers of snap: RegisterAll holds it across the
	// engine's AddQueries and the install, so a batch that already sees the
	// new queries folds its values only after the install.
	mu   sync.Mutex
	snap atomic.Pointer[Snapshot]
}

// Snapshot is one immutable published view of every registered query's
// answer. Readers share it; nothing in it is ever mutated after it is
// published — a new one shares its Queries and never its Values.
type Snapshot struct {
	// Queries and Values are parallel, in registration order (id order).
	Queries []core.Query
	Values  []algo.Value
}

// maxQueries caps a pool's registered queries (admission control).
const maxQueries = 1024

// ErrQueryLimit reports that a registration would take the pool past
// maxQueries (HTTP 429 at the API).
var ErrQueryLimit = fmt.Errorf("server: query limit %d reached", maxQueries)

// NewQueryPool builds a pool over one MultiCISO engine owning a clone of g.
// Queries are registered later with Register. workers bounds the engine's
// query-processing pool (<=1 runs serially). The engine always skips the
// source groups a batch provably cannot touch (DESIGN.md §15). The third,
// fifth and sixth arguments are ignored — a shard count, a state kind (see
// core.StoreKind) and a change-skip switch — and stay only because
// benchmark/stage.go passes them; they go with ROADMAP item 3's benchmark
// change. Any extra options are passed through to the engine.
func NewQueryPool(g *graph.Dynamic, a algo.Algorithm, _, workers int, _ core.StoreKind, _ bool, extra ...core.MultiOption) *QueryPool {
	return newQueryPool(g.Clone(), a, workers, extra...)
}

// newQueryPool is NewQueryPool taking ownership of g.
func newQueryPool(g *graph.Dynamic, a algo.Algorithm, workers int, extra ...core.MultiOption) *QueryPool {
	p := &QueryPool{a: a, eng: core.NewMultiCISO(append([]core.MultiOption{core.WithWorkers(workers)}, extra...)...)}
	p.eng.Reset(g, a, nil)
	p.snap.Store(&Snapshot{})
	return p
}

// NumQueries returns the number of registered queries.
func (p *QueryPool) NumQueries() int { return len(p.snap.Load().Queries) }

// admitLocked applies the query-admission rule (admitQueries) to this pool.
// Callers hold p.mu, so a check and the registration it admits are one
// step.
func (p *QueryPool) admitLocked(qs []core.Query) error {
	return admitQueries(p.eng.Topology().NumVertices(), p.NumQueries(), qs)
}

// admitQueries is the one query-admission rule, for adding qs to `have`
// registered queries on an n-vertex topology: both endpoints in range,
// source ≠ destination, and at most maxQueries in all — checked in that
// order, so an invalid pair is reported as such even at the cap.
func admitQueries(nv, have int, qs []core.Query) error {
	n := uint32(nv)
	for _, q := range qs {
		switch {
		case q.S >= n || q.D >= n:
			return fmt.Errorf("server: query %d->%d out of range N=%d", q.S, q.D, n)
		case q.S == q.D:
			return fmt.Errorf("server: query %d->%d: source equals destination", q.S, q.D)
		}
	}
	if have+len(qs) > maxQueries {
		return ErrQueryLimit
	}
	return nil
}

// Register admits q (admitLocked), arms it — joining its source's group, or
// cold-starting a new source under the engine's write lock — and publishes a
// refreshed snapshot: RegisterAll of one query. The returned id is stable
// for the pool's lifetime. A refused query (ErrQueryLimit, or an invalid
// pair) registers nothing.
func (p *QueryPool) Register(q core.Query) (id int, ans algo.Value, err error) {
	ids, answers, err := p.RegisterAll([]core.Query{q})
	if err != nil {
		return 0, 0, err
	}
	return ids[0], answers[0], nil
}

// RegisterAll admits qs as a whole — all of them, or none with the first
// refusal — and registers them in order in one engine call
// (core.MultiCISO.AddQueries), publishing once, with one cold start per new
// source. The engine lock is held for the whole list, so a batch waits for
// it as it waits for any other writer.
func (p *QueryPool) RegisterAll(qs []core.Query) (ids []int, answers []algo.Value, err error) {
	if len(qs) == 0 {
		return nil, nil, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.admitLocked(qs); err != nil {
		return nil, nil, err
	}
	first, answers := p.eng.AddQueries(qs)
	ids = make([]int, len(qs))
	for k := range ids {
		ids[k] = first + k
	}
	old := p.snap.Load()
	p.snap.Store(&Snapshot{
		Queries: append(slices.Clip(old.Queries), qs...),
		Values:  append(slices.Clip(old.Values), answers...),
	})
	return ids, answers, nil
}

// Topology returns the pool's one authoritative topology: the engine graph
// (core.MultiCISO.Topology). Single-writer contract:
//
//   - the graph is mutated only inside ApplyBatch (and replaced by
//     Rebootstrap), by the caller's commit goroutine, under the engine lock;
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
	qs := p.snap.Load().Queries
	p.eng.Reset(g, p.a, qs)
	p.snap.Store(&Snapshot{Queries: qs, Values: p.eng.Answers()})
}

// ApplyBatch applies one sanitized batch and, when an answer moved,
// publishes a refreshed snapshot, returning the queries whose answer changed
// (ids, ascending).
// The returned error joins any per-query degradations (recovered panics
// inside the engine); answers stay correct — the degraded query recomputed
// on the engine's consistent topology — so the batch still counts as
// applied.
func (p *QueryPool) ApplyBatch(batch []graph.Update) ([]core.ChangedAnswer, error) {
	d := p.eng.ApplyBatchDelta(batch)
	return p.fold(d.Changed), d.Err
}

// ApplyUpdates is ApplyBatch. It is kept only because benchmark/stage.go
// still calls it; ROADMAP item 3's benchmark change deletes it.
func (p *QueryPool) ApplyUpdates(ups []graph.Update) (core.FastStats, []core.ChangedAnswer, error) {
	changed, err := p.ApplyBatch(ups)
	return core.FastStats{}, changed, err
}

// fold publishes a snapshot with the engine's changed answers written into
// a copy of the current values; the queries are shared, being immutable.
// Returns changed, in the engine's ascending id order, or nil when it is
// empty — and then publishes nothing.
func (p *QueryPool) fold(changed []core.ChangedAnswer) []core.ChangedAnswer {
	if len(changed) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.snap.Load()
	vals := slices.Clone(old.Values)
	for _, ca := range changed {
		vals[ca.Index] = ca.Value
	}
	p.snap.Store(&Snapshot{Queries: old.Queries, Values: vals})
	return changed
}

// Answers returns the current published snapshot. The result is shared and
// immutable; callers must not modify it.
func (p *QueryPool) Answers() *Snapshot { return p.snap.Load() }

// StateBytes reports the engine's resident source-group state footprint,
// without waiting for a writer.
func (p *QueryPool) StateBytes() int64 { return p.eng.StateBytes() }

// Counters returns the engine's live counters, without waiting for a
// writer; they are safe to read from any goroutine.
func (p *QueryPool) Counters() *stats.Counters { return p.eng.Counters() }

// QueriesSnapshot returns a copy of the registered queries in id order.
func (p *QueryPool) QueriesSnapshot() []core.Query { return slices.Clone(p.snap.Load().Queries) }

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
