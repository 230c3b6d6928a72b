package core

import "cisgraph/internal/graph"

// Names kept only because the frozen benchmark harness still compiles
// against them. ROADMAP item 3's benchmark change deletes the stage replay
// in benchmark/stage.go that calls them, and these names go with it.

// StoreKind names a state representation. Flat arrays are the only one;
// server.NewQueryPool ignores its kind argument, which benchmark/stage.go
// passes as core.StoreDense.
type StoreKind int

// StoreDense is the flat-array representation.
const StoreDense StoreKind = 0

// WithPropagateWorkers is accepted and ignored: every drain is the one
// best-first worklist drain (DESIGN.md §16). benchmark/stage.go still
// passes core.WithPropagateWorkers(propagate) to its pool and twin engine.
func WithPropagateWorkers(int) MultiOption { return func(*MultiCISO) {} }

// FastStats is empty: there is no per-update routing to report.
type FastStats struct{}

// ApplyUpdatesDelta applies ups as one batch through ApplyBatchDelta, the
// engine's one apply face. benchmark/stage.go still calls it for binary
// ingest.
func (m *MultiCISO) ApplyUpdatesDelta(ups []graph.Update) (FastStats, BatchDelta, error) {
	d := m.ApplyBatchDelta(ups)
	return FastStats{}, d, d.Err
}
