package core

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
