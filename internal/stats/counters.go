// Package stats provides the measurement substrate shared by the CISGraph
// engines, the hardware model, and the experiment harness: named event
// counters, stopwatch-style timers, and summary math (geometric means,
// ratios) used to render the paper's tables and figures.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter names used across the engines and the hardware model. Engines are
// free to define additional names; these are the ones the experiment harness
// interprets.
const (
	// CntRelax counts ⊕ applications (edge relaxation attempts). This is
	// the paper's notion of "computations" (Fig. 5a).
	CntRelax = "relax"
	// CntActivation counts vertex activations: a vertex whose state changed
	// and which was enqueued for propagation (Fig. 5b).
	CntActivation = "activation"
	// CntStateUpdate counts committed vertex-state writes.
	CntStateUpdate = "state_update"
	// CntUpdateValuable / CntUpdateDelayed / CntUpdateUseless count the
	// classification outcome of batch updates (Algorithm 1).
	CntUpdateValuable = "update_valuable"
	CntUpdateDelayed  = "update_delayed"
	CntUpdateUseless  = "update_useless"
	// CntUpdatePromoted counts delayed deletions promoted to non-delayed
	// because a key-path change rerouted the query through them.
	CntUpdatePromoted = "update_promoted"
	// CntUpdateSkipQueries / CntUpdateSkipGroups count change-driven
	// multi-query skipping (DESIGN.md §15): queries whose source group a
	// batch provably cannot affect never run their per-query phases.
	// SkipQueries is the per-query tally (the O(changed)-not-O(Q) proof);
	// SkipGroups counts the per-source decisions behind it. Both are
	// per-engine, not per-query — a skipped query does no work, so it
	// accrues nothing.
	CntUpdateSkipQueries = "update_skipped_queries"
	CntUpdateSkipGroups  = "update_skip_groups"
	// CntTagged counts vertices visited by deletion-recovery tagging.
	CntTagged = "tagged"
	// CntRepairLeaf / CntRepairRegion count deletion repairs that had to tag:
	// Leaf when the tagged region was the head vertex alone (repaired from the
	// one in-edge scan, DESIGN.md §9.6), Region otherwise. Repairs settled by
	// the supplier-adoption shortcut count under neither.
	CntRepairLeaf   = "repair_leaf"
	CntRepairRegion = "repair_region"
	// CntHubRelax counts relaxations spent maintaining SGraph hub distances
	// (the paper's "boundary maintaining" overhead).
	CntHubRelax = "hub_relax"
	// CntPruned counts vertices pruned by SGraph's bound test.
	CntPruned = "pruned"

	// Resilience counters (internal/resilience): per-reason drop counts from
	// the ingestion sanitizer.
	CntDropOutOfRange = "drop_out_of_range"
	CntDropSelfLoop   = "drop_self_loop"
	CntDropBadWeight  = "drop_bad_weight"
	CntDropDupAdd     = "drop_dup_add"
	CntDropAbsentDel  = "drop_absent_del"
	// CntBatchRejected counts whole batches refused under the reject/strict
	// sanitize policies.
	CntBatchRejected = "batch_rejected"
	// CntQueryPanic counts panics recovered inside a MultiCISO source
	// group's processing (once per group, whatever its member count).
	CntQueryPanic = "query_panic"

	// Hardware-side counters.
	CntSPMHit    = "spm_hit"
	CntSPMMiss   = "spm_miss"
	CntDRAMRead  = "dram_read"
	CntDRAMWrite = "dram_write"
	CntRowHit    = "dram_row_hit"
	CntRowMiss   = "dram_row_miss"
	// CntDRAMBytes counts bytes moved on the DRAM channels (energy model).
	CntDRAMBytes = "dram_bytes"
	// CntPropBusyCycles accumulates propagation-unit busy time
	// (utilization = busy ÷ (cycles × units)).
	CntPropBusyCycles = "prop_busy_cycles"
)

// Counters is a set of named monotonically increasing event counters.
// The zero value is ready to use. Counters is safe for concurrent use:
// values are atomics and the name table is guarded by a read-write lock, so
// the string-keyed hot path (incrementing an existing counter) takes only a
// read lock — and a Handle resolved once skips the table entirely.
//
// Cells are allocated from contiguous arena chunks in registration order, so
// the counters an engine touches together sit on the same cache lines.
type Counters struct {
	mu    sync.RWMutex
	m     map[string]*atomic.Int64
	ids   map[string]int32 // dense id per name, assigned in registration order
	names []string         // id → name (registration order)
	cells []*atomic.Int64  // id → cell (registration order)

	arena []atomic.Int64 // current chunk; full chunks stay alive via m
	used  int
}

// arenaChunk is the cell-arena growth quantum. Chunks are never moved or
// freed once a cell has been handed out, so Handle pointers stay valid.
const arenaChunk = 64

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]*atomic.Int64)}
}

// Handle is a pre-resolved counter: a dense small-integer id plus a direct
// pointer to the counter's arena cell. Resolving once per name with
// Counters.Handle and incrementing through the handle turns each hot-path
// count into a single atomic add — no lock, no map probe, no string hash.
// The zero Handle is invalid; methods on it panic.
type Handle struct {
	id   int32
	cell *atomic.Int64
}

// ID returns the handle's dense id (registration order within its Counters).
func (h Handle) ID() int32 { return h.id }

// Inc increments the handled counter by one.
func (h Handle) Inc() { h.cell.Add(1) }

// Add increments the handled counter by delta.
func (h Handle) Add(delta int64) { h.cell.Add(delta) }

// Value returns the handled counter's current value.
func (h Handle) Value() int64 { return h.cell.Load() }

// Handle resolves (registering if needed) the named counter and returns its
// handle. The handle stays valid for the lifetime of c — cells survive Reset
// (which zeroes values but keeps names) — and observes exactly the same cell
// as the string-keyed API, so Get/Snapshot/Diff/checkpoint output is
// unchanged no matter which face incremented.
func (c *Counters) Handle(name string) Handle {
	cell := c.cell(name)
	c.mu.RLock()
	defer c.mu.RUnlock()
	return Handle{id: c.ids[name], cell: cell}
}

func (c *Counters) cell(name string) *atomic.Int64 {
	c.mu.RLock()
	v, ok := c.m[name]
	c.mu.RUnlock()
	if ok {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]*atomic.Int64)
	}
	if v, ok = c.m[name]; !ok {
		if c.used == len(c.arena) {
			c.arena = make([]atomic.Int64, arenaChunk)
			c.used = 0
		}
		v = &c.arena[c.used]
		c.used++
		if c.ids == nil {
			c.ids = make(map[string]int32)
		}
		c.ids[name] = int32(len(c.m))
		c.names = append(c.names, name)
		c.cells = append(c.cells, v)
		c.m[name] = v
	}
	return v
}

// Add increments the named counter by delta.
func (c *Counters) Add(name string, delta int64) { c.cell(name).Add(delta) }

// Inc increments the named counter by one.
func (c *Counters) Inc(name string) { c.cell(name).Add(1) }

// Get returns the current value of the named counter (zero if untouched).
func (c *Counters) Get(name string) int64 {
	c.mu.RLock()
	v, ok := c.m[name]
	c.mu.RUnlock()
	if ok {
		return v.Load()
	}
	return 0
}

// Set overwrites the named counter. Intended for importing values measured
// elsewhere (e.g. simulated cycles).
func (c *Counters) Set(name string, v int64) { c.cell(name).Store(v) }

// Reset zeroes every counter but keeps the names.
func (c *Counters) Reset() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, v := range c.m {
		v.Store(0)
	}
}

// Names returns the touched counter names in sorted order.
func (c *Counters) Names() []string {
	c.mu.RLock()
	names := make([]string, 0, len(c.m))
	for k := range c.m {
		names = append(names, k)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Snapshot returns a plain map copy of the current values.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v.Load()
	}
	return out
}

// DenseSnapshot appends the current value of every registered counter, in
// dense-id (registration) order, to buf and returns the result. Passing
// buf[:0] of a retained buffer makes the per-batch "before" capture
// allocation-free at steady state — the map-shaped Snapshot costs a hash
// table per call, which is exactly what the lazy Result counters avoid.
func (c *Counters) DenseSnapshot(buf []int64) []int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, cell := range c.cells {
		buf = append(buf, cell.Load())
	}
	return buf
}

// DenseDelta returns current − before as a fresh dense-id-ordered slice.
// before must come from DenseSnapshot on the same Counters; counters
// registered after the snapshot diff against zero. The slice is safe to
// retain (it aliases nothing), so a Result can carry it until the caller
// decides whether to materialise the named map.
func (c *Counters) DenseDelta(before []int64) []int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]int64, len(c.cells))
	for i, cell := range c.cells {
		out[i] = cell.Load()
		if i < len(before) {
			out[i] -= before[i]
		}
	}
	return out
}

// DeltaMap resolves a dense delta (from DenseDelta on this Counters) into a
// named map — the materialisation step of the lazy Result counters. Zero
// entries are kept so callers can probe any registered name.
func (c *Counters) DeltaMap(delta []int64) map[string]int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]int64, len(delta))
	for i, v := range delta {
		if i < len(c.names) {
			out[c.names[i]] = v
		}
	}
	return out
}

// Diff returns c - prev as a fresh map; counters absent from prev are taken
// as zero. Useful for per-phase attribution.
func (c *Counters) Diff(prev map[string]int64) map[string]int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v.Load() - prev[k]
	}
	return out
}

// String renders the counters as "name=value" pairs, sorted by name.
func (c *Counters) String() string {
	var b strings.Builder
	for i, n := range c.Names() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", n, c.Get(n))
	}
	return b.String()
}
