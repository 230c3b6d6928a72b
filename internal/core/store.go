package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
)

// StateStore is the per-query vertex-state stage of the staged kernel
// (DESIGN.md §11): it holds, for every vertex, the converged value and the
// dependency-tree parent that supplies it. The propagator, classifier and
// checkpoint layers are written against this interface, so how the O(V)
// state is represented — a dense array per query, or a sparse overlay over a
// shared baseline — is a deployment choice, not an engine rewrite.
//
// Stores are not synchronized; like the rest of a query's state they are
// owned by whichever goroutine is processing that query.
type StateStore interface {
	// Value returns vertex v's current state.
	Value(v graph.VertexID) algo.Value
	// Parent returns the in-neighbor supplying v's value (NoVertex if none).
	Parent(v graph.VertexID) graph.VertexID
	// Set writes v's value and parent together (the common propagation write).
	Set(v graph.VertexID, val algo.Value, parent graph.VertexID)
	// SetParent rewrites only v's parent — the supplier-adoption shortcut of
	// deletion repair, which must not disturb the (unchanged) value.
	SetParent(v graph.VertexID, parent graph.VertexID)
	// ResetAll puts every vertex back to the unreached init value with no
	// parent. (The caller re-pins the source.)
	ResetAll(init algo.Value)
	// NumVertices returns the store's vertex count.
	NumVertices() int
	// Bytes returns the resident bytes attributable to THIS query's state —
	// for an overlay store that is the page table plus materialised pages,
	// not the shared baseline (accounted once by the owner, see
	// MultiCISO.StateBytes).
	Bytes() int64
	// CopyState materialises dense copies of the value and parent arrays
	// (checkpointing, baseline construction).
	CopyState() ([]algo.Value, []graph.VertexID)
	// LoadState overwrites the whole state from dense arrays (checkpoint
	// restore). len(val) and len(parent) must equal NumVertices.
	LoadState(val []algo.Value, parent []graph.VertexID)
}

// StoreKind selects a StateStore implementation.
type StoreKind int

const (
	// StoreDense is the flat-array store: O(V) per query, fastest access.
	StoreDense StoreKind = iota
	// StoreSparse is the copy-on-write overlay store: per-query deltas over
	// a shared converged baseline, built for high query counts where most
	// per-query state is identical across queries (the stable-values
	// observation, PAPERS.md).
	StoreSparse
)

// String returns the CLI spelling of the kind.
func (k StoreKind) String() string {
	switch k {
	case StoreDense:
		return "dense"
	case StoreSparse:
		return "sparse"
	default:
		return fmt.Sprintf("StoreKind(%d)", int(k))
	}
}

// ParseStoreKind resolves a CLI spelling ("dense", "sparse").
func ParseStoreKind(s string) (StoreKind, error) {
	switch s {
	case "dense":
		return StoreDense, nil
	case "sparse":
		return StoreSparse, nil
	default:
		return 0, fmt.Errorf("core: unknown state store %q (want dense or sparse)", s)
	}
}

// ---- dense store ----

// DenseStore is the flat per-query representation: one value and one parent
// slot per vertex. It is the default and the fastest — the propagation hot
// path reads it through direct slice aliases (state.val / state.parent), not
// interface calls.
type DenseStore struct {
	val    []algo.Value
	parent []graph.VertexID
}

// NewDenseStore allocates a dense store for n vertices in the unreached
// state (callers normally ResetAll with the algorithm's init right after).
func NewDenseStore(n int) *DenseStore {
	return &DenseStore{
		val:    make([]algo.Value, n),
		parent: make([]graph.VertexID, n),
	}
}

// Value implements StateStore.
func (s *DenseStore) Value(v graph.VertexID) algo.Value { return s.val[v] }

// Parent implements StateStore.
func (s *DenseStore) Parent(v graph.VertexID) graph.VertexID { return s.parent[v] }

// Set implements StateStore.
func (s *DenseStore) Set(v graph.VertexID, val algo.Value, parent graph.VertexID) {
	s.val[v] = val
	s.parent[v] = parent
}

// SetParent implements StateStore.
func (s *DenseStore) SetParent(v graph.VertexID, parent graph.VertexID) { s.parent[v] = parent }

// ResetAll implements StateStore.
func (s *DenseStore) ResetAll(init algo.Value) {
	for i := range s.val {
		s.val[i] = init
		s.parent[i] = graph.NoVertex
	}
}

// NumVertices implements StateStore.
func (s *DenseStore) NumVertices() int { return len(s.val) }

// Bytes implements StateStore: 8 value bytes + 4 parent bytes per vertex.
func (s *DenseStore) Bytes() int64 { return int64(len(s.val))*12 + denseHeaderBytes }

// denseHeaderBytes approximates the struct + two slice headers.
const denseHeaderBytes = 64

// loadValue atomically reads v's value. Required for every value read that
// can race with a concurrent casSet — i.e. inside the parallel propagator's
// relax phase (DESIGN.md §16). Outside that phase (all writers joined) plain
// reads through Value/state.value are fine.
func (s *DenseStore) loadValue(v graph.VertexID) algo.Value {
	return math.Float64frombits(atomic.LoadUint64((*uint64)(unsafe.Pointer(&s.val[v]))))
}

// casSet atomically replaces v's value old→new, failing if the cell no
// longer holds old — the commit primitive of the parallel propagator's
// min-CAS protocol. Values are compared as raw float64 bits: the algebras
// never produce NaN, and every zero they produce is +0, so bit equality is
// value equality here. Parents are NOT written by casSet — parent choice on
// ties must be deterministic, so the propagator stages parent claims and
// resolves them single-threaded after the relax phase (DESIGN.md §16).
func (s *DenseStore) casSet(v graph.VertexID, old, new algo.Value) bool {
	return atomic.CompareAndSwapUint64((*uint64)(unsafe.Pointer(&s.val[v])),
		math.Float64bits(old), math.Float64bits(new))
}

// CopyState implements StateStore.
func (s *DenseStore) CopyState() ([]algo.Value, []graph.VertexID) {
	return append([]algo.Value(nil), s.val...), append([]graph.VertexID(nil), s.parent...)
}

// LoadState implements StateStore.
func (s *DenseStore) LoadState(val []algo.Value, parent []graph.VertexID) {
	copy(s.val, val)
	copy(s.parent, parent)
}

// ---- overlay store ----

// Overlay page geometry: 16 vertices per page (208 B materialised). The
// page size trades copy amplification against page-table overhead, and the
// deciding property is measured, not guessed: a converged query's post-batch
// delta is small (~60 vertices after six 100-update batches) but has almost
// no vertex-ID locality on RMAT graphs — changed vertices land ~3 per
// 256-vertex page. Small pages keep the materialised bytes proportional to
// the delta itself; the 8 B/page table entry costs half a dense vertex slot
// per 16 vertices (~4% of dense), which the sharing wins back immediately.
const (
	pageShift = 4
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// storePage is one materialised copy-on-write page of an overlay.
type storePage struct {
	val    [pageSize]algo.Value
	parent [pageSize]graph.VertexID
}

// storePageBytes is the resident size of one materialised page.
const storePageBytes = pageSize*12 + 16

// Baseline is an immutable converged state shared by overlay stores — the
// "stable values" all queries with the same source agree on. Once published
// it is never written again; overlays layer their per-query deltas on top.
type Baseline struct {
	val    []algo.Value
	parent []graph.VertexID
}

// NewBaseline wraps dense arrays as a shared baseline. The caller must not
// mutate them afterwards.
func NewBaseline(val []algo.Value, parent []graph.VertexID) *Baseline {
	return &Baseline{val: val, parent: parent}
}

// InitBaseline builds the all-unreached baseline (every vertex at init, no
// parent) — the fallback when an overlay must reset without a converged
// baseline to share (e.g. panic-recovery recompute).
func InitBaseline(n int, init algo.Value) *Baseline {
	b := &Baseline{val: make([]algo.Value, n), parent: make([]graph.VertexID, n)}
	for i := range b.val {
		b.val[i] = init
		b.parent[i] = graph.NoVertex
	}
	return b
}

// NumVertices returns the baseline's vertex count.
func (b *Baseline) NumVertices() int { return len(b.val) }

// Bytes returns the baseline's resident size (shared across its overlays;
// account it once).
func (b *Baseline) Bytes() int64 { return int64(len(b.val))*12 + denseHeaderBytes }

// OverlayStore layers per-query copy-on-write pages over a shared read-only
// Baseline. Reads fall through to the baseline until the page is
// materialised; a write whose value and parent both match the baseline while
// the page is still virtual is dropped entirely — so a query that converges
// to the shared state (deterministic propagation over the same topology)
// materialises nothing. Worst case (every page touched) the overlay costs
// one page table plus a full copy, ~1.1× dense.
type OverlayStore struct {
	base  *Baseline
	pages []*storePage
	live  int // materialised page count
}

// NewOverlayStore builds an empty overlay over base.
func NewOverlayStore(base *Baseline) *OverlayStore {
	return &OverlayStore{
		base:  base,
		pages: make([]*storePage, (base.NumVertices()+pageMask)>>pageShift),
	}
}

// Value implements StateStore.
func (s *OverlayStore) Value(v graph.VertexID) algo.Value {
	if p := s.pages[v>>pageShift]; p != nil {
		return p.val[v&pageMask]
	}
	return s.base.val[v]
}

// Parent implements StateStore.
func (s *OverlayStore) Parent(v graph.VertexID) graph.VertexID {
	if p := s.pages[v>>pageShift]; p != nil {
		return p.parent[v&pageMask]
	}
	return s.base.parent[v]
}

// Set implements StateStore.
func (s *OverlayStore) Set(v graph.VertexID, val algo.Value, parent graph.VertexID) {
	pi := v >> pageShift
	p := s.pages[pi]
	if p == nil {
		if val == s.base.val[v] && parent == s.base.parent[v] {
			return // identical to the shared baseline: stay virtual
		}
		p = s.materialise(pi)
	}
	p.val[v&pageMask] = val
	p.parent[v&pageMask] = parent
}

// SetParent implements StateStore.
func (s *OverlayStore) SetParent(v graph.VertexID, parent graph.VertexID) {
	pi := v >> pageShift
	p := s.pages[pi]
	if p == nil {
		if parent == s.base.parent[v] {
			return
		}
		p = s.materialise(pi)
	}
	p.parent[v&pageMask] = parent
}

// materialise copies page pi out of the baseline.
func (s *OverlayStore) materialise(pi graph.VertexID) *storePage {
	p := &storePage{}
	lo := int(pi) << pageShift
	hi := lo + pageSize
	if n := s.base.NumVertices(); hi > n {
		hi = n
	}
	copy(p.val[:], s.base.val[lo:hi])
	copy(p.parent[:], s.base.parent[lo:hi])
	s.pages[pi] = p
	s.live++
	return p
}

// ResetAll implements StateStore: the overlay drops every page and swaps its
// baseline for the all-init one, so a from-scratch recompute (panic
// recovery) starts clean. The recompute's writes then re-materialise exactly
// the reached pages.
func (s *OverlayStore) ResetAll(init algo.Value) {
	s.base = InitBaseline(s.base.NumVertices(), init)
	for i := range s.pages {
		s.pages[i] = nil
	}
	s.live = 0
}

// NumVertices implements StateStore.
func (s *OverlayStore) NumVertices() int { return s.base.NumVertices() }

// Bytes implements StateStore: page table + materialised pages. The shared
// baseline is excluded — it is accounted once by whoever owns the sharing
// (MultiCISO.StateBytes).
func (s *OverlayStore) Bytes() int64 {
	return int64(len(s.pages))*8 + int64(s.live)*storePageBytes + denseHeaderBytes
}

// LivePages reports how many pages have been materialised (tests, rebase
// policy).
func (s *OverlayStore) LivePages() int { return s.live }

// BaselineRef returns the shared baseline the overlay reads through (memory
// accounting groups overlays by baseline identity).
func (s *OverlayStore) BaselineRef() *Baseline { return s.base }

// CopyState implements StateStore.
func (s *OverlayStore) CopyState() ([]algo.Value, []graph.VertexID) {
	n := s.NumVertices()
	val := make([]algo.Value, n)
	parent := make([]graph.VertexID, n)
	copy(val, s.base.val)
	copy(parent, s.base.parent)
	for pi, p := range s.pages {
		if p == nil {
			continue
		}
		lo := pi << pageShift
		hi := lo + pageSize
		if hi > n {
			hi = n
		}
		copy(val[lo:hi], p.val[:hi-lo])
		copy(parent[lo:hi], p.parent[:hi-lo])
	}
	return val, parent
}

// LoadState implements StateStore: the loaded arrays become a fresh private
// baseline with an empty overlay.
func (s *OverlayStore) LoadState(val []algo.Value, parent []graph.VertexID) {
	s.base = NewBaseline(append([]algo.Value(nil), val...), append([]graph.VertexID(nil), parent...))
	for i := range s.pages {
		s.pages[i] = nil
	}
	s.live = 0
}

// Rebase folds the overlay into a fresh private baseline and drops every
// page — an escape hatch for a query whose delta has grown past the point
// where paging pays, bounding the overlay's worst-case overhead at the cost
// of losing baseline sharing for this query.
func (s *OverlayStore) Rebase() {
	val, parent := s.CopyState()
	s.LoadState(val, parent)
}

// ---- change summaries ----

// changeSummaryCap bounds how many touched vertices one summary records
// before degrading to Overflow. Converged queries touch tens of vertices per
// batch (the stable-values observation the sparse store is built on), so the
// cap is generous for the common case while keeping the summary compact —
// an overflowed summary still proves "this region changed", it just stops
// enumerating where.
const changeSummaryCap = 512

// ChangeSummary is the compact dirty-set one batch leaves behind for one
// source's baseline region (DESIGN.md §15): which vertices of the converged
// per-(source,epoch) state the batch actually wrote. A skipped source group
// gets an empty summary — the batch proved it could not touch the region at
// all. Summaries are rebuilt per batch; Epoch records the topology epoch the
// batch committed.
type ChangeSummary struct {
	Source graph.VertexID
	Epoch  uint64
	// Vertices lists the touched vertices, sorted and deduplicated as
	// returned by MultiCISO.ChangeSummaries (the engine's own record is the
	// raw write sequence). Empty with Overflow false means the region
	// provably did not change.
	Vertices []graph.VertexID
	// Overflow is set when the batch touched more than changeSummaryCap
	// vertices; Vertices then holds only a prefix of the dirty set.
	Overflow bool
}

// note records a vertex write. Called from the propagation hot path through
// a nil-checked pointer, so it must stay small; duplicates are tolerated
// here and squeezed out when the summary is read.
func (cs *ChangeSummary) note(v graph.VertexID) {
	if cs.Overflow {
		return
	}
	if len(cs.Vertices) >= changeSummaryCap {
		cs.Overflow = true
		return
	}
	cs.Vertices = append(cs.Vertices, v)
}

// noteAll marks the whole region dirty (a from-scratch recompute).
func (cs *ChangeSummary) noteAll() {
	cs.Overflow = true
	cs.Vertices = cs.Vertices[:0]
}
