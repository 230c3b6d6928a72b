// Package stream turns a static dataset into a streaming-graph workload
// following the paper's methodology (§IV-A): load 50% of the edges as the
// initial snapshot, then build batches whose additions are drawn from the
// withheld edges and whose deletions sample the currently loaded edges.
package stream

import (
	"fmt"
	"math/rand"

	"cisgraph/internal/graph"
)

// Config controls workload construction.
type Config struct {
	// LoadFraction of the dataset's edges forms the initial snapshot.
	// The paper loads 50%.
	LoadFraction float64
	// AddsPerBatch / DelsPerBatch size each batch. The paper uses 50K+50K
	// on multi-million-edge graphs; the harness scales this with the graph.
	AddsPerBatch int
	DelsPerBatch int
	// Seed makes the split and every batch deterministic.
	Seed int64
}

// DefaultConfig mirrors the paper's ratios at a scale proportional to m
// edges: 50% initial load and batches of ~0.12% of the edges each for
// additions and deletions (50K/41.6M ≈ 0.12% on Orkut).
func DefaultConfig(m int, seed int64) Config {
	per := m / 832 // ≈ 0.12% of the full edge set
	if per < 8 {
		per = 8
	}
	return Config{LoadFraction: 0.5, AddsPerBatch: per, DelsPerBatch: per, Seed: seed}
}

// Workload is a reproducible stream: an initial snapshot plus a generator of
// update batches. It tracks which dataset edges are currently loaded so that
// additions always insert absent edges and deletions always remove present
// ones, exactly as the paper constructs its batches.
type Workload struct {
	cfg     Config
	dataset *graph.EdgeList
	rng     *rand.Rand

	initial []graph.Arc // the starting snapshot's edges
	pool    []int       // indices into dataset.Arcs not currently loaded
	loaded  []int       // indices currently loaded
	posIn   map[int]int // arc index -> position in loaded (for O(1) removal)
}

// New splits the dataset and returns the workload. The dataset is not
// modified; the split is a deterministic function of cfg.Seed.
func New(dataset *graph.EdgeList, cfg Config) (*Workload, error) {
	if cfg.LoadFraction <= 0 || cfg.LoadFraction > 1 {
		return nil, fmt.Errorf("stream: load fraction %v out of (0,1]", cfg.LoadFraction)
	}
	if cfg.AddsPerBatch < 0 || cfg.DelsPerBatch < 0 {
		return nil, fmt.Errorf("stream: negative batch size")
	}
	w := &Workload{
		cfg:     cfg,
		dataset: dataset,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		posIn:   make(map[int]int),
	}
	perm := w.rng.Perm(len(dataset.Arcs))
	nLoad := int(cfg.LoadFraction * float64(len(dataset.Arcs)))
	for i, idx := range perm {
		if i < nLoad {
			w.posIn[idx] = len(w.loaded)
			w.loaded = append(w.loaded, idx)
			w.initial = append(w.initial, dataset.Arcs[idx])
		} else {
			w.pool = append(w.pool, idx)
		}
	}
	return w, nil
}

// Initial returns the starting snapshot as a fresh Dynamic graph.
func (w *Workload) Initial() *graph.Dynamic {
	return graph.FromEdgeList(&graph.EdgeList{N: w.dataset.N, Arcs: w.initial})
}

// InitialEdgeList returns the starting snapshot as an edge list (for
// tools that persist the split).
func (w *Workload) InitialEdgeList() *graph.EdgeList {
	return &graph.EdgeList{
		Name: w.dataset.Name + "-initial",
		N:    w.dataset.N,
		Arcs: append([]graph.Arc(nil), w.initial...),
	}
}

// NumVertices returns the vertex count of the underlying dataset.
func (w *Workload) NumVertices() int { return w.dataset.N }

// Remaining reports how many withheld edges are still available as future
// additions.
func (w *Workload) Remaining() int { return len(w.pool) }

// Loaded reports how many edges are currently loaded (initial plus additions
// minus deletions from the batches generated so far).
func (w *Workload) Loaded() int { return len(w.loaded) }

// NextBatch produces the next batch: AddsPerBatch additions drawn (without
// replacement) from the withheld pool followed by DelsPerBatch deletions
// sampling edges loaded *at the start of the batch*, so a batch never
// deletes an edge it just added (matching the paper's generation). It
// returns a short batch when either source runs dry.
func (w *Workload) NextBatch() []graph.Update {
	batch := make([]graph.Update, 0, w.cfg.AddsPerBatch+w.cfg.DelsPerBatch)
	// Edges loaded before this batch are eligible for deletion.
	delEligible := len(w.loaded)

	for i := 0; i < w.cfg.AddsPerBatch && len(w.pool) > 0; i++ {
		j := w.rng.Intn(len(w.pool))
		idx := w.pool[j]
		w.pool[j] = w.pool[len(w.pool)-1]
		w.pool = w.pool[:len(w.pool)-1]
		a := w.dataset.Arcs[idx]
		batch = append(batch, graph.Add(a.From, a.To, a.W))
		w.posIn[idx] = len(w.loaded)
		w.loaded = append(w.loaded, idx)
	}

	for i := 0; i < w.cfg.DelsPerBatch && delEligible > 0; i++ {
		j := w.rng.Intn(delEligible)
		idx := w.loaded[j]
		a := w.dataset.Arcs[idx]
		batch = append(batch, graph.Del(a.From, a.To, a.W))
		// Remove idx from loaded, keeping the eligible prefix compact.
		last := delEligible - 1
		w.swapLoaded(j, last)
		w.swapLoaded(last, len(w.loaded)-1)
		delete(w.posIn, idx)
		w.loaded = w.loaded[:len(w.loaded)-1]
		delEligible--
	}
	return batch
}

func (w *Workload) swapLoaded(i, j int) {
	if i == j {
		return
	}
	w.loaded[i], w.loaded[j] = w.loaded[j], w.loaded[i]
	w.posIn[w.loaded[i]] = i
	w.posIn[w.loaded[j]] = j
}

// Batches materialises the next k batches (convenience for the harness).
func (w *Workload) Batches(k int) [][]graph.Update {
	out := make([][]graph.Update, 0, k)
	for i := 0; i < k; i++ {
		b := w.NextBatch()
		if len(b) == 0 {
			break
		}
		out = append(out, b)
	}
	return out
}

// QueryPairs returns k deterministic (source, destination) pairs of distinct
// vertices, the paper's "randomly select 10 pairs of vertices" methodology.
// Pairs are drawn with a separate RNG stream so the pair selection does not
// perturb batch contents.
func (w *Workload) QueryPairs(k int) [][2]graph.VertexID {
	rng := rand.New(rand.NewSource(w.cfg.Seed ^ 0x5ee0))
	n := w.dataset.N
	pairs := make([][2]graph.VertexID, 0, k)
	for len(pairs) < k {
		s := graph.VertexID(rng.Intn(n))
		d := graph.VertexID(rng.Intn(n))
		if s == d {
			continue
		}
		pairs = append(pairs, [2]graph.VertexID{s, d})
	}
	return pairs
}

// QueryPairsConnected returns k deterministic (source, destination) pairs
// where d is reachable from s on the *initial snapshot*. At reduced scale a
// uniformly random pair frequently spans disconnected regions and
// trivialises the query; the paper's million-scale graphs have giant
// components where random pairs are almost always connected, so connected
// sampling is the faithful small-scale analog (EXPERIMENTS.md). Sources
// with out-degree below 1 are re-drawn; if a source reaches fewer than two
// vertices it is skipped. Falls back to unconstrained pairs if the graph is
// too shredded to host k connected ones.
func (w *Workload) QueryPairsConnected(k int) [][2]graph.VertexID {
	rng := rand.New(rand.NewSource(w.cfg.Seed ^ 0xc0de))
	g := w.Initial()
	n := w.dataset.N
	pairs := make([][2]graph.VertexID, 0, k)
	for attempts := 0; len(pairs) < k && attempts < 50*k; attempts++ {
		s := graph.VertexID(rng.Intn(n))
		if g.OutDegree(s) == 0 {
			continue
		}
		reach := graph.ReachableFrom(g, s)
		var cands []graph.VertexID
		for v, ok := range reach {
			if ok && graph.VertexID(v) != s {
				cands = append(cands, graph.VertexID(v))
			}
		}
		if len(cands) < 2 {
			continue
		}
		d := cands[rng.Intn(len(cands))]
		pairs = append(pairs, [2]graph.VertexID{s, d})
	}
	if len(pairs) < k {
		pairs = append(pairs, w.QueryPairs(k-len(pairs))...)
	}
	return pairs
}

// NextTargetedBatch builds an adversarial batch: it prefers updates whose
// edges touch the focus region (focus[v] == true), drawing each update with
// up to a bounded number of rejection-sampling attempts before falling back
// to a uniform draw. Contribution-driven scheduling is strongest when most
// updates are irrelevant to the query; targeted batches stress exactly that
// assumption (EXPERIMENTS.md sensitivity study). Counts follow the
// workload's configured batch sizes; bookkeeping matches NextBatch.
func (w *Workload) NextTargetedBatch(focus []bool, fraction float64) []graph.Update {
	const attempts = 32
	batch := make([]graph.Update, 0, w.cfg.AddsPerBatch+w.cfg.DelsPerBatch)
	delEligible := len(w.loaded)
	touches := func(idx int) bool {
		a := w.dataset.Arcs[idx]
		return focus[a.From] || focus[a.To]
	}

	for i := 0; i < w.cfg.AddsPerBatch && len(w.pool) > 0; i++ {
		j := w.rng.Intn(len(w.pool))
		if w.rng.Float64() < fraction {
			for try := 0; try < attempts && !touches(w.pool[j]); try++ {
				j = w.rng.Intn(len(w.pool))
			}
		}
		idx := w.pool[j]
		w.pool[j] = w.pool[len(w.pool)-1]
		w.pool = w.pool[:len(w.pool)-1]
		a := w.dataset.Arcs[idx]
		batch = append(batch, graph.Add(a.From, a.To, a.W))
		w.posIn[idx] = len(w.loaded)
		w.loaded = append(w.loaded, idx)
	}
	for i := 0; i < w.cfg.DelsPerBatch && delEligible > 0; i++ {
		j := w.rng.Intn(delEligible)
		if w.rng.Float64() < fraction {
			for try := 0; try < attempts && !touches(w.loaded[j]); try++ {
				j = w.rng.Intn(delEligible)
			}
		}
		idx := w.loaded[j]
		a := w.dataset.Arcs[idx]
		batch = append(batch, graph.Del(a.From, a.To, a.W))
		last := delEligible - 1
		w.swapLoaded(j, last)
		w.swapLoaded(last, len(w.loaded)-1)
		delete(w.posIn, idx)
		w.loaded = w.loaded[:len(w.loaded)-1]
		delEligible--
	}
	return batch
}
