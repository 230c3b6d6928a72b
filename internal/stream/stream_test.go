package stream

import (
	"testing"

	"cisgraph/internal/graph"
)

func testDataset(t *testing.T) *graph.EdgeList {
	t.Helper()
	return graph.RMAT("sd", 8, 2000, graph.DefaultRMAT, 16, 77)
}

func TestSplitFraction(t *testing.T) {
	ds := testDataset(t)
	w, err := New(ds, Config{LoadFraction: 0.5, AddsPerBatch: 10, DelsPerBatch: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := w.Loaded(), len(ds.Arcs)/2; got != want {
		t.Fatalf("loaded = %d, want %d", got, want)
	}
	if w.Loaded()+w.Remaining() != len(ds.Arcs) {
		t.Fatal("split does not partition the dataset")
	}
	g := w.Initial()
	if g.NumEdges() != w.Loaded() {
		t.Fatalf("Initial has %d edges, want %d", g.NumEdges(), w.Loaded())
	}
	if g.NumVertices() != ds.N {
		t.Fatalf("Initial has %d vertices, want %d", g.NumVertices(), ds.N)
	}
}

func TestConfigValidation(t *testing.T) {
	ds := testDataset(t)
	if _, err := New(ds, Config{LoadFraction: 0}); err == nil {
		t.Fatal("zero load fraction accepted")
	}
	if _, err := New(ds, Config{LoadFraction: 1.5}); err == nil {
		t.Fatal("load fraction > 1 accepted")
	}
	if _, err := New(ds, Config{LoadFraction: 0.5, AddsPerBatch: -1}); err == nil {
		t.Fatal("negative batch size accepted")
	}
}

func TestBatchInvariants(t *testing.T) {
	ds := testDataset(t)
	cfg := Config{LoadFraction: 0.5, AddsPerBatch: 50, DelsPerBatch: 50, Seed: 9}
	w, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := w.Initial()
	for b := 0; b < 5; b++ {
		batch := w.NextBatch()
		adds, dels := 0, 0
		addedNow := map[uint64]bool{}
		for _, up := range batch {
			k := uint64(up.From)<<32 | uint64(up.To)
			if up.Del {
				dels++
				if addedNow[k] {
					t.Fatalf("batch %d deletes an edge it just added: %v", b, up)
				}
				if _, ok := g.HasEdge(up.From, up.To); !ok {
					t.Fatalf("batch %d deletes absent edge %v", b, up)
				}
				g.RemoveEdge(up.From, up.To)
			} else {
				adds++
				if _, ok := g.HasEdge(up.From, up.To); ok {
					t.Fatalf("batch %d adds present edge %v", b, up)
				}
				g.AddEdge(up.From, up.To, up.W)
				addedNow[k] = true
			}
		}
		if adds != 50 || dels != 50 {
			t.Fatalf("batch %d: %d adds, %d dels; want 50/50", b, adds, dels)
		}
		if g.NumEdges() != w.Loaded() {
			t.Fatalf("batch %d: applied graph has %d edges, workload says %d", b, g.NumEdges(), w.Loaded())
		}
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	ds := testDataset(t)
	cfg := Config{LoadFraction: 0.5, AddsPerBatch: 20, DelsPerBatch: 20, Seed: 4}
	w1, _ := New(ds, cfg)
	w2, _ := New(ds, cfg)
	for i := 0; i < 3; i++ {
		b1, b2 := w1.NextBatch(), w2.NextBatch()
		if len(b1) != len(b2) {
			t.Fatalf("batch %d length differs", i)
		}
		for j := range b1 {
			if b1[j] != b2[j] {
				t.Fatalf("batch %d update %d: %v vs %v", i, j, b1[j], b2[j])
			}
		}
	}
}

func TestPoolExhaustion(t *testing.T) {
	ds := graph.Uniform("tiny", 10, 40, 4, 3)
	w, err := New(ds, Config{LoadFraction: 0.5, AddsPerBatch: 15, DelsPerBatch: 0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Pool has 20 withheld edges; after two batches of 15 it must run dry.
	b1 := w.NextBatch()
	b2 := w.NextBatch()
	b3 := w.NextBatch()
	if len(b1) != 15 || len(b2) != 5 || len(b3) != 0 {
		t.Fatalf("batch sizes %d,%d,%d; want 15,5,0", len(b1), len(b2), len(b3))
	}
	if w.Remaining() != 0 {
		t.Fatalf("remaining = %d", w.Remaining())
	}
}

func TestBatchesHelper(t *testing.T) {
	ds := testDataset(t)
	w, _ := New(ds, Config{LoadFraction: 0.5, AddsPerBatch: 5, DelsPerBatch: 5, Seed: 8})
	bs := w.Batches(3)
	if len(bs) != 3 {
		t.Fatalf("Batches(3) = %d batches", len(bs))
	}
	for i, b := range bs {
		if len(b) != 10 {
			t.Fatalf("batch %d has %d updates", i, len(b))
		}
	}
}

func TestQueryPairs(t *testing.T) {
	ds := testDataset(t)
	w, _ := New(ds, Config{LoadFraction: 0.5, AddsPerBatch: 1, DelsPerBatch: 1, Seed: 10})
	pairs := w.QueryPairs(10)
	if len(pairs) != 10 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for _, p := range pairs {
		if p[0] == p[1] {
			t.Fatalf("pair with identical endpoints: %v", p)
		}
		if int(p[0]) >= ds.N || int(p[1]) >= ds.N {
			t.Fatalf("pair out of range: %v", p)
		}
	}
	// Pair selection must not perturb batch generation.
	w2, _ := New(ds, Config{LoadFraction: 0.5, AddsPerBatch: 1, DelsPerBatch: 1, Seed: 10})
	b2 := w2.NextBatch()
	b1 := w.NextBatch()
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("QueryPairs changed batch stream")
		}
	}
}

func TestDefaultConfigScaling(t *testing.T) {
	c := DefaultConfig(41_631_643, 1) // Orkut's edge count
	if c.AddsPerBatch < 45_000 || c.AddsPerBatch > 55_000 {
		t.Fatalf("paper-scale batch = %d, want ≈50K", c.AddsPerBatch)
	}
	small := DefaultConfig(100, 1)
	if small.AddsPerBatch < 1 {
		t.Fatal("tiny graphs must still get non-empty batches")
	}
}

func TestInitialEdgeList(t *testing.T) {
	ds := testDataset(t)
	w, _ := New(ds, Config{LoadFraction: 0.25, AddsPerBatch: 1, DelsPerBatch: 1, Seed: 6})
	el := w.InitialEdgeList()
	if el.N != ds.N || len(el.Arcs) != w.Loaded() {
		t.Fatalf("initial edge list N=%d M=%d", el.N, len(el.Arcs))
	}
	if err := el.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestQueryPairsConnected(t *testing.T) {
	ds := graph.RMAT("conn", 9, 4000, graph.DefaultRMAT, 8, 12)
	w, _ := New(ds, Config{LoadFraction: 0.5, AddsPerBatch: 1, DelsPerBatch: 1, Seed: 12})
	pairs := w.QueryPairsConnected(5)
	if len(pairs) != 5 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	g := w.Initial()
	for _, p := range pairs {
		if p[0] == p[1] {
			t.Fatalf("degenerate pair %v", p)
		}
		reach := graph.ReachableFrom(g, p[0])
		if !reach[p[1]] {
			t.Fatalf("pair %v not connected on the initial snapshot", p)
		}
	}
	// Deterministic in the seed.
	w2, _ := New(ds, Config{LoadFraction: 0.5, AddsPerBatch: 1, DelsPerBatch: 1, Seed: 12})
	again := w2.QueryPairsConnected(5)
	for i := range pairs {
		if pairs[i] != again[i] {
			t.Fatal("connected pair sampling not deterministic")
		}
	}
}

func TestQueryPairsConnectedFallback(t *testing.T) {
	// A graph of isolated edges cannot host 5 connected pairs from one
	// source with ≥2 reachable candidates; the fallback must still deliver
	// k pairs.
	el := &graph.EdgeList{Name: "shred", N: 10, Arcs: []graph.Arc{
		{From: 0, To: 1, W: 1}, {From: 2, To: 3, W: 1},
	}}
	w, _ := New(el, Config{LoadFraction: 1.0, AddsPerBatch: 0, DelsPerBatch: 1, Seed: 4})
	pairs := w.QueryPairsConnected(5)
	if len(pairs) != 5 {
		t.Fatalf("fallback failed: %d pairs", len(pairs))
	}
}

func TestNextTargetedBatchBiased(t *testing.T) {
	ds := graph.RMAT("tgt", 9, 4000, graph.DefaultRMAT, 8, 15)
	mk := func() (*Workload, []bool) {
		w, err := New(ds, Config{LoadFraction: 0.5, AddsPerBatch: 100, DelsPerBatch: 100, Seed: 15})
		if err != nil {
			t.Fatal(err)
		}
		focus := make([]bool, ds.N)
		for v := 0; v < ds.N/16; v++ { // focus on the low-ID (dense) region
			focus[v] = true
		}
		return w, focus
	}
	share := func(batch []graph.Update, focus []bool) float64 {
		hit := 0
		for _, up := range batch {
			if focus[up.From] || focus[up.To] {
				hit++
			}
		}
		return float64(hit) / float64(len(batch))
	}
	w0, focus := mk()
	uniform := share(w0.NextTargetedBatch(focus, 0), focus)
	w1, _ := mk()
	targeted := share(w1.NextTargetedBatch(focus, 0.9), focus)
	if targeted <= uniform {
		t.Fatalf("targeting ineffective: uniform %.2f, targeted %.2f", uniform, targeted)
	}
	if targeted < 0.5 {
		t.Fatalf("targeted share only %.2f", targeted)
	}
	// Bookkeeping must stay consistent with NextBatch semantics: the 100
	// deletions leave tracking entirely, the 100 additions moved pool→loaded.
	if w1.Loaded()+w1.Remaining() != len(ds.Arcs)-100 {
		t.Fatalf("targeted batch broke the loaded/pool accounting: %d + %d != %d - 100",
			w1.Loaded(), w1.Remaining(), len(ds.Arcs))
	}
}

func TestTargetedBatchStillValidUpdates(t *testing.T) {
	ds := graph.RMAT("tgtv", 8, 2000, graph.DefaultRMAT, 8, 16)
	w, _ := New(ds, Config{LoadFraction: 0.5, AddsPerBatch: 50, DelsPerBatch: 50, Seed: 16})
	g := w.Initial()
	focus := make([]bool, ds.N)
	focus[0] = true
	batch := w.NextTargetedBatch(focus, 0.8)
	for _, up := range batch {
		if up.Del {
			if _, ok := g.HasEdge(up.From, up.To); !ok {
				t.Fatalf("targeted deletion of absent edge %v", up)
			}
			g.RemoveEdge(up.From, up.To)
		} else {
			if !g.AddEdge(up.From, up.To, up.W) {
				t.Fatalf("targeted addition of present edge %v", up)
			}
		}
	}
}
