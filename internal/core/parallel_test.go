package core

import (
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
	"cisgraph/internal/stream"
)

// Differential harness for the parallel propagator (DESIGN.md §16): on
// every algebra, every store kind and random update streams, the parallel
// drain must produce byte-identical values to the serial drain, a valid
// dependency tree (parents reachable, every parent edge supplying its
// child's value) and sane counters. These tests force parallelism onto
// tiny graphs with WithParallelPropagation(…, 1) — every drain escalates.

// assertStateMatchesSerial compares par's full value array bitwise against
// ref and validates par's dependency tree.
func assertStateMatchesSerial(t *testing.T, label string, ref, par *state) {
	t.Helper()
	n := len(par.val)
	for v := 0; v < n; v++ {
		if rv, pv := ref.val[v], par.val[v]; rv != pv {
			t.Fatalf("%s: vertex %d: parallel value %v, serial %v", label, v, pv, rv)
		}
	}
	if err := par.verifyInvariant(); err != nil {
		t.Fatalf("%s: parallel dependency tree broken: %v", label, err)
	}
	// Every reached vertex's parent chain must terminate at the source
	// within n hops — no self-supporting parent cycles.
	for v := 0; v < n; v++ {
		x := graph.VertexID(v)
		if x == par.src || !algo.Reached(par.a, par.val[x]) {
			continue
		}
		hops := 0
		for x != par.src {
			x = par.parent[x]
			if x == graph.NoVertex {
				t.Fatalf("%s: vertex %d: reached but parent chain dead-ends", label, v)
			}
			if hops++; hops > n {
				t.Fatalf("%s: vertex %d: parent cycle", label, v)
			}
		}
	}
}

// TestParallelDifferentialCISO: CISO with the parallel propagator against
// serial CISO, every algebra, several random streams, asserting identical
// answers per batch and a bitwise-identical converged state at the end.
func TestParallelDifferentialCISO(t *testing.T) {
	for _, a := range algo.All() {
		for _, seed := range []int64{3, 19, 101} {
			ds := graph.RMAT("par", 7, 900, graph.DefaultRMAT, 8, seed)
			w, err := stream.New(ds, stream.Config{
				LoadFraction: 0.5, AddsPerBatch: 40, DelsPerBatch: 40, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			p := w.QueryPairsConnected(1)[0]
			q := Query{S: p[0], D: p[1]}
			ref := NewCISO()
			par := NewCISO(WithParallelPropagation(4, 1))
			ref.Reset(w.Initial().Clone(), a, q)
			par.Reset(w.Initial().Clone(), a, q)
			for b := 0; b < 6; b++ {
				batch := w.NextBatch()
				want := ref.ApplyBatch(batch).Answer
				got := par.ApplyBatch(batch).Answer
				if got != want {
					t.Fatalf("%s seed %d batch %d: parallel answer %v, serial %v",
						a.Name(), seed, b, got, want)
				}
			}
			assertStateMatchesSerial(t, a.Name(), ref.st, par.st)
			if buckets := par.cnt.Get(stats.CntParallelBuckets); buckets <= 0 {
				t.Fatalf("%s seed %d: no parallel bucket rounds ran (counter %d)",
					a.Name(), seed, buckets)
			}
		}
	}
}

// TestParallelDeterministicParents: parents (not just values) must be
// identical across worker widths for a fixed (frontierMin, buckets)
// configuration — the claim-resolution tie-break is deterministic, never
// first-CAS-wins.
func TestParallelDeterministicParents(t *testing.T) {
	for _, a := range algo.All() {
		ds := graph.RMAT("pardet", 7, 900, graph.DefaultRMAT, 8, 7)
		w, _ := stream.New(ds, stream.Config{
			LoadFraction: 0.5, AddsPerBatch: 40, DelsPerBatch: 40, Seed: 7,
		})
		p := w.QueryPairsConnected(1)[0]
		q := Query{S: p[0], D: p[1]}
		init := w.Initial()
		var batches [][]graph.Update
		for b := 0; b < 4; b++ {
			batches = append(batches, w.NextBatch())
		}
		run := func(workers int) *CISO {
			c := NewCISO(WithParallelPropagation(workers, 1))
			c.Reset(init.Clone(), a, q)
			for _, batch := range batches {
				c.ApplyBatch(batch)
			}
			return c
		}
		c2, c8 := run(2), run(8)
		n := len(c2.st.val)
		for v := 0; v < n; v++ {
			x := graph.VertexID(v)
			if c2.st.parent[x] != c8.st.parent[x] {
				t.Fatalf("%s: vertex %d: parent %d at width 2, %d at width 8",
					a.Name(), v, c2.st.parent[x], c8.st.parent[x])
			}
		}
	}
}

// TestParallelDifferentialMulti: MultiCISO under the nested-parallelism
// policy against a serial MultiCISO. Answers must match, and real bucket
// rounds must run.
func TestParallelDifferentialMulti(t *testing.T) {
	for _, a := range algo.All() {
		ds := graph.RMAT("parmulti", 7, 900, graph.DefaultRMAT, 8, 29)
		w, _ := stream.New(ds, stream.Config{
			LoadFraction: 0.5, AddsPerBatch: 40, DelsPerBatch: 40, Seed: 29,
		})
		pairs := w.QueryPairsConnected(3)
		var queries []Query
		for _, p := range pairs {
			queries = append(queries, Query{S: p[0], D: p[1]})
		}
		ref := NewMultiCISO()
		par := NewMultiCISO(WithWorkers(2),
			WithPropagateWorkers(4), WithParallelFrontierMin(1))
		ref.Reset(w.Initial().Clone(), a, queries)
		par.Reset(w.Initial().Clone(), a, queries)
		for b := 0; b < 5; b++ {
			batch := w.NextBatch()
			ref.ApplyBatch(batch)
			par.ApplyBatch(batch)
			want, got := ref.Answers(), par.Answers()
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s batch %d query %d: parallel %v, serial %v",
						a.Name(), b, i, got[i], want[i])
				}
			}
		}
		buckets := par.Counters().Get(stats.CntParallelBuckets)
		fallbacks := par.Counters().Get(stats.CntParallelFallbacks)
		if buckets <= 0 {
			t.Fatalf("%s: no parallel bucket rounds ran", a.Name())
		}
		if buckets < 0 || fallbacks < 0 {
			t.Fatalf("%s: negative counters (buckets %d, fallbacks %d)",
				a.Name(), buckets, fallbacks)
		}
	}
}

// TestParallelColdStartMatchesSerial: the cold-start convergence (Reset and
// AddQuery drain with the full worker budget) must equal a serial cold
// start bitwise.
func TestParallelColdStartMatchesSerial(t *testing.T) {
	for _, a := range algo.All() {
		g := graph.RMAT("parcold", 8, 2200, graph.DefaultRMAT, 8, 5)
		w, _ := stream.New(g, stream.Config{LoadFraction: 1, AddsPerBatch: 1, DelsPerBatch: 0, Seed: 5})
		p := w.QueryPairsConnected(1)[0]
		queries := []Query{{S: p[0], D: p[1]}}
		ref := NewMultiCISO()
		par := NewMultiCISO(WithPropagateWorkers(8), WithParallelFrontierMin(1))
		ref.Reset(w.Initial().Clone(), a, queries)
		par.Reset(w.Initial().Clone(), a, queries)
		assertStateMatchesSerial(t, a.Name(), ref.stateOf(0), par.stateOf(0))
		// Late registration takes the same parallel cold-start path.
		ri, rans := ref.AddQuery(Query{S: p[1], D: p[0]})
		pi, pans := par.AddQuery(Query{S: p[1], D: p[0]})
		if ri != pi || rans != pans {
			t.Fatalf("%s: AddQuery diverged: (%d,%v) vs (%d,%v)", a.Name(), ri, rans, pi, pans)
		}
		assertStateMatchesSerial(t, a.Name(), ref.stateOf(ri), par.stateOf(pi))
	}
}

// TestParallelDrainZeroAllocSteadyState: once the scratch (worklist,
// pending set, frontier, per-worker claim lists, goroutine stacks) has
// warmed, repeated parallel drains must not allocate — the DESIGN.md §9
// guarantee extended to the §16 path.
func TestParallelDrainZeroAllocSteadyState(t *testing.T) {
	ds := graph.RMAT("paralloc", 7, 900, graph.DefaultRMAT, 8, 11)
	w, _ := stream.New(ds, stream.Config{LoadFraction: 1, AddsPerBatch: 1, DelsPerBatch: 0, Seed: 11})
	g := w.Initial().Clone()
	st := newState(g, algo.PPSP{}, Query{S: 0, D: 5}, stats.NewCounters())
	st.prop = newParallelPropagator(4, 4)
	cycle := func() { st.fullCompute() }
	for i := 0; i < 8; i++ {
		cycle() // warm scratch arrays and the runtime's goroutine cache
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Fatalf("steady-state parallel drain allocates %v/run", allocs)
	}
	if err := st.verifyInvariant(); err != nil {
		t.Fatal(err)
	}
}
