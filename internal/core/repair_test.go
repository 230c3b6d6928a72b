package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
	"cisgraph/internal/stream"
)

// Tests for the repair kernel (DESIGN.md §9.6): the leaf repair, the
// trim-seeded region repair with its late-adoption relax, the single
// phase-A drain, and the plain per-state tallies flushed at phase exit.

// assertStateMatches compares st's full value array bitwise against ref and
// validates st's dependency tree: the invariant holds, and every reached
// vertex's parent chain ends at the source within n hops.
func assertStateMatches(t *testing.T, label string, ref, st *state) {
	t.Helper()
	n := len(st.val)
	for v := 0; v < n; v++ {
		if rv, sv := ref.val[v], st.val[v]; rv != sv {
			t.Fatalf("%s: vertex %d: value %v, cold start %v", label, v, sv, rv)
		}
	}
	if err := st.verifyInvariant(); err != nil {
		t.Fatalf("%s: dependency tree broken: %v", label, err)
	}
	for v := 0; v < n; v++ {
		x := graph.VertexID(v)
		if x == st.src || !algo.Reached(st.a, st.val[x]) {
			continue
		}
		hops := 0
		for x != st.src {
			if x = st.parent[x]; x == graph.NoVertex {
				t.Fatalf("%s: vertex %d: reached but parent chain dead-ends", label, v)
			}
			if hops++; hops > n {
				t.Fatalf("%s: vertex %d: parent cycle", label, v)
			}
		}
	}
}

// assertKernelQuiescent is the after-every-batch audit: every state equals a
// cold start on the engine's topology (values bitwise; dependency tree valid
// and rooted), no tally is left unflushed, and every scratch slot is back in
// its between-operations state (assertScratchesQuiescent).
func assertKernelQuiescent(t *testing.T, label string, m *MultiCISO) {
	t.Helper()
	for gi, g := range m.groups {
		st := g.st
		ref := newState(m.g, m.a, Query{S: st.src}, stats.NewCounters())
		ref.fullCompute()
		assertStateMatches(t, fmt.Sprintf("%s group %d", label, gi), ref, st)
		if st.tally != [numTallies]int64{} {
			t.Fatalf("%s group %d: unflushed tallies %v", label, gi, st.tally)
		}
		if st.sc != nil {
			t.Fatalf("%s group %d: scratch still attached", label, gi)
		}
	}
	assertScratchesQuiescent(t, label, m)
}

// assertScratchesQuiescent checks that every scratch slot of m is in its
// between-operations state: the worklist empty and its index all zero, no
// vertex marked, no key path held.
func assertScratchesQuiescent(t *testing.T, label string, m *MultiCISO) {
	t.Helper()
	for slot, sc := range m.scs {
		if sc.wl.len() != 0 || len(sc.path) != 0 {
			t.Fatalf("%s slot %d: worklist %d, key path %d left behind", label, slot, sc.wl.len(), len(sc.path))
		}
		for v, p := range sc.wl.pos {
			if p != 0 {
				t.Fatalf("%s slot %d: vertex %d still indexed at heap slot %d", label, slot, v, p-1)
			}
		}
		for v := range sc.inSet {
			if sc.inSet[v] || sc.onPath[v] {
				t.Fatalf("%s slot %d: vertex %d still marked (inSet %v, onPath %v)",
					label, slot, v, sc.inSet[v], sc.onPath[v])
			}
		}
	}
}

// repairShape is a hand-built topology and the batches that drive one branch
// of the kernel through it. Weights are chosen for PPSP; the other algebras
// run the same shapes (some ignore weights, some rank them the other way) and
// must stay exact whichever branch they end up in. check, if set, runs on the
// PPSP engine after the last batch with the counter movement of
// that batch, and pins the branch the shape was built for.
type repairShape struct {
	name    string
	n       int
	edges   [][3]int // from, to, weight
	q       Query
	batches [][]graph.Update
	check   func(t *testing.T, st *state, moved map[string]int64)
}

func repairShapes() []repairShape {
	// busiest: the source's only cheap out-edge feeds a hub whose subtree is
	// most of the graph; a dear second entry keeps the region reachable.
	busiest := repairShape{name: "busiest-source-edge", n: 24, q: Query{S: 0, D: 23}}
	busiest.edges = append(busiest.edges, [3]int{0, 1, 1}, [3]int{0, 2, 40})
	for v := 2; v < 24; v++ {
		busiest.edges = append(busiest.edges, [3]int{1, v, 1})
		if v+1 < 24 {
			busiest.edges = append(busiest.edges, [3]int{v, v + 1, 2})
		}
	}
	busiest.batches = [][]graph.Update{{graph.Del(0, 1, 1)}}
	busiest.check = func(t *testing.T, st *state, moved map[string]int64) {
		if moved[stats.CntRepairRegion] != 1 || moved[stats.CntTagged] < 12 {
			t.Fatalf("region repair over ≥ half the reachable set expected, moved %v", moved)
		}
		if st.val[23] != 40+2*21 {
			t.Fatalf("val[23] = %v after losing the hub", st.val[23])
		}
	}
	return []repairShape{
		{
			// 3 is a leaf of the dependency tree with a dearer second supplier.
			name:    "leaf",
			n:       4,
			edges:   [][3]int{{0, 1, 1}, {0, 2, 2}, {1, 3, 1}, {2, 3, 5}},
			q:       Query{S: 0, D: 3},
			batches: [][]graph.Update{{graph.Del(1, 3, 1)}},
			check: func(t *testing.T, st *state, moved map[string]int64) {
				if moved[stats.CntRepairLeaf] != 1 || moved[stats.CntRepairRegion] != 0 || moved[stats.CntActivation] != 0 {
					t.Fatalf("one leaf repair and no activation expected, moved %v", moved)
				}
				if st.val[3] != 7 || st.parent[3] != 2 {
					t.Fatalf("leaf repaired to (%v, %d), want (7, 2)", st.val[3], st.parent[3])
				}
			},
		},
		{
			// 3 keeps its value through the tie supplier 2: shortcut adoption.
			name:    "tie-supplier",
			n:       5,
			edges:   [][3]int{{0, 1, 1}, {0, 2, 1}, {1, 3, 2}, {2, 3, 2}, {3, 4, 1}},
			q:       Query{S: 0, D: 4},
			batches: [][]graph.Update{{graph.Del(1, 3, 2)}, {graph.Del(2, 3, 2), graph.Add(1, 3, 2)}},
			check: func(t *testing.T, st *state, moved map[string]int64) {
				if moved[stats.CntTagged] != 0 || moved[stats.CntStateUpdate] != 0 {
					t.Fatalf("adoption must neither tag nor write a value, moved %v", moved)
				}
				if st.val[3] != 3 || st.parent[3] != 1 {
					t.Fatalf("3 is (%v, %d), want (3, 1)", st.val[3], st.parent[3])
				}
			},
		},
		busiest,
		{
			// Region [1, 2, 3] in BFS order below the deleted edge 0→1. 2 breaks
			// (its only other supplier is 3, still marked); 3 is then adopted by
			// its tie supplier 4 — after 2 broke — and is 2's best supplier: only
			// the late-adoption relax of 3→2 gives 2 its value.
			name:  "late-adoption",
			n:     6,
			edges: [][3]int{{0, 1, 1}, {1, 2, 1}, {1, 3, 1}, {0, 4, 1}, {3, 2, 1}, {2, 5, 1}},
			q:     Query{S: 0, D: 5},
			batches: [][]graph.Update{
				{graph.Add(4, 3, 1)}, // a useless tie: 3 keeps parent 1
				{graph.Del(0, 1, 1)},
			},
			check: func(t *testing.T, st *state, moved map[string]int64) {
				if moved[stats.CntRepairRegion] != 1 {
					t.Fatalf("one region repair expected, moved %v", moved)
				}
				if st.parent[3] != 4 || st.val[2] != 3 || st.parent[2] != 3 || st.val[5] != 4 {
					t.Fatalf("parent[3]=%d val[2]=%v parent[2]=%d val[5]=%v, want 4, 3, 3, 4",
						st.parent[3], st.val[2], st.parent[2], st.val[5])
				}
			},
		},
		{
			// The whole region loses its only entry: every value falls to Init
			// and nothing is pushed.
			name:    "disconnect",
			n:       5,
			edges:   [][3]int{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {1, 3, 5}, {3, 4, 1}},
			q:       Query{S: 0, D: 4},
			batches: [][]graph.Update{{graph.Del(0, 1, 1)}},
			check: func(t *testing.T, st *state, moved map[string]int64) {
				if moved[stats.CntRepairRegion] != 1 || moved[stats.CntActivation] != 0 {
					t.Fatalf("region repair with nothing pushed expected, moved %v", moved)
				}
				for v := 1; v < 5; v++ {
					if st.op.reached(st.val[v]) || st.parent[v] != graph.NoVertex {
						t.Fatalf("vertex %d is (%v, %d) after the disconnect", v, st.val[v], st.parent[v])
					}
				}
			},
		},
		{
			// Two delayed heads, 5 inside 3's subtree (3→4→5 before 4→5 goes),
			// and 5's best remaining supplier is 3: phase D makes one region of
			// both and drains it once.
			name: "nested-delayed-heads",
			n:    7,
			edges: [][3]int{{0, 1, 1}, {0, 6, 1}, {0, 2, 1}, {2, 3, 1}, {3, 4, 1}, {4, 5, 1},
				{3, 5, 5}, {0, 3, 5}, {0, 5, 9}},
			q:       Query{S: 0, D: 6},
			batches: [][]graph.Update{{graph.Del(2, 3, 1), graph.Del(4, 5, 1)}},
			check: func(t *testing.T, st *state, moved map[string]int64) {
				if moved[stats.CntUpdateDelayed] != 2 || moved[stats.CntRepairRegion] != 1 ||
					moved[stats.CntRepairLeaf] != 0 || moved[stats.CntTagged] != 3 {
					t.Fatalf("one phase-D region over 3, 4 and 5 expected, moved %v", moved)
				}
				if st.val[3] != 5 || st.val[4] != 6 || st.val[5] != 9 || st.parent[5] != 0 {
					t.Fatalf("3, 4, 5 = %v, %v, (%v, %d), want 5, 6, (9, 0)", st.val[3], st.val[4], st.val[5], st.parent[5])
				}
			},
		},
		{
			// The same heads, but 5's best remaining supplier 0 is outside 3's
			// region: 5 is repaired as a leaf from its scan, 3 and 4 as a
			// region that reads 5 as final.
			name: "delayed-leaf-beside-region",
			n:    7,
			edges: [][3]int{{0, 1, 1}, {0, 6, 1}, {0, 2, 1}, {2, 3, 1}, {3, 4, 1}, {4, 5, 1},
				{0, 3, 5}, {0, 5, 9}},
			q:       Query{S: 0, D: 6},
			batches: [][]graph.Update{{graph.Del(2, 3, 1), graph.Del(4, 5, 1)}},
			check: func(t *testing.T, st *state, moved map[string]int64) {
				if moved[stats.CntRepairRegion] != 1 || moved[stats.CntRepairLeaf] != 1 || moved[stats.CntTagged] != 3 {
					t.Fatalf("a phase-D leaf (5) beside a region (3, 4) expected, moved %v", moved)
				}
				if st.val[3] != 5 || st.val[4] != 6 || st.val[5] != 9 || st.parent[5] != 0 {
					t.Fatalf("3, 4, 5 = %v, %v, (%v, %d), want 5, 6, (9, 0)", st.val[3], st.val[4], st.val[5], st.parent[5])
				}
			},
		},
		{
			// Delayed head 6 loses its parent 5 and adopts its tie supplier 4,
			// which derives from the other pending head 3: the region tagged
			// from 3 must take 6 along (6 falls from 4 to 12).
			name: "supplier-below-pending-head",
			n:    8,
			edges: [][3]int{{0, 1, 1}, {0, 7, 1}, {0, 2, 1}, {2, 3, 1}, {0, 3, 10}, {3, 4, 1},
				{0, 5, 1}, {5, 6, 3}, {4, 6, 1}, {0, 6, 20}},
			q:       Query{S: 0, D: 7},
			batches: [][]graph.Update{{graph.Del(2, 3, 1), graph.Del(5, 6, 3)}},
			check: func(t *testing.T, st *state, moved map[string]int64) {
				if moved[stats.CntUpdateDelayed] != 2 || moved[stats.CntRepairRegion] != 1 || moved[stats.CntTagged] != 3 {
					t.Fatalf("one phase-D region over 3, 4 and 6 expected, moved %v", moved)
				}
				if st.val[6] != 12 || st.parent[6] != 4 {
					t.Fatalf("6 is (%v, %d), want (12, 4)", st.val[6], st.parent[6])
				}
			},
		},
		{
			// One batch improves 3 twice (9 → 6 → 3) before the single drain.
			name:    "double-improvement",
			n:       5,
			edges:   [][3]int{{0, 1, 1}, {0, 2, 2}, {0, 3, 9}, {3, 4, 1}},
			q:       Query{S: 0, D: 4},
			batches: [][]graph.Update{{graph.Add(2, 3, 4), graph.Add(1, 3, 2)}},
			check: func(t *testing.T, st *state, moved map[string]int64) {
				if moved[stats.CntStateUpdate] != 3 { // 3 twice, then 4 once
					t.Fatalf("state_update moved %d, want 3", moved[stats.CntStateUpdate])
				}
				if st.val[3] != 3 || st.parent[3] != 1 || st.val[4] != 4 {
					t.Fatalf("3 is (%v, %d), 4 is %v", st.val[3], st.parent[3], st.val[4])
				}
			},
		},
	}
}

func (sh repairShape) graph() *graph.Dynamic {
	g := graph.NewDynamic(sh.n)
	for _, e := range sh.edges {
		g.AddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]), float64(e[2]))
	}
	return g
}

func allAlgebras() []algo.Algorithm { return append(algo.All(), algo.Extensions()...) }

// TestRepairKernelDifferential drives every algebra through the hand-built shapes and through seeded deletion-heavy streams,
// auditing the engine against a cold start after every batch.
func TestRepairKernelDifferential(t *testing.T) {
	for _, a := range allAlgebras() {
		for _, sh := range repairShapes() {
			label := fmt.Sprintf("%s/%s", a.Name(), sh.name)
			m := NewMultiCISO()
			m.Reset(sh.graph(), a, []Query{sh.q, {S: sh.q.S, D: 1}})
			assertKernelQuiescent(t, label+" reset", m)
			var before map[string]int64
			for bi, batch := range sh.batches {
				before = m.cnt.Snapshot()
				if d := m.ApplyBatchDelta(batch); d.Err != nil {
					t.Fatalf("%s batch %d: %v", label, bi, d.Err)
				}
				assertKernelQuiescent(t, fmt.Sprintf("%s batch %d", label, bi), m)
			}
			if sh.check != nil && a.Name() == "PPSP" {
				sh.check(t, m.groups[0].st, m.cnt.Diff(before))
			}
		}
		// Phases C and D run the same branches, so the engine's counters
		// cannot tell whose repair was a leaf and whose a region: a twin
		// engine driven phase by phase attributes them.
		var cover [2][2]int64 // [phase C, phase D][leaf, region]
		for _, run := range []struct {
			seed int64
			dels int
		}{{5, 50}, {23, 50}, {5, 3}, {23, 3}} {
			seed := run.seed
			label := fmt.Sprintf("%s/stream %d/%d", a.Name(), seed, run.dels)
			ds := graph.RMAT("repair", 7, 900, graph.DefaultRMAT, 8, seed)
			w, err := stream.New(ds, stream.Config{
				LoadFraction: 0.6, AddsPerBatch: 10, DelsPerBatch: run.dels, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			var qs []Query
			for _, p := range w.QueryPairsConnected(8) {
				qs = append(qs, Query{S: p[0], D: p[1]})
			}
			m, twin := NewMultiCISO(), NewMultiCISO()
			m.Reset(w.Initial(), a, qs)
			twin.Reset(w.Initial(), a, qs)
			for b := 0; b < 5; b++ {
				batch := w.NextBatch()
				if d := m.ApplyBatchDelta(batch); d.Err != nil {
					t.Fatalf("%s batch %d: %v", label, b, d.Err)
				}
				assertKernelQuiescent(t, fmt.Sprintf("%s batch %d", label, b), m)
				moved := phaseRepairs(twin, batch)
				assertKernelQuiescent(t, fmt.Sprintf("%s twin batch %d", label, b), twin)
				for ph := range cover {
					for br := range cover[ph] {
						cover[ph][br] += moved[ph][br]
					}
				}
			}
		}
		for ph, name := range []string{"C", "D"} {
			if cover[ph][0] == 0 || cover[ph][1] == 0 {
				t.Fatalf("%s: streams never reached both phase-%s repair branches (leaf %d, region %d)",
					a.Name(), name, cover[ph][0], cover[ph][1])
			}
		}
	}
}

// phaseRepairs applies batch to m through the phase functions
// applyBatchCoreLocked runs — serially, every group processed — and returns
// the leaf and region repairs of phase C and of phase D.
func phaseRepairs(m *MultiCISO, batch []graph.Update) (moved [2][2]int64) {
	nb := NormalizeBatch(m.g, batch)
	adds, dels := nb.Adds, nb.Dels
	for _, up := range nb.Adds {
		m.g.AddEdge(up.From, up.To, up.W)
	}
	for _, rw := range nb.Reweights {
		m.g.RemoveEdge(rw.From, rw.To)
		m.g.AddEdge(rw.From, rw.To, rw.NewW)
		adds = append(adds, graph.Add(rw.From, rw.To, rw.NewW))
		dels = append(dels, graph.Del(rw.From, rw.To, rw.OldW))
	}
	m.ensureScratches(1)
	for _, g := range m.groups {
		g.st.sc = m.scs[0]
		g.st.processAdditions(adds)
	}
	for _, up := range nb.Dels {
		m.g.RemoveEdge(up.From, up.To)
	}
	for _, g := range m.groups {
		st := g.st
		repairs := func() [2]int64 { return [2]int64{st.h[tLeaf].Value(), st.h[tRegion].Value()} }
		st.classifyDeletions(dels, len(nb.Dels), true)
		r0 := repairs()
		st.repairValuable()
		r1 := repairs()
		st.repairDelayed()
		r2 := repairs()
		st.sc = nil
		for br := range moved[0] {
			moved[0][br] += r1[br] - r0[br]
			moved[1][br] += r2[br] - r1[br]
		}
	}
	return moved
}

// churnBatches returns an engine at RMAT scale armed with q PPSP queries
// spread over the `sources` highest-degree vertices, and `batches`
// steady-state toggle bodies of `size`
// updates against it: every update deletes a loaded arc or adds a withheld
// one and the arc changes pool, so each is valid against what its
// predecessors left.
func churnBatches(t *testing.T, scale, q, sources, batches, size int) (*MultiCISO, [][]graph.Update) {
	t.Helper()
	n := 1 << scale
	el := graph.RMAT("churn", scale, 16*n, graph.DefaultRMAT, 64, 42)
	rng := rand.New(rand.NewSource(42))
	var pools [2][]graph.Arc // [0] withheld, [1] loaded
	for i, idx := range rng.Perm(len(el.Arcs)) {
		pools[i%2] = append(pools[i%2], el.Arcs[idx])
	}
	g := graph.FromEdgeList(&graph.EdgeList{N: n, Arcs: pools[1]})
	var qs []Query
	srcs := g.TopDegreeVertices(sources)
	for i := 0; i < q; i++ {
		qs = append(qs, Query{S: srcs[i%sources], D: graph.VertexID(rng.Intn(n))})
	}
	out := make([][]graph.Update, batches)
	for b := range out {
		for k := 0; k < size; k++ {
			from := rng.Intn(2)
			i := rng.Intn(len(pools[from]))
			a := pools[from][i]
			pools[from][i] = pools[from][len(pools[from])-1]
			pools[from] = pools[from][:len(pools[from])-1]
			pools[1-from] = append(pools[1-from], a)
			if from == 1 {
				out[b] = append(out[b], graph.Del(a.From, a.To, a.W))
			} else {
				out[b] = append(out[b], graph.Add(a.From, a.To, a.W))
			}
		}
	}
	m := NewMultiCISO()
	m.Reset(g, algo.PPSP{}, qs)
	return m, out
}

// TestApplyBatchDeltaAllocCeiling pins the batch machinery's steady-state
// allocation count: a 512-update churn body against 64 distinct-source
// queries, and against 128 queries over 16 sources — normalization, phase
// lists, key paths, repair scratch and counter deltas all reuse engine-owned
// memory. What is left is adjacency growth in the topology and the
// answer-delta report.
func TestApplyBatchDeltaAllocCeiling(t *testing.T) {
	const warm, runs = 8, 16
	for _, c := range []struct{ q, sources int }{{64, 64}, {128, 16}} {
		m, batches := churnBatches(t, 12, c.q, c.sources, warm+runs+1, 512)
		next := 0
		apply := func() {
			if d := m.ApplyBatchDelta(batches[next]); d.Err != nil {
				t.Fatal(d.Err)
			}
			next++
		}
		for next < warm {
			apply()
		}
		if allocs := testing.AllocsPerRun(runs, apply); allocs > 128 {
			t.Fatalf("Q=%d over %d sources: steady-state ApplyBatchDelta allocates %v objects per 512-update batch, ceiling 128",
				c.q, c.sources, allocs)
		}
	}
}

// assertCountersFlushed checks that no state holds an unflushed tally and
// that every state's tallies flush into the engine's one counter set.
func assertCountersFlushed(t *testing.T, label string, m *MultiCISO) {
	t.Helper()
	for gi, g := range m.groups {
		if g.st.tally != [numTallies]int64{} {
			t.Fatalf("%s: group %d holds unflushed tallies %v", label, gi, g.st.tally)
		}
		for i, name := range tallyNames {
			if g.st.h[i] != m.cnt.Handle(name) {
				t.Fatalf("%s: group %d counts %s outside the engine's counters", label, gi, name)
			}
		}
	}
}

// TestCountersFlushedAtEveryExit walks every public writer — a panicking
// plug-in mid-phase included — while a reader polls the engine counters.
func TestCountersFlushedAtEveryExit(t *testing.T) {
	ds := graph.Uniform("flush", 120, 900, 8, 31)
	w, err := stream.New(ds, stream.Config{
		LoadFraction: 0.5, AddsPerBatch: 30, DelsPerBatch: 30, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	var qs []Query
	for _, p := range w.QueryPairsConnected(5) {
		qs = append(qs, Query{S: p[0], D: p[1]})
	}
	pa := &panicOnceAlgo{Algorithm: algo.PPSP{}}
	m := NewMultiCISO(WithWorkers(2))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = m.Counters().Snapshot()
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	m.Reset(w.Initial(), pa, qs[:4])
	assertCountersFlushed(t, "Reset", m)
	if d := m.ApplyBatchDelta(w.NextBatch()); d.Err != nil {
		t.Fatal(d.Err)
	}
	assertCountersFlushed(t, "ApplyBatchDelta", m)
	m.AddQuery(qs[4])
	assertCountersFlushed(t, "AddQuery", m)

	pa.after = 40
	pa.calls.Store(0)
	pa.armed.Store(true)
	if d := m.ApplyBatchDelta(w.NextBatch()); d.Err == nil {
		t.Fatal("the armed plug-in did not panic inside the batch")
	}
	if got := m.Counters().Get(stats.CntQueryPanic); got != 1 {
		t.Fatalf("query_panic = %d, want 1", got)
	}
	assertCountersFlushed(t, "panic batch", m)
	assertScratchesQuiescent(t, "panic batch", m)
}

// TestRegionDrainStaysInRegion pins the region-bounded drain (DESIGN.md
// §9.6): a tagged region whose every vertex has out-edges to many vertices
// outside it — each holding a value no region vertex can improve — is
// repaired without relaxing a single one of those edges, and the values
// still equal a cold start's, on every algebra.
func TestRegionDrainStaysInRegion(t *testing.T) {
	const sinks = 40
	for _, a := range allAlgebras() {
		// good is the raw weight the algebra prefers, bad the other.
		good, bad := 1.0, 5.0
		if a.Better(a.Propagate(a.Source(), a.Weight(bad)), a.Propagate(a.Source(), a.Weight(good))) {
			good, bad = bad, good
		}
		// 0 → 1 → 2 → 3 is the key path; 1 keeps a worse supplier through
		// 4, so deleting 0 → 1 breaks the region {1, 2, 3}. Every sink
		// hangs off the source directly, and off each region vertex too.
		g := graph.NewDynamic(5 + sinks)
		g.AddEdge(0, 1, good)
		g.AddEdge(0, 4, bad)
		g.AddEdge(4, 1, bad)
		g.AddEdge(1, 2, good)
		g.AddEdge(2, 3, good)
		for s := graph.VertexID(5); s < 5+sinks; s++ {
			g.AddEdge(0, s, good)
			for r := graph.VertexID(1); r <= 3; r++ {
				g.AddEdge(r, s, good)
			}
		}
		q := Query{S: 0, D: 3}
		m := NewMultiCISO()
		m.Reset(g, a, []Query{q})
		before := m.Counters().Snapshot()
		if d := m.ApplyBatchDelta([]graph.Update{graph.Del(0, 1, good)}); d.Err != nil {
			t.Fatalf("%s: %v", a.Name(), d.Err)
		}
		after := m.Counters().Snapshot()
		if relax := after[stats.CntRelax] - before[stats.CntRelax]; relax >= sinks {
			t.Fatalf("%s: the repair relaxed %d edges; the region has only %d edges inside it and %d out of it",
				a.Name(), relax, 2, 3*sinks)
		}
		if _, plateau := a.(algo.Reach); !plateau && after[stats.CntRepairRegion] == before[stats.CntRepairRegion] {
			t.Fatalf("%s: the deletion was not repaired as a region", a.Name())
		}
		cs := NewColdStart()
		cs.Reset(m.g.Clone(), a, q)
		ref, got := cs.StateForTest(), m.stateOf(0).val
		for v := range ref {
			if got[v] != ref[v] {
				t.Fatalf("%s: vertex %d: %v, cold start %v", a.Name(), v, got[v], ref[v])
			}
		}
		checkInvariant(t, m.stateOf(0))
		assertScratchesQuiescent(t, a.Name(), m)
	}
}
