package core

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/stream"
)

// TestApplyUpdatesEdgeCases covers the degenerate inputs the server can
// produce: empty batches, engines with no queries, and no-op updates.
func TestApplyUpdatesEdgeCases(t *testing.T) {
	g := graph.NewDynamic(3)
	g.AddEdge(0, 1, 1)
	m := NewMultiCISO()
	m.Reset(g, algo.PPSP{}, nil)
	if d := m.ApplyBatchDelta(nil); d.Err != nil || d.Changed != nil || d.Skipped+d.Processed != 0 {
		t.Fatalf("empty batch: %+v", d)
	}
	// With no registered queries an update is topology only.
	if d := m.ApplyBatchDelta([]graph.Update{graph.Add(1, 2, 1), graph.Del(0, 1, 1)}); d.Err != nil || d.Processed != 0 {
		t.Fatalf("no-query batch: %+v", d)
	}
	if _, ok := m.g.HasEdge(1, 2); !ok {
		t.Fatal("add did not land in topology")
	}
	if _, ok := m.g.HasEdge(0, 1); ok {
		t.Fatal("del did not land in topology")
	}
	// A duplicate add and an absent del normalize to nothing and must not
	// disturb topology.
	if d := m.ApplyBatchDelta([]graph.Update{graph.Add(1, 2, 1), graph.Del(0, 1, 1)}); d.Err != nil {
		t.Fatalf("noop batch: %+v", d)
	}
	if m.g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", m.g.NumEdges())
	}
}

// adversarialGroup builds one seeded group aimed at batch normalization's
// corners: a tree-edge deletion opens and closes the group, and in between
// come add/del/re-add runs on one edge, same-edge updates directly behind a
// tree-edge deletion, reweights, duplicate adds and absent deletes (noops),
// and plain churn. Tree edges and presence are read off ref's pre-group
// state; what they have become by the time they apply is part of the mix.
func adversarialGroup(rng *rand.Rand, ref *MultiCISO, size int) []graph.Update {
	g := ref.g
	n := g.NumVertices()
	weight := func() float64 { return float64(1 + rng.Intn(16)) }
	treeDel := func() graph.Update {
		st := ref.groups[rng.Intn(len(ref.groups))].st
		for tries := 0; tries < 256; tries++ {
			v := graph.VertexID(rng.Intn(n))
			if p := st.parent[v]; p != graph.NoVertex {
				w, _ := g.HasEdge(p, v)
				return graph.Del(p, v, w)
			}
		}
		return graph.Del(0, 1, 1)
	}
	present := func() (graph.VertexID, graph.Edge, bool) {
		for tries := 0; tries < 256; tries++ {
			u := graph.VertexID(rng.Intn(n))
			if out := g.Out(u); len(out) > 0 {
				return u, out[rng.Intn(len(out))], true
			}
		}
		return 0, graph.Edge{}, false
	}
	ups := []graph.Update{treeDel()}
	for len(ups) < size-1 {
		u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		w := weight()
		switch rng.Intn(8) {
		case 0: // one edge three times: in, out, back in at another weight
			ups = append(ups, graph.Add(u, v, w), graph.Del(u, v, w), graph.Add(u, v, weight()))
		case 1: // same edge directly behind a tree-edge deletion
			d := treeDel()
			ups = append(ups, d, graph.Add(d.From, d.To, weight()))
		case 2: // noops: duplicate add at the stored weight, delete of a (likely) absent edge
			if pu, e, ok := present(); ok {
				ups = append(ups, graph.Add(pu, e.To, e.W))
			}
			ups = append(ups, graph.Del(u, v, w))
		case 3: // reweight of a present edge
			if pu, e, ok := present(); ok {
				ups = append(ups, graph.Add(pu, e.To, weight()))
			}
		case 4:
			ups = append(ups, treeDel())
		case 5:
			if pu, e, ok := present(); ok {
				ups = append(ups, graph.Del(pu, e.To, e.W))
			}
		default:
			ups = append(ups, graph.Add(u, v, w))
		}
	}
	return append(ups, treeDel())
}

// sameConvergedState fails unless got and ref hold the same topology and,
// for every query, bit-identical converged values at every vertex.
func sameConvergedState(t *testing.T, where string, got, ref *MultiCISO) {
	t.Helper()
	if got.g.NumEdges() != ref.g.NumEdges() {
		t.Fatalf("%s: %d edges, reference %d", where, got.g.NumEdges(), ref.g.NumEdges())
	}
	for u := 0; u < ref.g.NumVertices(); u++ {
		for _, e := range ref.g.Out(graph.VertexID(u)) {
			if w, ok := got.g.HasEdge(graph.VertexID(u), e.To); !ok || w != e.W {
				t.Fatalf("%s: edge %d->%d = (%v,%v), reference weight %v", where, u, e.To, w, ok, e.W)
			}
		}
	}
	for i := range ref.queries {
		for v := 0; v < ref.g.NumVertices(); v++ {
			if g, w := got.stateOf(i).val[v], ref.stateOf(i).val[v]; g != w {
				t.Fatalf("%s: query %v vertex %d: value %v, reference %v", where, ref.queries[i], v, g, w)
			}
		}
	}
}

// groupMatchesPerUpdate is the one apply face's stream-split proof: applied
// to m, each group from next as one ApplyBatchDelta must leave the topology,
// every answer and every converged value identical to ref applying one
// ApplyBatchDelta per update — the per-record stream positions the server
// promises. m and ref start as the same engine; next reads ref's pre-group
// state. It returns the number of queries the groups processed.
func groupMatchesPerUpdate(t *testing.T, where string, m, ref *MultiCISO, groups int, next func(ref *MultiCISO) []graph.Update) int {
	t.Helper()
	processed := 0
	for gi := 0; gi < groups; gi++ {
		group := next(ref)
		d := m.ApplyBatchDelta(group)
		if d.Err != nil {
			t.Fatalf("%s group %d: %v", where, gi, d.Err)
		}
		assertScratchesQuiescent(t, where, m)
		processed += d.Processed
		for _, up := range group {
			ref.ApplyBatchDelta([]graph.Update{up})
			assertScratchesQuiescent(t, where+" reference", ref)
		}
		sameConvergedState(t, where, m, ref)
		for i := range m.queries {
			checkInvariant(t, m.stateOf(i))
		}
	}
	return processed
}

// TestApplyUpdatesMatchesBatchPath is the correctness anchor on plain
// streams: for every algorithm, feeding a stream in groups through a worker
// pool must converge to the same state as a reference engine that applies
// each update as its own batch.
func TestApplyUpdatesMatchesBatchPath(t *testing.T) {
	for _, a := range algo.All() {
		w, err := stream.New(graph.RMAT("fp", 7, 900, graph.DefaultRMAT, 16, 33), stream.Config{
			LoadFraction: 0.5, AddsPerBatch: 40, DelsPerBatch: 40, Seed: 33,
		})
		if err != nil {
			t.Fatal(err)
		}
		var qs []Query
		for _, p := range w.QueryPairs(4) {
			qs = append(qs, Query{S: p[0], D: p[1]})
		}
		init := w.Initial()
		m := NewMultiCISO(WithWorkers(4))
		m.Reset(init.Clone(), a, qs)
		ref := NewMultiCISO()
		ref.Reset(init.Clone(), a, qs)
		groupMatchesPerUpdate(t, a.Name(), m, ref, 4, func(*MultiCISO) []graph.Update { return w.NextBatch() })
	}
}

// TestApplyUpdatesSameEdgeConflict applies, for every algebra, one group
// that touches the same edge repeatedly — an edge out and back cheaper, a new
// edge in and out again — and checks it converges to the per-update
// reference and leaves exactly the net edges in topology.
func TestApplyUpdatesSameEdgeConflict(t *testing.T) {
	el := graph.Grid("fpconf", 6, 6, 9, 2)
	qs := []Query{{S: 0, D: 35}, {S: 5, D: 30}}
	arc := el.Arcs[0]
	group := []graph.Update{
		graph.Add(30, 2, 0.5),                // likely valuable somewhere
		graph.Del(arc.From, arc.To, arc.W),   // existing edge out
		graph.Add(arc.From, arc.To, arc.W/2), // same edge back, cheaper
		graph.Add(2, 30, 3),
		graph.Del(2, 30, 3), // add-then-del of a brand new edge nets out
	}
	for _, a := range algo.All() {
		m := NewMultiCISO()
		m.Reset(graph.FromEdgeList(el), a, qs)
		ref := NewMultiCISO()
		ref.Reset(graph.FromEdgeList(el), a, qs)
		groupMatchesPerUpdate(t, a.Name(), m, ref, 1, func(*MultiCISO) []graph.Update { return group })
		if w, ok := m.g.HasEdge(2, 30); ok {
			t.Fatalf("%s: add-then-del edge survived with weight %v", a.Name(), w)
		}
		if w, ok := m.g.HasEdge(arc.From, arc.To); !ok || w != arc.W/2 {
			t.Fatalf("%s: reweighted edge = (%v,%v), want (%v,true)", a.Name(), w, ok, arc.W/2)
		}
	}
}

// TestForwardPassDifferential runs the stream-split proof on seeded
// adversarial groups (see adversarialGroup), for every algebra: one batch
// per group must converge exactly as one batch per update.
func TestForwardPassDifferential(t *testing.T) {
	for _, a := range algo.All() {
		init := graph.FromEdgeList(graph.RMAT("fwd", 6, 400, graph.DefaultRMAT, 16, 5))
		hubs := init.TopDegreeVertices(2)
		qs := []Query{{S: hubs[0], D: 7}, {S: hubs[0], D: 21}, {S: hubs[1], D: 40}, {S: 3, D: hubs[1]}}
		m := NewMultiCISO()
		m.Reset(init.Clone(), a, qs)
		ref := NewMultiCISO()
		ref.Reset(init.Clone(), a, qs)
		rng := rand.New(rand.NewSource(17))
		processed := groupMatchesPerUpdate(t, a.Name(), m, ref, 12,
			func(ref *MultiCISO) []graph.Update { return adversarialGroup(rng, ref, 48) })
		if processed == 0 {
			t.Fatalf("%s: every group was skipped; the groups test nothing", a.Name())
		}
	}
}

// faultAlgo is PPSP whose Propagate panics while broken is set.
type faultAlgo struct {
	algo.PPSP
	broken atomic.Bool
}

func (f *faultAlgo) Propagate(u algo.Value, w float64) algo.Value {
	if f.broken.Load() {
		panic("batchsplit_test: injected plugin panic")
	}
	return f.PPSP.Propagate(u, w)
}

// checkReps fails unless the source groups equal a fresh derivation from
// the registration list alone: one group per distinct source in
// first-registration order, holding exactly that source's queries in order,
// each query's destination among the key-path destinations, and every query
// mapped to its group.
func checkReps(t *testing.T, where string, m *MultiCISO) {
	t.Helper()
	var srcs []graph.VertexID
	members := map[graph.VertexID][]int{}
	for i, q := range m.queries {
		if members[q.S] == nil {
			srcs = append(srcs, q.S)
		}
		members[q.S] = append(members[q.S], i)
	}
	if len(m.groups) != len(srcs) {
		t.Fatalf("%s: %d groups, a fresh rebuild has %d", where, len(m.groups), len(srcs))
	}
	for gi, g := range m.groups {
		if g.st.src != srcs[gi] || !slices.Equal(g.members, members[srcs[gi]]) {
			t.Fatalf("%s: group %d is source %d with %v, a fresh rebuild has %d with %v",
				where, gi, g.st.src, g.members, srcs[gi], members[srcs[gi]])
		}
		for k, i := range g.members {
			if g.st.dests[k] != m.queries[i].D || m.inGroup[i] != gi {
				t.Fatalf("%s: query %d is not destination %d of group %d", where, i, k, gi)
			}
		}
	}
}

// nSuspect counts the suspect groups.
func nSuspect(m *MultiCISO) int {
	n := 0
	for _, g := range m.groups {
		if g.suspect {
			n++
		}
	}
	return n
}

// TestRepresentativesMaintained drives every transition that can change
// the source groups — Reset, AddQuery of old and new sources, a plugin
// failure across a batch whose recoveries fail too (groups turn suspect),
// later recoveries that succeed (healthy again) — and after each one the
// groups must equal a fresh rebuild, with answers still matching one batch
// per update.
func TestRepresentativesMaintained(t *testing.T) {
	ds := graph.RMAT("reps", 6, 400, graph.DefaultRMAT, 16, 9)
	init := graph.FromEdgeList(ds)
	hubs := init.TopDegreeVertices(3)
	fa := &faultAlgo{}
	m := NewMultiCISO()
	m.Reset(init.Clone(), fa, []Query{{S: hubs[0], D: 9}, {S: hubs[1], D: 11}, {S: hubs[0], D: 30}})
	ref := NewMultiCISO()
	ref.Reset(init.Clone(), algo.PPSP{}, m.Queries())
	checkReps(t, "after Reset", m)

	m.AddQuery(Query{S: hubs[1], D: 5})
	m.AddQuery(Query{S: hubs[2], D: 5})
	ref.AddQuery(Query{S: hubs[1], D: 5})
	ref.AddQuery(Query{S: hubs[2], D: 5})
	checkReps(t, "after AddQuery", m)

	rng := rand.New(rand.NewSource(3))
	apply := func(where string, wantErr bool) {
		t.Helper()
		group := adversarialGroup(rng, ref, 24)
		if err := m.ApplyBatchDelta(group).Err; (err != nil) != wantErr {
			t.Fatalf("%s: err = %v, want error %v", where, err, wantErr)
		}
		assertScratchesQuiescent(t, where, m) // a recovered panic scrubs its slot
		for _, up := range group {
			ref.ApplyBatchDelta([]graph.Update{up})
		}
		checkReps(t, where, m)
	}
	apply("healthy group", false)

	// The plugin breaks for a whole group: scans and phases panic, and so do
	// the recovery recomputes, which leaves the processed groups suspect.
	fa.broken.Store(true)
	apply("broken group", true)
	fa.broken.Store(false)
	if nSuspect(m) == 0 {
		t.Fatal("a group-long plugin failure left no group suspect")
	}
	m.AddQuery(Query{S: hubs[0], D: 17}) // joins a group whose members are suspect
	ref.AddQuery(Query{S: hubs[0], D: 17})
	checkReps(t, "AddQuery beside suspects", m)

	// A later recovery whose recompute succeeds turns a group healthy again.
	for gi := range m.groups {
		m.mu.Lock()
		m.recoverLocked(&m.groups[gi])
		m.mu.Unlock()
		checkReps(t, "after a successful recovery", m)
	}
	if n := nSuspect(m); n != 0 {
		t.Fatalf("%d groups still suspect after recovering every one", n)
	}
	apply("healthy again", false)
	got, want := m.Answers(), ref.Answers()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: %v, one batch per update %v", i, got[i], want[i])
		}
	}

	m.Reset(init.Clone(), fa, m.Queries()[:2])
	checkReps(t, "after second Reset", m)
}

// TestRepresentativesUnderConcurrentAddQuery registers queries from one
// goroutine while another streams batches (run with -race): the
// source groups must come out equal to a fresh rebuild and every answer
// equal to a cold start on the final topology.
func TestRepresentativesUnderConcurrentAddQuery(t *testing.T) {
	ds := graph.RMAT("repsload", 7, 900, graph.DefaultRMAT, 16, 12)
	w, err := stream.New(ds, stream.Config{LoadFraction: 0.5, AddsPerBatch: 30, DelsPerBatch: 30, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	pairs := w.QueryPairs(6)
	m := NewMultiCISO()
	m.Reset(w.Initial(), algo.PPSP{}, []Query{{S: pairs[0][0], D: pairs[0][1]}})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for bi := 0; bi < 8; bi++ {
			if err := m.ApplyBatchDelta(w.NextBatch()).Err; err != nil {
				t.Error(err)
			}
		}
	}()
	for i, p := range pairs[1:] {
		m.AddQuery(Query{S: p[0], D: p[1]})
		m.AddQuery(Query{S: pairs[i][0], D: p[1]}) // an already registered source
	}
	wg.Wait()
	checkReps(t, "after concurrent AddQuery", m)
	cold := NewMultiCISO()
	cold.Reset(m.g.Clone(), algo.PPSP{}, m.Queries())
	got, want := m.Answers(), cold.Answers()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: %v, cold start %v", i, got[i], want[i])
		}
	}
}

// TestApplyUpdatesSafeGroupZeroAlloc pins the skip path's cost model: a safe
// group — useless for every query, so every source group skips it — is
// normalization, slice scans and topology writes, nothing else.
// TestFastCommitAllocs's all-safe CGBIN/2 group rests on it.
func TestApplyUpdatesSafeGroupZeroAlloc(t *testing.T) {
	g := graph.NewDynamic(64)
	for v := 0; v < 63; v++ {
		g.AddEdge(graph.VertexID(v), graph.VertexID(v+1), 1)
	}
	qs := []Query{{S: 0, D: 63}, {S: 1, D: 40}, {S: 0, D: 12}}
	m := NewMultiCISO()
	m.Reset(g, algo.PPSP{}, qs)
	var adds, dels []graph.Update
	for v := 0; v < 60; v++ { // a far heavier parallel route in, then out again
		adds = append(adds, graph.Add(graph.VertexID(v), graph.VertexID(v+2), 100))
		dels = append(dels, graph.Del(graph.VertexID(v), graph.VertexID(v+2), 100))
	}
	apply := func() {
		for _, batch := range [2][]graph.Update{adds, dels} {
			if d := m.ApplyBatchDelta(batch); d.Err != nil || d.Processed != 0 || d.Skipped != len(qs) {
				t.Fatalf("all-skip batch: %+v", d)
			}
		}
	}
	apply() // the adjacency lists and the normalizer's buffers grow once
	if allocs := testing.AllocsPerRun(20, apply); allocs != 0 {
		t.Fatalf("an all-skip batch pair allocates %v times per call, want 0", allocs)
	}
}
