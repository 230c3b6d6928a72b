package core

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
	"cisgraph/internal/stream"
)

// TestApplyUpdatesMatchesBatchPath is the fast-path correctness anchor: for
// every algorithm, feeding a stream through ApplyUpdates in groups must leave
// every query's converged answer identical to a reference engine that
// applies each update as its own batch (the per-update stream semantics the
// server's position counter promises).
func TestApplyUpdatesMatchesBatchPath(t *testing.T) {
	for _, a := range algo.All() {
		ds := graph.RMAT("fp", 7, 900, graph.DefaultRMAT, 16, 33)
		w, err := stream.New(ds, stream.Config{
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
		fast := NewMultiCISO(WithWorkers(4))
		fast.Reset(init.Clone(), a, qs)
		ref := NewMultiCISO()
		ref.Reset(init.Clone(), a, qs)
		for bi := 0; bi < 4; bi++ {
			group := w.NextBatch()
			fs, _, err := fast.ApplyUpdatesDelta(group)
			if err != nil {
				t.Fatalf("%s group %d: %v", a.Name(), bi, err)
			}
			if fs.Safe+fs.Unsafe != len(group) {
				t.Fatalf("%s group %d: routed %d+%d of %d updates",
					a.Name(), bi, fs.Safe, fs.Unsafe, len(group))
			}
			for _, up := range group {
				ref.ApplyBatchDelta([]graph.Update{up})
			}
			got, want := fast.Answers(), ref.Answers()
			for i := range qs {
				if got[i] != want[i] {
					t.Fatalf("%s group %d query %v: fast=%v ref=%v (safe=%d unsafe=%d)",
						a.Name(), bi, qs[i], got[i], want[i], fs.Safe, fs.Unsafe)
				}
			}
			for i := range qs {
				checkInvariant(t, fast.stateOf(i))
			}
		}
	}
}

// TestApplyUpdatesSameEdgeConflict exercises the pending-run conflict rule:
// an update on the same edge as a pending unsafe update joins its run, and
// repeated touches of one edge still converge to the reference fixpoint.
func TestApplyUpdatesSameEdgeConflict(t *testing.T) {
	el := graph.Grid("fpconf", 6, 6, 9, 2)
	qs := []Query{{S: 0, D: 35}, {S: 5, D: 30}}
	fast := NewMultiCISO()
	fast.Reset(graph.FromEdgeList(el), algo.PPSP{}, qs)
	ref := NewMultiCISO()
	ref.Reset(graph.FromEdgeList(el), algo.PPSP{}, qs)

	arc := el.Arcs[0]
	group := []graph.Update{
		graph.Add(30, 2, 0.5),                // likely valuable somewhere
		graph.Del(arc.From, arc.To, arc.W),   // existing edge out
		graph.Add(arc.From, arc.To, arc.W/2), // same edge back, cheaper: conflict
		graph.Add(2, 30, 3),
		graph.Del(2, 30, 3), // add-then-del of a brand new edge: conflict, nets out
	}
	fs, _, err := fast.ApplyUpdatesDelta(group)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Safe+fs.Unsafe != len(group) {
		t.Fatalf("routed %d+%d of %d", fs.Safe, fs.Unsafe, len(group))
	}
	for _, up := range group {
		ref.ApplyBatchDelta([]graph.Update{up})
	}
	got, want := fast.Answers(), ref.Answers()
	for i := range qs {
		if got[i] != want[i] {
			t.Fatalf("query %d: fast=%v ref=%v", i, got[i], want[i])
		}
	}
	if w, ok := fast.g.HasEdge(2, 30); ok {
		t.Fatalf("add-then-del edge survived with weight %v", w)
	}
	if w, ok := fast.g.HasEdge(arc.From, arc.To); !ok || w != arc.W/2 {
		t.Fatalf("reweighted edge = (%v,%v), want (%v,true)", w, ok, arc.W/2)
	}
}

// TestApplyUpdatesRouting pins the safe/unsafe decision on a graph where the
// classification is known: a heavy parallel edge far above the shortest path
// is useless for every query (safe); deleting the only path edge is
// valuable (unsafe).
func TestApplyUpdatesRouting(t *testing.T) {
	g := graph.NewDynamic(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	m := NewMultiCISO()
	m.Reset(g, algo.PPSP{}, []Query{{S: 0, D: 3}})

	fs, _, err := m.ApplyUpdatesDelta([]graph.Update{graph.Add(0, 2, 50)}) // worse than 0→1→2
	if err != nil || fs.Safe != 1 || fs.Unsafe != 0 {
		t.Fatalf("useless add: stats=%+v err=%v", fs, err)
	}
	fs, _, err = m.ApplyUpdatesDelta([]graph.Update{graph.Del(1, 2, 1)}) // key-path edge
	if err != nil || fs.Safe != 0 || fs.Unsafe != 1 {
		t.Fatalf("valuable del: stats=%+v err=%v", fs, err)
	}
	// After losing 1→2, the answer must route over the heavy edge.
	if ans := m.Answers()[0]; ans != algo.Value(51) {
		t.Fatalf("answer after repair = %v, want 51", ans)
	}
	cnt := m.Counters()
	if cnt.Get(stats.CntUpdateSafe) != 1 || cnt.Get(stats.CntUpdateUnsafe) != 1 {
		t.Fatalf("counters safe=%d unsafe=%d, want 1/1",
			cnt.Get(stats.CntUpdateSafe), cnt.Get(stats.CntUpdateUnsafe))
	}
}

// TestApplyUpdatesConcurrentReaders drives ApplyUpdates while readers poll
// answers and counters — the fast path must honor the engine's reader
// contract (run with -race).
func TestApplyUpdatesConcurrentReaders(t *testing.T) {
	ds := graph.RMAT("fprace", 7, 800, graph.DefaultRMAT, 16, 7)
	w, err := stream.New(ds, stream.Config{
		LoadFraction: 0.5, AddsPerBatch: 30, DelsPerBatch: 30, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var qs []Query
	for _, p := range w.QueryPairs(4) {
		qs = append(qs, Query{S: p[0], D: p[1]})
	}
	m := NewMultiCISO(WithWorkers(4))
	m.Reset(w.Initial(), algo.PPSP{}, qs)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = m.Answers()
					_ = m.Counters().Get(stats.CntUpdateSafe)
					_ = m.NumQueries()
				}
			}
		}()
	}
	for bi := 0; bi < 6; bi++ {
		if _, _, err := m.ApplyUpdatesDelta(w.NextBatch()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestApplyUpdatesEdgeCases covers the degenerate inputs the server can
// produce: empty groups, engines with no queries, and no-op updates.
func TestApplyUpdatesEdgeCases(t *testing.T) {
	g := graph.NewDynamic(3)
	g.AddEdge(0, 1, 1)
	m := NewMultiCISO()
	m.Reset(g, algo.PPSP{}, nil)
	if fs, _, err := m.ApplyUpdatesDelta(nil); err != nil || fs != (FastStats{}) {
		t.Fatalf("empty group: %+v %v", fs, err)
	}
	// With no registered queries every update is trivially safe.
	fs, _, err := m.ApplyUpdatesDelta([]graph.Update{graph.Add(1, 2, 1), graph.Del(0, 1, 1)})
	if err != nil || fs.Safe != 2 {
		t.Fatalf("no-query group: %+v %v", fs, err)
	}
	if _, ok := m.g.HasEdge(1, 2); !ok {
		t.Fatal("safe add did not land in topology")
	}
	if _, ok := m.g.HasEdge(0, 1); ok {
		t.Fatal("safe del did not land in topology")
	}
	// Duplicate add / absent del normalize to no-ops (what NormalizeBatch
	// would drop) and must not disturb topology.
	fs, _, err = m.ApplyUpdatesDelta([]graph.Update{graph.Add(1, 2, 1), graph.Del(0, 1, 1)})
	if err != nil || fs.Safe != 2 {
		t.Fatalf("noop group: %+v %v", fs, err)
	}
	if m.g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", m.g.NumEdges())
	}
}

// adversarialGroup builds one seeded group aimed at the forward pass's
// corners: a tree-edge deletion (unsafe) opens and closes the group, and in
// between come add/del/re-add runs on one edge, same-edge updates directly
// behind an unsafe deletion, reweights, duplicate adds and absent deletes
// (noops), and plain churn. Tree edges and presence are read off ref's
// pre-group state; what they have become by the time they apply is part of
// the mix.
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
		case 1: // same edge directly behind an unsafe deletion
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

// sameConvergedState fails unless fast and ref hold the same topology and,
// for every query, bit-identical converged values at every vertex.
func sameConvergedState(t *testing.T, where string, fast, ref *MultiCISO) {
	t.Helper()
	if fast.g.NumEdges() != ref.g.NumEdges() {
		t.Fatalf("%s: %d edges, reference %d", where, fast.g.NumEdges(), ref.g.NumEdges())
	}
	for u := 0; u < ref.g.NumVertices(); u++ {
		for _, e := range ref.g.Out(graph.VertexID(u)) {
			if w, ok := fast.g.HasEdge(graph.VertexID(u), e.To); !ok || w != e.W {
				t.Fatalf("%s: edge %d->%d = (%v,%v), reference weight %v", where, u, e.To, w, ok, e.W)
			}
		}
	}
	for i := range ref.queries {
		for v := 0; v < ref.g.NumVertices(); v++ {
			got, want := fast.stateOf(i).val[v], ref.stateOf(i).val[v]
			if got != want {
				t.Fatalf("%s: query %v vertex %d: value %v, reference %v", where, ref.queries[i], v, got, want)
			}
		}
	}
}

// TestForwardPassDifferential is the forward pass's equivalence proof: on
// seeded adversarial groups, for every algebra, ApplyUpdates must leave the
// topology, every answer and every converged value identical to one
// ApplyBatch per update.
func TestForwardPassDifferential(t *testing.T) {
	for _, a := range algo.All() {
		ds := graph.RMAT("fwd", 6, 400, graph.DefaultRMAT, 16, 5)
		init := graph.FromEdgeList(ds)
		hubs := init.TopDegreeVertices(2)
		qs := []Query{{S: hubs[0], D: 7}, {S: hubs[0], D: 21}, {S: hubs[1], D: 40}, {S: 3, D: hubs[1]}}
		fast := NewMultiCISO()
		fast.Reset(init.Clone(), a, qs)
		ref := NewMultiCISO()
		ref.Reset(init.Clone(), a, qs)
		rng := rand.New(rand.NewSource(17))
		unsafe := 0
		for gi := 0; gi < 12; gi++ {
			group := adversarialGroup(rng, ref, 48)
			fs, _, err := fast.ApplyUpdatesDelta(group)
			if err != nil {
				t.Fatalf("%s group %d: %v", a.Name(), gi, err)
			}
			if fs.Safe+fs.Unsafe != len(group) {
				t.Fatalf("%s group %d: routed %d+%d of %d", a.Name(), gi, fs.Safe, fs.Unsafe, len(group))
			}
			unsafe += fs.Unsafe
			for _, up := range group {
				ref.ApplyBatchDelta([]graph.Update{up})
			}
			sameConvergedState(t, a.Name(), fast, ref)
		}
		if unsafe == 0 {
			t.Fatalf("%s: no update was routed unsafe; the groups test nothing", a.Name())
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
		panic("fastpath_test: injected plugin panic")
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
// failure across a fast-path group whose recoveries fail too (groups turn
// suspect), later recoveries that succeed (healthy again) — and after each
// one the groups must equal a fresh rebuild, with answers still matching the
// batch path.
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
		if _, _, err := m.ApplyUpdatesDelta(group); (err != nil) != wantErr {
			t.Fatalf("%s: err = %v, want error %v", where, err, wantErr)
		}
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
			t.Fatalf("query %d: %v, batch path %v", i, got[i], want[i])
		}
	}

	m.Reset(init.Clone(), fa, m.Queries()[:2])
	checkReps(t, "after second Reset", m)
}

// TestRepresentativesUnderConcurrentAddQuery registers queries from one
// goroutine while another streams fast-path groups (run with -race): the
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
			if _, _, err := m.ApplyUpdatesDelta(w.NextBatch()); err != nil {
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

// TestForwardPassLinearScans is the linearity guard: on a 4,096-update group
// with at least a tenth of the updates unsafe, the forward pass judges every
// update at most twice. (Re-classifying the remaining suffix after every
// unsafe run, as the fast path once did, costs ~25 scans per update here.)
func TestForwardPassLinearScans(t *testing.T) {
	ds := graph.RMAT("linear", 10, 16<<10, graph.DefaultRMAT, 16, 21)
	w, err := stream.New(ds, stream.Config{LoadFraction: 0.5, AddsPerBatch: 2048, DelsPerBatch: 2048, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	init := w.Initial()
	var qs []Query
	for i, s := range init.TopDegreeVertices(4) {
		qs = append(qs, Query{S: s, D: graph.VertexID(100 + i)})
	}
	m := NewMultiCISO()
	m.Reset(init, algo.PPSP{}, qs)
	group := w.NextBatch() // adds then deletes, all on distinct edges: any order is valid
	rand.New(rand.NewSource(21)).Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
	fs, _, err := m.ApplyUpdatesDelta(group)
	if err != nil {
		t.Fatal(err)
	}
	if len(group) != 4096 || fs.Unsafe*10 < len(group) {
		t.Fatalf("group of %d with %d unsafe updates: need 4096 with at least a tenth unsafe", len(group), fs.Unsafe)
	}
	scans := m.Counters().Get(stats.CntUpdateClassifyScans)
	if scans < int64(fs.Safe) || scans > 2*int64(len(group)) {
		t.Fatalf("%d classification scans for %d updates (%d safe): want between safe and 2x the group", scans, len(group), fs.Safe)
	}
}

// TestApplyUpdatesSafeGroupZeroAlloc pins the safe path's cost model: a group
// of safe updates is topology writes and slice scans, nothing else.
func TestApplyUpdatesSafeGroupZeroAlloc(t *testing.T) {
	g := graph.NewDynamic(64)
	for v := 0; v < 63; v++ {
		g.AddEdge(graph.VertexID(v), graph.VertexID(v+1), 1)
	}
	m := NewMultiCISO()
	m.Reset(g, algo.PPSP{}, []Query{{S: 0, D: 63}, {S: 1, D: 40}, {S: 0, D: 12}})
	var group []graph.Update
	for v := 0; v < 60; v++ { // a far heavier parallel route in, then out again
		group = append(group, graph.Add(graph.VertexID(v), graph.VertexID(v+2), 100))
	}
	for v := 0; v < 60; v++ {
		group = append(group, graph.Del(graph.VertexID(v), graph.VertexID(v+2), 100))
	}
	m.ApplyUpdatesDelta(group) // the adjacency lists grow once
	allocs := testing.AllocsPerRun(20, func() {
		fs, _, err := m.ApplyUpdatesDelta(group)
		if err != nil || fs.Unsafe != 0 {
			t.Fatalf("safe group routed %+v, err %v", fs, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("all-safe group allocates %v times per call, want 0", allocs)
	}
}
