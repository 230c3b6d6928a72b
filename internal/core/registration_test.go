package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
	"cisgraph/internal/stream"
)

// sharedSourceQueries builds nq queries clustered on a few distinct sources,
// so same-source registration sharing is actually exercised.
func sharedSourceQueries(w *stream.Workload, nq, sources int) []Query {
	pairs := w.QueryPairs(nq)
	qs := make([]Query, 0, nq)
	for i := 0; i < nq; i++ {
		s, d := pairs[i%sources][0], pairs[i][1]
		if s == d {
			d = pairs[i][0]
		}
		qs = append(qs, Query{S: s, D: d})
	}
	return qs
}

// sameState fails unless got's values equal want's exactly, and — when
// parents is set — its parents too.
func sameState(t *testing.T, label string, got, want *state, parents bool) {
	t.Helper()
	for v := range want.val {
		if got.val[v] != want.val[v] || parents && got.parent[v] != want.parent[v] {
			t.Fatalf("%s: vertex %d = (%v, parent %d), independent engine (%v, parent %d)",
				label, v, got.val[v], got.parent[v], want.val[v], want.parent[v])
		}
	}
}

// countsSince snapshots the engines' counters and returns a func yielding
// their summed nonzero movement since the snapshot.
func countsSince(engines ...*MultiCISO) func() map[string]int64 {
	before := make([]map[string]int64, len(engines))
	for j, e := range engines {
		before[j] = e.Counters().Snapshot()
	}
	return func() map[string]int64 {
		sum := map[string]int64{}
		for j, e := range engines {
			for name, v := range e.Counters().Diff(before[j]) {
				if v != 0 {
					sum[name] += v
				}
			}
		}
		return sum
	}
}

// sameCounts fails unless got and want hold the same nonzero counts.
func sameCounts(t *testing.T, where string, got, want map[string]int64) {
	t.Helper()
	for name, v := range got {
		if v != want[name] {
			t.Fatalf("%s: %s moved %d, per-source references %d", where, name, v, want[name])
		}
	}
	for name, v := range want {
		if v != got[name] {
			t.Fatalf("%s: %s moved %d, per-source references %d", where, name, got[name], v)
		}
	}
}

// sameEdgeSet reports whether a and b hold the same weighted edge set — a
// balanced batch (as many adds as deletes) moves it but not the edge count.
func sameEdgeSet(a, b *graph.Dynamic) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for u := 0; u < a.NumVertices(); u++ {
		for _, e := range a.Out(graph.VertexID(u)) {
			if w, ok := b.HasEdge(graph.VertexID(u), e.To); !ok || w != e.W {
				return false
			}
		}
	}
	return true
}

// TestRegistrationEquivalence pins the one-state-per-source contract
// (DESIGN.md §11.3). The reference is one single-query MultiCISO per query.
// After Reset, every registration and every batch, each query's answer and
// its group's values must equal its reference's, and every group state must
// pass the invariant audit; a one-member group must also hold the
// reference's exact parents. Reset over S distinct sources relaxes exactly S
// cold starts, a same-source registration after mutating batches relaxes
// nothing, and a new source costs exactly one cold start. The engine counts
// each group's work once into its one counter set: every batch moves it by
// the sum of per-source reference engines — one MultiCISO per source holding
// exactly that source's members.
func TestRegistrationEquivalence(t *testing.T) {
	for _, a := range []algo.Algorithm{algo.PPSP{}, algo.PPWP{}, algo.Reach{}} {
		for _, seed := range []int64{3, 17} {
			ds := graph.RMAT("xreg", 7, 900, graph.DefaultRMAT, 16, seed)
			w, err := stream.New(ds, stream.Config{
				LoadFraction: 0.5, AddsPerBatch: 40, DelsPerBatch: 40, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s seed %d", a.Name(), seed)
			qs := sharedSourceQueries(w, 8, 3)
			sources := map[graph.VertexID]bool{}
			for _, q := range qs {
				sources[q.S] = true
			}
			// Two lone sources now, one more registered after the batches.
			var lone []Query
			for _, p := range w.QueryPairs(40)[8:] {
				if !sources[p[0]] && len(lone) < 3 {
					sources[p[0]] = true
					lone = append(lone, Query{S: p[0], D: p[1]})
				}
			}
			qs = append(qs, lone[:2]...)
			init := w.Initial()
			m := NewMultiCISO()
			m.Reset(init.Clone(), a, qs)
			var refs []*MultiCISO
			var coldRelax int64
			seen := map[graph.VertexID]bool{}
			for _, q := range qs {
				ref := NewMultiCISO()
				ref.Reset(init.Clone(), a, []Query{q})
				refs = append(refs, ref)
				if !seen[q.S] {
					seen[q.S] = true
					coldRelax += ref.Counters().Get(stats.CntRelax)
				}
			}
			bySrc := map[graph.VertexID]*MultiCISO{}
			var srcRefs []*MultiCISO
			for _, q := range qs {
				if bySrc[q.S] == nil {
					bySrc[q.S] = NewMultiCISO()
					bySrc[q.S].Reset(init.Clone(), a, nil)
					srcRefs = append(srcRefs, bySrc[q.S])
				}
				bySrc[q.S].AddQuery(q)
			}
			check := func(where string) {
				t.Helper()
				ans := m.Answers()
				for i, q := range qs {
					g := &m.groups[m.inGroup[i]]
					at := fmt.Sprintf("%s query %d %v", where, i, q)
					if got, want := ans[i], refs[i].Answers()[0]; got != want {
						t.Fatalf("%s: answer %v, reference %v", at, got, want)
					}
					sameState(t, at, g.st, refs[i].stateOf(0), len(g.members) == 1)
					checkInvariant(t, g.st)
				}
			}
			check(label + ": Reset")
			if got := m.Counters().Get(stats.CntRelax); got != coldRelax {
				t.Fatalf("%s: Reset of %d queries over %d sources relaxed %d, %d cold starts relax %d",
					label, len(qs), len(seen), got, len(seen), coldRelax)
			}

			// Late registrations get an empty reference engine that follows
			// the stream from the start, so its topology evolves exactly like
			// m's, and registers its query when m does.
			late := []Query{{S: qs[0].S, D: qs[1].D}, {S: qs[1].S, D: qs[0].D}, lone[2]}
			pending := make([]*MultiCISO, len(late))
			for k := range late {
				pending[k] = NewMultiCISO()
				pending[k].Reset(init.Clone(), a, nil)
			}
			register := func(k int, cold bool) {
				t.Helper()
				q, ref := late[k], pending[k]
				before := m.Counters().Get(stats.CntRelax)
				i, ans := m.AddQuery(q)
				_, want := ref.AddQuery(q)
				refs = append(refs, ref)
				qs = append(qs, q)
				if r := bySrc[q.S]; r != nil {
					r.AddQuery(q)
				} else {
					bySrc[q.S] = NewMultiCISO()
					bySrc[q.S].Reset(m.g.Clone(), a, []Query{q})
					srcRefs = append(srcRefs, bySrc[q.S])
				}
				where := fmt.Sprintf("%s: AddQuery %d %v", label, i, q)
				if ans != want {
					t.Fatalf("%s: answer %v, independent cold start %v", where, ans, want)
				}
				check(where)
				wantRelax := int64(0)
				if cold {
					wantRelax = ref.Counters().Get(stats.CntRelax)
				}
				if got := m.Counters().Get(stats.CntRelax) - before; got != wantRelax {
					t.Fatalf("%s: relaxed %d, want %d (cold start: %v)", where, got, wantRelax, cold)
				}
			}
			register(0, false) // joins qs[0]'s group at the Reset epoch

			for bi := 0; bi < 4; bi++ {
				batch := w.NextBatch()
				where := fmt.Sprintf("%s batch %d", label, bi)
				pre := m.g.Clone()
				moved, srcMoved := countsSince(m), countsSince(srcRefs...)
				if d := m.ApplyBatchDelta(batch); d.Err != nil {
					t.Fatalf("%s: %v", where, d.Err)
				}
				assertScratchesQuiescent(t, where, m)
				for _, ref := range refs {
					ref.ApplyBatchDelta(batch)
				}
				for _, ref := range pending {
					if ref.NumQueries() == 0 {
						ref.ApplyBatchDelta(batch)
					}
				}
				for _, ref := range srcRefs {
					ref.ApplyBatchDelta(batch)
				}
				check(where)
				sameCounts(t, where, moved(), srcMoved())
				if bi == 1 {
					if sameEdgeSet(pre, m.g) {
						t.Fatalf("%s: batch %d did not mutate the topology", label, bi)
					}
					// After mutating batches a same-source registration still
					// joins for free; a new source cold-starts once.
					register(1, false)
					register(2, true)
				}
			}
		}
	}
}

// TestAddQueriesMatchesAddQueryLoop pins bulk registration: AddQueries over
// a list equals an AddQuery loop over it — indices, answers, every query's
// values and parents, and the engine counters — on an empty and on a
// non-empty engine, at the Reset epoch and after a mutating batch.
func TestAddQueriesMatchesAddQueryLoop(t *testing.T) {
	ds := graph.RMAT("bulkreg", 7, 900, graph.DefaultRMAT, 16, 5)
	w, err := stream.New(ds, stream.Config{
		LoadFraction: 0.5, AddsPerBatch: 40, DelsPerBatch: 40, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := sharedSourceQueries(w, 16, 5)
	init := w.Initial()
	batch := w.NextBatch()
	for _, pre := range [][]Query{nil, all[:3]} {
		loop, bulk := NewMultiCISO(), NewMultiCISO()
		loop.Reset(init.Clone(), algo.PPSP{}, pre)
		bulk.Reset(init.Clone(), algo.PPSP{}, pre)
		same := func(where string) {
			t.Helper()
			if len(loop.queries) != len(bulk.queries) {
				t.Fatalf("%s: %d queries, loop has %d", where, len(bulk.queries), len(loop.queries))
			}
			for i := range loop.queries {
				sameState(t, fmt.Sprintf("%s query %d", where, i), bulk.stateOf(i), loop.stateOf(i), true)
			}
			ls, bs := loop.Counters().Snapshot(), bulk.Counters().Snapshot()
			for name, v := range ls {
				if bs[name] != v {
					t.Fatalf("%s: counter %s = %d, loop %d", where, name, bs[name], v)
				}
			}
		}
		register := func(where string, qs []Query) {
			t.Helper()
			first, answers := bulk.AddQueries(qs)
			for k, q := range qs {
				i, ans := loop.AddQuery(q)
				if i != first+k || ans != answers[k] {
					t.Fatalf("%s: query %d %v → (%d, %v), loop (%d, %v)", where, k, q, first+k, answers[k], i, ans)
				}
			}
			same(where)
		}
		label := fmt.Sprintf("%d pre-registered", len(pre))
		register(label+", Reset epoch", all[3:10])
		loop.ApplyBatchDelta(batch)
		bulk.ApplyBatchDelta(batch)
		same(label + ", after the batch")
		register(label+", post-batch epoch", all[10:])
	}
}

// TestMultiCISOWorkerPoolMatchesSerial pins the bounded-pool execution: any
// pool width must produce exactly the answers and deterministic
// counters of the serial engine.
func TestMultiCISOWorkerPoolMatchesSerial(t *testing.T) {
	ds := graph.RMAT("wpool", 7, 900, graph.DefaultRMAT, 16, 31)
	w, err := stream.New(ds, stream.Config{
		LoadFraction: 0.5, AddsPerBatch: 40, DelsPerBatch: 40, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := sharedSourceQueries(w, 6, 2)
	init := w.Initial()
	batches := w.Batches(3)

	serial := NewMultiCISO()
	serial.Reset(init.Clone(), algo.PPSP{}, qs)
	want := make([][]algo.Value, len(batches))
	for bi, batch := range batches {
		serial.ApplyBatchDelta(batch)
		want[bi] = serial.Answers()
	}
	for _, workers := range []int{2, 4} {
		pooled := NewMultiCISO(WithWorkers(workers))
		pooled.Reset(init.Clone(), algo.PPSP{}, qs)
		for bi, batch := range batches {
			pooled.ApplyBatchDelta(batch)
			rp := pooled.Answers()
			for i := range qs {
				if rp[i] != want[bi][i] {
					t.Fatalf("workers=%d batch %d query %d: pooled=%v serial=%v",
						workers, bi, i, rp[i], want[bi][i])
				}
			}
		}
		if pr, sr := pooled.Counters().Get(stats.CntRelax), serial.Counters().Get(stats.CntRelax); pr != sr {
			t.Fatalf("workers=%d: relax %d, serial %d", workers, pr, sr)
		}
	}
}

// gateAlgo holds the engine open at one ⊕: the first Propagate call after
// the test arms held takes the release channel, signals entered and blocks
// until the channel closes. Later calls pass straight through.
type gateAlgo struct {
	algo.Algorithm
	held    chan chan struct{} // capacity 1
	entered chan struct{}      // capacity 1
}

func (g *gateAlgo) Propagate(u algo.Value, w float64) algo.Value {
	select {
	case release := <-g.held:
		g.entered <- struct{}{}
		<-release
	default:
	}
	return g.Algorithm.Propagate(u, w)
}

// TestBatchBesideNewSourceColdStart: a batch that arrives while a new
// source's cold start runs is applied to that source too. The registration
// is held open inside its cold start while the batch — a direct edge into
// the new query's destination — is started beside it; afterwards the new
// query's answer is the direct edge's and every answer equals a cold start
// on the final topology. A cold start published without the write lock held
// throughout would be converged for the pre-batch topology.
func TestBatchBesideNewSourceColdStart(t *testing.T) {
	ds := graph.RMAT("beside", 7, 900, graph.DefaultRMAT, 16, 21)
	w, err := stream.New(ds, stream.Config{LoadFraction: 0.5, AddsPerBatch: 20, DelsPerBatch: 20, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	pairs := w.QueryPairsConnected(8)
	q0 := Query{S: pairs[0][0], D: pairs[0][1]}
	q1 := Query{S: pairs[1][0], D: pairs[1][1]}
	for _, p := range pairs[1:] {
		if p[0] != q0.S {
			q1 = Query{S: p[0], D: p[1]}
			break
		}
	}
	if q1.S == q0.S {
		t.Fatal("no second source among the query pairs")
	}
	ga := &gateAlgo{Algorithm: algo.PPSP{}, held: make(chan chan struct{}, 1), entered: make(chan struct{}, 1)}
	m := NewMultiCISO()
	m.Reset(w.Initial(), ga, []Query{q0})

	release := make(chan struct{})
	ga.held <- release
	var wg sync.WaitGroup
	wg.Add(2)
	var ans algo.Value
	go func() {
		defer wg.Done()
		_, ans = m.AddQuery(q1)
	}()
	<-ga.entered
	go func() {
		defer wg.Done()
		if d := m.ApplyBatchDelta([]graph.Update{graph.Add(q1.S, q1.D, 0.5)}); d.Err != nil {
			t.Error(d.Err)
		}
	}()
	// Release once the lock admits no new reader: a writer holds it, or
	// the batch is waiting for it behind a reader.
	for m.mu.TryRLock() {
		m.mu.RUnlock()
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := m.Answers()[1]; got != 0.5 {
		t.Fatalf("new query %v after the batch beside its cold start: %v, want the direct edge's 0.5 (registered at %v)", q1, got, ans)
	}
	cold := NewMultiCISO()
	cold.Reset(m.g.Clone(), algo.PPSP{}, m.Queries())
	if got, want := m.Answers(), cold.Answers(); !slices.Equal(got, want) {
		t.Fatalf("answers %v, cold start %v", got, want)
	}
	checkReps(t, "after the batch beside a cold start", m)
}
