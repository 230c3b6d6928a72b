package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
	"cisgraph/internal/stream"
)

// TestMultiCISOMatchesIndependentEngines is the multi-query correctness
// anchor: shared-topology processing must be answer-identical to Q
// independent CISO engines on the same stream.
func TestMultiCISOMatchesIndependentEngines(t *testing.T) {
	for _, a := range algo.All() {
		ds := graph.RMAT("multi", 7, 900, graph.DefaultRMAT, 16, 31)
		w, err := stream.New(ds, stream.Config{
			LoadFraction: 0.5, AddsPerBatch: 40, DelsPerBatch: 40, Seed: 31,
		})
		if err != nil {
			t.Fatal(err)
		}
		var qs []Query
		for _, p := range w.QueryPairs(4) {
			qs = append(qs, Query{S: p[0], D: p[1]})
		}
		init := w.Initial()
		multi := NewMultiCISO()
		multi.Reset(init.Clone(), a, qs)
		singles := make([]*CISO, len(qs))
		for i, q := range qs {
			singles[i] = NewCISO()
			singles[i].Reset(init.Clone(), a, q)
		}
		for bi := 0; bi < 3; bi++ {
			batch := w.NextBatch()
			if d := multi.ApplyBatchDelta(batch); d.Err != nil {
				t.Fatal(d.Err)
			}
			got := multi.Answers()
			if len(got) != len(qs) {
				t.Fatalf("%s: %d answers for %d queries", a.Name(), len(got), len(qs))
			}
			for i, q := range qs {
				want := singles[i].ApplyBatch(batch).Answer
				if got[i] != want {
					t.Fatalf("%s batch %d query %v: multi=%v single=%v",
						a.Name(), bi, q, got[i], want)
				}
				checkInvariant(t, multi.stateOf(i))
			}
		}
	}
}

func TestMultiCISOAgainstColdStart(t *testing.T) {
	ds := graph.Uniform("multics", 80, 600, 8, 17)
	w, _ := stream.New(ds, stream.Config{
		LoadFraction: 0.5, AddsPerBatch: 30, DelsPerBatch: 30, Seed: 17,
	})
	var qs []Query
	for _, p := range w.QueryPairs(3) {
		qs = append(qs, Query{S: p[0], D: p[1]})
	}
	init := w.Initial()
	multi := NewMultiCISO()
	multi.Reset(init.Clone(), algo.PPSP{}, qs)
	refs := make([]*ColdStart, len(qs))
	for i, q := range qs {
		refs[i] = NewColdStart()
		refs[i].Reset(init.Clone(), algo.PPSP{}, q)
	}
	for bi := 0; bi < 4; bi++ {
		batch := w.NextBatch()
		multi.ApplyBatchDelta(batch)
		got := multi.Answers()
		for i := range qs {
			want := refs[i].ApplyBatch(batch).Answer
			if got[i] != want {
				t.Fatalf("batch %d query %d: multi=%v cs=%v", bi, i, got[i], want)
			}
		}
	}
}

func TestMultiCISOReweights(t *testing.T) {
	el := graph.Grid("mrw", 6, 6, 9, 2)
	qs := []Query{{S: 0, D: 35}, {S: 5, D: 30}}
	multi := NewMultiCISO()
	multi.Reset(graph.FromEdgeList(el), algo.PPSP{}, qs)
	batch := []graph.Update{
		graph.Del(el.Arcs[0].From, el.Arcs[0].To, el.Arcs[0].W),
		graph.Add(el.Arcs[0].From, el.Arcs[0].To, 1),
	}
	el.Arcs[0].W = 1
	multi.ApplyBatchDelta(batch)
	got := multi.Answers()
	for i, q := range qs {
		cs := NewColdStart()
		cs.Reset(graph.FromEdgeList(el), algo.PPSP{}, q)
		if got[i] != cs.Answer() {
			t.Fatalf("query %d: multi=%v cs=%v", i, got[i], cs.Answer())
		}
	}
}

func TestMultiCISOAccessors(t *testing.T) {
	g := graph.NewDynamic(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	m := NewMultiCISO()
	m.Reset(g, algo.PPSP{}, []Query{{S: 0, D: 2}, {S: 0, D: 1}})
	if m.Name() != "MultiCISO" {
		t.Fatal("name")
	}
	if len(m.Queries()) != 2 {
		t.Fatal("queries")
	}
	ans := m.Answers()
	if ans[0] != 2 || ans[1] != 1 {
		t.Fatalf("answers = %v", ans)
	}
	if d := m.ApplyBatchDelta(nil); len(d.Changed) != 0 || d.Err != nil {
		t.Fatalf("empty batch delta = %+v", d)
	}
	if ans := m.Answers(); ans[0] != 2 || ans[1] != 1 {
		t.Fatalf("answers after an empty batch = %v", ans)
	}
}

// TestMultiCISOParallelMatchesSerial runs the same stream in both execution
// modes; answers must match exactly (run under -race in CI).
func TestMultiCISOParallelMatchesSerial(t *testing.T) {
	ds := graph.RMAT("mpar", 7, 900, graph.DefaultRMAT, 16, 77)
	w, _ := stream.New(ds, stream.Config{
		LoadFraction: 0.5, AddsPerBatch: 40, DelsPerBatch: 40, Seed: 77,
	})
	var qs []Query
	for _, p := range w.QueryPairs(6) {
		qs = append(qs, Query{S: p[0], D: p[1]})
	}
	init := w.Initial()
	serial := NewMultiCISO()
	par := NewMultiCISO(WithWorkers(4))
	serial.Reset(init.Clone(), algo.PPSP{}, qs)
	par.Reset(init.Clone(), algo.PPSP{}, qs)
	for bi := 0; bi < 3; bi++ {
		batch := w.NextBatch()
		serial.ApplyBatchDelta(batch)
		par.ApplyBatchDelta(batch)
		rs, rp := serial.Answers(), par.Answers()
		for i := range qs {
			if rs[i] != rp[i] {
				t.Fatalf("batch %d query %d: serial=%v parallel=%v", bi, i, rs[i], rp[i])
			}
		}
	}
	// Merged counters must agree on deterministic totals.
	if serial.Counters().Get("relax") != par.Counters().Get("relax") {
		t.Fatalf("relax counters diverge: %d vs %d",
			serial.Counters().Get("relax"), par.Counters().Get("relax"))
	}
}

// panicOnceAlgo wraps an algorithm and panics exactly once, on the n-th
// Propagate call after arming, from whichever query's goroutine gets there
// first. It is the in-package stand-in for resilience.PanicAlgorithm (which
// cannot be imported here without a cycle).
type panicOnceAlgo struct {
	algo.Algorithm
	calls atomic.Int64
	after int64
	armed atomic.Bool
}

func (p *panicOnceAlgo) Propagate(u algo.Value, w float64) algo.Value {
	if p.armed.Load() && p.calls.Add(1) >= p.after && p.armed.CompareAndSwap(true, false) {
		panic("multi_test: injected query panic")
	}
	return p.Algorithm.Propagate(u, w)
}

// TestMultiCISOQueryPanicRecovery injects a panic into one query's
// processing, in both serial and parallel modes: the process must not crash,
// the WaitGroup must not deadlock, the batch's error names exactly the
// panicking source, that group's members are reported changed, its state is
// recomputed (so its answers are still correct), and the other queries are
// untouched — in Changed exactly when their answer moved.
func TestMultiCISOQueryPanicRecovery(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		name := "serial"
		if parallel {
			name = "parallel"
		}
		t.Run(name, func(t *testing.T) {
			ds := graph.Uniform("mpanic", 100, 700, 8, 23)
			w, err := stream.New(ds, stream.Config{
				LoadFraction: 0.5, AddsPerBatch: 30, DelsPerBatch: 30, Seed: 23,
			})
			if err != nil {
				t.Fatal(err)
			}
			var qs []Query
			for _, p := range w.QueryPairs(4) {
				qs = append(qs, Query{S: p[0], D: p[1]})
			}
			init := w.Initial()
			batches := w.Batches(4)

			pa := &panicOnceAlgo{Algorithm: algo.PPSP{}}
			var m *MultiCISO
			if parallel {
				m = NewMultiCISO(WithWorkers(4))
			} else {
				m = NewMultiCISO()
			}
			m.Reset(init.Clone(), pa, qs)
			singles := make([]*CISO, len(qs))
			for i, q := range qs {
				singles[i] = NewCISO()
				singles[i].Reset(init.Clone(), algo.PPSP{}, q)
			}

			for bi, batch := range batches {
				if bi == 2 {
					pa.after = 1
					pa.calls.Store(0)
					pa.armed.Store(true)
				}
				pre := m.Answers()
				done := make(chan BatchDelta, 1)
				go func() { done <- m.ApplyBatchDelta(batch) }()
				var d BatchDelta
				select {
				case d = <-done:
				case <-time.After(30 * time.Second):
					t.Fatal("ApplyBatchDelta deadlocked after an injected panic")
				}
				assertScratchesQuiescent(t, fmt.Sprintf("%s batch %d", name, bi), m)
				got := m.Answers()
				for i := range qs {
					// Even the panicked query must answer correctly: its
					// state is recomputed on the shared topology.
					if want := singles[i].ApplyBatch(batch).Answer; got[i] != want {
						t.Fatalf("%s batch %d query %d: answer %v, want %v (err=%v)",
							name, bi, i, got[i], want, d.Err)
					}
					checkInvariant(t, m.stateOf(i))
				}
				if bi != 2 {
					if d.Err != nil {
						t.Fatalf("%s batch %d: unexpected error %v", name, bi, d.Err)
					}
					continue
				}
				erred := panickedGroups(m, d.Err)
				if len(erred) != 1 {
					t.Fatalf("%s: panic batch error %v names %d sources, want 1", name, d.Err, len(erred))
				}
				checkChanged(t, name, pre, got, d, func(i int) bool { return erred[m.inGroup[i]] })
			}
			if got := m.Counters().Get(stats.CntQueryPanic); got != 1 {
				t.Fatalf("%s: query_panic=%d, want 1", name, got)
			}
		})
	}
}

// TestMultiCISOAddQuery registers queries dynamically and checks each
// matches an independent CISO engine, before and after further batches.
func TestMultiCISOAddQuery(t *testing.T) {
	ds := graph.RMAT("addq", 7, 900, graph.DefaultRMAT, 16, 91)
	w, err := stream.New(ds, stream.Config{
		LoadFraction: 0.5, AddsPerBatch: 40, DelsPerBatch: 40, Seed: 91,
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs := w.QueryPairs(4)
	init := w.Initial()
	m := NewMultiCISO()
	m.Reset(init.Clone(), algo.PPSP{}, nil)
	if m.NumQueries() != 0 {
		t.Fatalf("NumQueries=%d after empty Reset", m.NumQueries())
	}

	var singles []*CISO
	addQuery := func(p [2]graph.VertexID, topo *graph.Dynamic) {
		q := Query{S: p[0], D: p[1]}
		s := NewCISO()
		s.Reset(topo.Clone(), algo.PPSP{}, q)
		singles = append(singles, s)
		id, ans := m.AddQuery(q)
		if id != len(singles)-1 {
			t.Fatalf("AddQuery id=%d, want %d", id, len(singles)-1)
		}
		if ans != s.Answer() {
			t.Fatalf("AddQuery(%v) initial answer %v, want %v", q, ans, s.Answer())
		}
	}
	addQuery(pairs[0], init)
	addQuery(pairs[1], init)

	topo := init.Clone() // tracks the stream for late-registration baselines
	for bi := 0; bi < 3; bi++ {
		batch := w.NextBatch()
		topo.Apply(batch)
		m.ApplyBatchDelta(batch)
		ans := m.Answers()
		for i, s := range singles {
			s.ApplyBatch(batch)
			if got, want := ans[i], s.Answer(); got != want {
				t.Fatalf("batch %d query %d: multi=%v single=%v", bi, i, got, want)
			}
		}
		if bi == 0 {
			// Register mid-stream: the new query sees the current topology.
			addQuery(pairs[2], topo)
		}
	}
	if got := len(m.Answers()); got != 3 {
		t.Fatalf("Answers length %d, want 3", got)
	}
}

// TestMultiCISOConcurrentReaders hammers the reader API from many
// goroutines while batches apply and queries register — the locking
// contract internal/server relies on. Run under -race this is the
// enforcement test for DESIGN.md §10's snapshot discipline.
func TestMultiCISOConcurrentReaders(t *testing.T) {
	ds := graph.RMAT("race", 7, 900, graph.DefaultRMAT, 16, 7)
	w, err := stream.New(ds, stream.Config{
		LoadFraction: 0.5, AddsPerBatch: 30, DelsPerBatch: 30, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var qs []Query
	for _, p := range w.QueryPairs(3) {
		qs = append(qs, Query{S: p[0], D: p[1]})
	}
	m := NewMultiCISO(WithWorkers(4))
	m.Reset(w.Initial(), algo.PPSP{}, qs)

	stop := make(chan struct{})
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Do-while: at least one full read pass even if the writer
			// finishes all batches before this goroutine is scheduled
			// (GOMAXPROCS=1 boxes — the bounded pool runs serially there
			// and the writer never yields between batches).
			for {
				ans := m.Answers()
				if n := m.NumQueries(); len(ans) != n {
					// Both sides are taken under the same read lock per
					// call, so lengths may differ between calls — but each
					// individually must be consistent.
					_ = n
				}
				m.Counters().Get(stats.CntRelax)
				_ = m.Queries()
				reads.Add(1)
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for bi := 0; bi < 6; bi++ {
		m.ApplyBatchDelta(w.NextBatch())
		if bi == 2 {
			p := w.QueryPairs(4)[3]
			m.AddQuery(Query{S: p[0], D: p[1]})
		}
	}
	close(stop)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("reader goroutines made no progress")
	}
}

// panickedGroups returns the indices of the source groups err names: a
// recovered group panic names its source (groupPanic).
func panickedGroups(m *MultiCISO, err error) map[int]bool {
	out := map[int]bool{}
	if err == nil {
		return out
	}
	for gi, g := range m.groups {
		if strings.Contains(err.Error(), fmt.Sprintf("source %d ", g.st.src)) {
			out[gi] = true
		}
	}
	return out
}

// checkChanged fails unless d.Changed is ascending, carries post-batch
// values, and lists exactly the queries that erred plus every other query
// whose answer moved from pre to post.
func checkChanged(t *testing.T, where string, pre, post []algo.Value, d BatchDelta, erred func(i int) bool) {
	t.Helper()
	in := map[int]bool{}
	for k, ca := range d.Changed {
		if k > 0 && d.Changed[k-1].Index >= ca.Index {
			t.Fatalf("%s: Changed not ascending: %+v", where, d.Changed)
		}
		if ca.Value != post[ca.Index] {
			t.Fatalf("%s: Changed[%d] = %v, answer %v", where, ca.Index, ca.Value, post[ca.Index])
		}
		in[ca.Index] = true
	}
	for i := range post {
		if want := erred(i) || pre[i] != post[i]; in[i] != want {
			t.Fatalf("%s: query %d in Changed = %v, want %v (erred %v, %v -> %v)",
				where, i, in[i], want, erred(i), pre[i], post[i])
		}
	}
}
