package core

import (
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
			rs := multi.ApplyBatch(batch)
			if len(rs) != len(qs) {
				t.Fatalf("%s: %d results for %d queries", a.Name(), len(rs), len(qs))
			}
			for i, q := range qs {
				want := singles[i].ApplyBatch(batch).Answer
				if rs[i].Answer != want {
					t.Fatalf("%s batch %d query %v: multi=%v single=%v",
						a.Name(), bi, q, rs[i].Answer, want)
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
		rs := multi.ApplyBatch(batch)
		for i := range qs {
			want := refs[i].ApplyBatch(batch).Answer
			if rs[i].Answer != want {
				t.Fatalf("batch %d query %d: multi=%v cs=%v", bi, i, rs[i].Answer, want)
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
	rs := multi.ApplyBatch(batch)
	for i, q := range qs {
		cs := NewColdStart()
		cs.Reset(graph.FromEdgeList(el), algo.PPSP{}, q)
		if rs[i].Answer != cs.Answer() {
			t.Fatalf("query %d: multi=%v cs=%v", i, rs[i].Answer, cs.Answer())
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
	rs := m.ApplyBatch(nil)
	if len(rs) != 2 || rs[0].Answer != 2 {
		t.Fatalf("empty batch results = %v", rs)
	}
}

func TestMultiCISOResponseBeforeConverged(t *testing.T) {
	ds := graph.RMAT("mrc", 7, 800, graph.DefaultRMAT, 8, 3)
	w, _ := stream.New(ds, stream.Config{
		LoadFraction: 0.5, AddsPerBatch: 30, DelsPerBatch: 30, Seed: 3,
	})
	var qs []Query
	for _, p := range w.QueryPairs(2) {
		qs = append(qs, Query{S: p[0], D: p[1]})
	}
	m := NewMultiCISO()
	m.Reset(w.Initial(), algo.PPSP{}, qs)
	for _, r := range m.ApplyBatch(w.NextBatch()) {
		if r.Response > r.Converged {
			t.Fatalf("response %v after converged %v", r.Response, r.Converged)
		}
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
	par := NewMultiCISO(WithParallelQueries())
	serial.Reset(init.Clone(), algo.PPSP{}, qs)
	par.Reset(init.Clone(), algo.PPSP{}, qs)
	for bi := 0; bi < 3; bi++ {
		batch := w.NextBatch()
		rs := serial.ApplyBatch(batch)
		rp := par.ApplyBatch(batch)
		for i := range qs {
			if rs[i].Answer != rp[i].Answer {
				t.Fatalf("batch %d query %d: serial=%v parallel=%v",
					bi, i, rs[i].Answer, rp[i].Answer)
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
// the WaitGroup must not deadlock, exactly one result carries the error, the
// panicked query's state is recomputed (so its answer is still correct), and
// the other queries are untouched.
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
				m = NewMultiCISO(WithParallelQueries())
			} else {
				m = NewMultiCISO()
			}
			m.Reset(init.Clone(), pa, qs)
			singles := make([]*CISO, len(qs))
			for i, q := range qs {
				singles[i] = NewCISO()
				singles[i].Reset(init.Clone(), algo.PPSP{}, q)
			}

			done := make(chan struct{})
			go func() {
				defer close(done)
				for bi, batch := range batches {
					if bi == 2 {
						pa.after = 1
						pa.calls.Store(0)
						pa.armed.Store(true)
					}
					rs := m.ApplyBatch(batch)
					nErr := 0
					for i := range qs {
						want := singles[i].ApplyBatch(batch).Answer
						if rs[i].Err != nil {
							nErr++
						}
						// Even the panicked query must answer correctly: its
						// state is recomputed on the shared topology.
						if rs[i].Answer != want {
							t.Errorf("%s batch %d query %d: answer %v, want %v (err=%v)",
								name, bi, i, rs[i].Answer, want, rs[i].Err)
						}
						checkInvariant(t, m.stateOf(i))
					}
					if bi == 2 && nErr != 1 {
						t.Errorf("%s: %d errored results on the panic batch, want 1", name, nErr)
					}
					if bi != 2 && nErr != 0 {
						t.Errorf("%s batch %d: unexpected errors (%d)", name, bi, nErr)
					}
				}
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("ApplyBatch deadlocked after an injected panic")
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
		m.ApplyBatch(batch)
		for i, s := range singles {
			s.ApplyBatch(batch)
			if got, want := m.AnswerOf(i), s.Answer(); got != want {
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
	m := NewMultiCISO(WithParallelQueries())
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
				m.AnswerOf(0)
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
		m.ApplyBatch(w.NextBatch())
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
