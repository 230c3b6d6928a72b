package server

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/stream"
)

func testWorkload(t *testing.T) *stream.Workload {
	t.Helper()
	ds := graph.RMAT("srv", 8, 2400, graph.DefaultRMAT, 16, 99)
	w, err := stream.New(ds, stream.DefaultConfig(len(ds.Arcs), 7))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func testAlgo(t *testing.T) algo.Algorithm {
	t.Helper()
	a, err := algo.ByName("PPSP")
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// The pool must publish exactly the answers a bare MultiCISO over the same
// stream computes.
func TestQueryPoolMatchesSingleEngine(t *testing.T) {
	w := testWorkload(t)
	a := testAlgo(t)
	var qs []core.Query
	for _, p := range w.QueryPairsConnected(6) {
		qs = append(qs, core.Query{S: p[0], D: p[1]})
	}

	ref := core.NewMultiCISO()
	ref.Reset(w.Initial(), a, qs)

	pool := NewQueryPool(w.Initial(), a, 1, 1, core.StoreDense, true)
	for _, q := range qs {
		pool.Register(q)
	}

	for i := 0; i < 10; i++ {
		batch := w.NextBatch()
		ref.ApplyBatchDelta(batch)
		if _, err := pool.ApplyBatch(batch); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	snap := pool.Answers()
	want := ref.Answers()
	for i := range qs {
		if snap.Values[i] != want[i] {
			t.Errorf("query %d Q(%d->%d): pool=%v ref=%v", i, qs[i].S, qs[i].D, snap.Values[i], want[i])
		}
	}
}

// TestRegisterAllMatchesRegisterLoop: registering a list in one locked pass
// is a Register loop — same ids, answers, published snapshot and engine
// counters — on an empty and on a non-empty pool (the -resume -queries
// case), and the two pools stay identical (answers and classification
// counters, which read every query's values and parents) through later
// batches. Engine-level values and parents are pinned by core's
// TestAddQueriesMatchesAddQueryLoop.
func TestRegisterAllMatchesRegisterLoop(t *testing.T) {
	for _, npre := range []int{0, 4} {
		w := testWorkload(t)
		a := testAlgo(t)
		pairs := w.QueryPairsConnected(12)
		var qs []core.Query
		for i, p := range pairs {
			// Three sources, two consecutive queries each in turn, so most
			// registrations join a group opened earlier in the list.
			qs = append(qs, core.Query{S: pairs[(i/2)%3][0], D: p[1]})
		}
		qs = slices.DeleteFunc(qs, func(q core.Query) bool { return q.S == q.D })
		loop := NewQueryPool(w.Initial(), a, 1, 1, core.StoreDense, true)
		bulk := NewQueryPool(w.Initial(), a, 1, 1, core.StoreDense, true)
		for _, q := range qs[:npre] {
			loop.Register(q)
			bulk.Register(q)
		}
		var wantIDs []int
		var wantAns []algo.Value
		for _, q := range qs[npre:] {
			id, ans, err := loop.Register(q)
			if err != nil {
				t.Fatal(err)
			}
			wantIDs, wantAns = append(wantIDs, id), append(wantAns, ans)
		}
		ids, ans, err := bulk.RegisterAll(qs[npre:])
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("pre=%d", npre)
		if !slices.Equal(ids, wantIDs) || !slices.Equal(ans, wantAns) {
			t.Fatalf("%s: RegisterAll → ids %v answers %v, Register loop %v %v", label, ids, ans, wantIDs, wantAns)
		}
		same := func(where string) {
			t.Helper()
			if b, l := bulk.Counters().Snapshot(), loop.Counters().Snapshot(); !maps.Equal(b, l) {
				t.Fatalf("%s: counters %v, Register loop %v", where, b, l)
			}
			bs, ls := bulk.Answers(), loop.Answers()
			if !slices.Equal(bs.Queries, ls.Queries) || !slices.Equal(bs.Values, ls.Values) {
				t.Fatalf("%s: snapshot %+v, Register loop %+v", where, *bs, *ls)
			}
		}
		same(label)
		for i := 0; i < 4; i++ {
			batch := w.NextBatch()
			if _, err := loop.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
			if _, err := bulk.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("%s batch %d", label, i))
		}
	}
}

// fillQueries returns k valid queries on an n-vertex graph, all from source
// 0, so registering them costs one cold start.
func fillQueries(k int, n uint32) []core.Query {
	qs := make([]core.Query, k)
	for i := range qs {
		qs[i] = core.Query{S: 0, D: 1 + uint32(i)%(n-1)}
	}
	return qs
}

// TestQueryAdmissionRejects: Register and RegisterAll share one admission
// rule. An out-of-range endpoint, s = d or a list that would pass the cap
// is refused with an error — never a panic — and a refused list registers
// none of its queries, valid ones included.
func TestQueryAdmissionRejects(t *testing.T) {
	w := testWorkload(t)
	pool := NewQueryPool(w.Initial(), testAlgo(t), 1, 1, core.StoreDense, true)
	n := uint32(w.NumVertices())
	for _, tc := range []struct {
		name  string
		qs    []core.Query
		limit bool
	}{
		{"destination out of range", []core.Query{{S: 0, D: 1}, {S: 0, D: 999999}}, false},
		{"source out of range", []core.Query{{S: n, D: 1}}, false},
		{"source equals destination", []core.Query{{S: 0, D: 1}, {S: 3, D: 3}}, false},
		{"over the cap", fillQueries(maxQueries+1, n), true},
	} {
		if _, _, err := pool.RegisterAll(tc.qs); err == nil || errors.Is(err, ErrQueryLimit) != tc.limit {
			t.Errorf("RegisterAll, %s: err %v, want an error (query limit: %v)", tc.name, err, tc.limit)
		}
		if bad := tc.qs[len(tc.qs)-1]; !tc.limit {
			if _, _, err := pool.Register(bad); err == nil {
				t.Errorf("Register, %s: admitted %v", tc.name, bad)
			}
		}
		if got := pool.NumQueries(); got > 0 {
			t.Fatalf("%s: %d queries registered by refused calls", tc.name, got)
		}
	}
	if _, _, err := pool.RegisterAll(fillQueries(maxQueries-1, n)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pool.Register(core.Query{S: 1, D: 2}); err != nil {
		t.Fatalf("the last query under the cap: %v", err)
	}
	if _, _, err := pool.Register(core.Query{S: 1, D: 2}); !errors.Is(err, ErrQueryLimit) {
		t.Fatalf("a query past the cap: err %v, want ErrQueryLimit", err)
	}
	if _, _, err := pool.RegisterAll([]core.Query{{S: 1, D: 2}}); !errors.Is(err, ErrQueryLimit) {
		t.Fatalf("a list past the cap: err %v, want ErrQueryLimit", err)
	}
	if got := pool.NumQueries(); got != maxQueries {
		t.Fatalf("NumQueries %d, want the cap %d", got, maxQueries)
	}
}

// Registration beside live commits: while the writer applies batches and
// readers load snapshots, a second goroutine registers queries on new and
// on already-registered sources. Every published snapshot is coherent, and
// the final one equals an offline MultiCISO over the same stream and
// queries — so no registration lost a fold that raced it. Run with -race.
func TestQueryPoolSnapshotUnderLoad(t *testing.T) {
	const batches = 16
	w := testWorkload(t)
	a := testAlgo(t)
	g0 := w.Initial()
	pool := NewQueryPool(g0, a, 1, 1, core.StoreDense, true)
	pairs := w.QueryPairs(24)
	for _, p := range pairs[:4] {
		pool.Register(core.Query{S: p[0], D: p[1]})
	}
	// Late registrations alternate a fresh pair (usually a new source) with
	// an existing source towards a fresh destination (a group join).
	var late []core.Query
	for i, p := range pairs[4:] {
		late = append(late, core.Query{S: p[0], D: p[1]})
		late = append(late, core.Query{S: pairs[i%4][0], D: p[1]})
	}
	late = slices.DeleteFunc(late, func(q core.Query) bool { return q.S == q.D })

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
				}
				snap := pool.Answers()
				if len(snap.Queries) != len(snap.Values) {
					t.Error("torn snapshot: queries and values lengths differ")
					return
				}
				pool.Counters()
			}
		}()
	}
	// The registrar paces itself on the writer's progress, so its
	// registrations spread over the whole run instead of finishing before
	// the first batch; the writer never waits for it.
	var applied atomic.Int64
	registered := make(chan struct{})
	go func() {
		defer close(registered)
		for k, q := range late {
			for applied.Load() < int64(k*batches/len(late)) {
				runtime.Gosched()
			}
			pool.Register(q)
		}
	}()
	var stream [][]graph.Update
	for i := 0; i < batches; i++ {
		batch := w.NextBatch()
		stream = append(stream, batch)
		if _, err := pool.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		applied.Add(1)
	}
	<-registered
	close(stop)
	wg.Wait()

	want := 4 + len(late)
	if got := pool.NumQueries(); got != want {
		t.Fatalf("NumQueries=%d, want %d", got, want)
	}
	if got := len(pool.QueriesSnapshot()); got != want {
		t.Fatalf("QueriesSnapshot len=%d, want %d", got, want)
	}
	snap := pool.Answers()
	ref := core.NewMultiCISO()
	ref.Reset(g0.Clone(), a, snap.Queries)
	for _, batch := range stream {
		ref.ApplyBatchDelta(batch)
	}
	if refAns := ref.Answers(); !slices.Equal(snap.Values, refAns) {
		t.Fatalf("snapshot after concurrent registration %v, offline engine %v", snap.Values, refAns)
	}
}
