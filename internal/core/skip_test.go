package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
	"cisgraph/internal/stream"
)

// clusteredQueries builds nq queries drawn from a small pool of sources, so
// change-driven evaluation has real source groups to decide over.
func clusteredQueries(w *stream.Workload, nq, sources int) []Query {
	pairs := w.QueryPairs(sources)
	var qs []Query
	for i := 0; i < nq; i++ {
		s := pairs[i%sources][0]
		d := pairs[(i+1)%sources][1]
		if s == d {
			d = pairs[(i+2)%sources][1]
		}
		qs = append(qs, Query{S: s, D: d})
	}
	return qs
}

// encodeAnswers byte-serialises answers (exact bit pattern per value — ±Inf
// answers included, which plain JSON cannot carry), so "byte-identical"
// means exactly that. The server-level differential test compares the real
// /v1/answers JSON bodies on top of this.
func encodeAnswers(ans []algo.Value) []byte {
	var b bytes.Buffer
	for _, v := range ans {
		fmt.Fprintf(&b, "%x;", math.Float64bits(float64(v)))
	}
	return b.Bytes()
}

// coldStart cold-starts q on a clone of g: the paper's CS baseline, which
// shares no skip logic.
func coldStart(g *graph.Dynamic, a algo.Algorithm, q Query) *ColdStart {
	cs := NewColdStart()
	cs.Reset(g.Clone(), a, q)
	return cs
}

// coldAnswers returns every query's cold-start answer on g, in query order.
func coldAnswers(g *graph.Dynamic, a algo.Algorithm, qs []Query) []algo.Value {
	out := make([]algo.Value, len(qs))
	for i, q := range qs {
		out[i] = coldStart(g, a, q).Answer()
	}
	return out
}

// TestChangeSkipDifferential is the engines_test-style differential guard of
// DESIGN.md §15: with change-driven skipping, every query's answer after
// every batch — random streams including deletions — must be byte-identical
// to a cold start of that query on the same topology, and so must every
// source group's whole value array, skipped or not: a group skipped that
// should have been processed shows as a stale value at some vertex even
// when no member's destination is on it. The skip counter must prove
// skipping actually engaged.
func TestChangeSkipDifferential(t *testing.T) {
	for _, a := range algo.All() {
		for _, workers := range []int{1, 4} {
			ds := graph.RMAT("skipdiff", 8, 2200, graph.DefaultRMAT, 16, 77)
			w, err := stream.New(ds, stream.Config{
				LoadFraction: 0.5, AddsPerBatch: 25, DelsPerBatch: 25, Seed: 77,
			})
			if err != nil {
				t.Fatal(err)
			}
			qs := clusteredQueries(w, 24, 6)
			m := NewMultiCISO(WithWorkers(workers))
			m.Reset(w.Initial(), a, qs)
			for bi := 0; bi < 8; bi++ {
				m.ApplyBatchDelta(w.NextBatch())
				got, want := encodeAnswers(m.Answers()), encodeAnswers(coldAnswers(m.Topology(), a, qs))
				if string(got) != string(want) {
					t.Fatalf("%s/w%d batch %d: skip answers %s != cold start %s",
						a.Name(), workers, bi, got, want)
				}
				for _, g := range m.groups {
					cold := coldStart(m.Topology(), a, Query{S: g.st.src, D: g.st.dests[0]})
					if !slices.Equal(encodeAnswers(g.st.val), encodeAnswers(cold.StateForTest())) {
						t.Fatalf("%s/w%d batch %d: source %d's values differ from a cold start",
							a.Name(), workers, bi, g.st.src)
					}
				}
			}
			if m.Counters().Get(stats.CntUpdateSkipQueries) == 0 {
				t.Fatalf("%s/w%d: change-driven skipping never engaged", a.Name(), workers)
			}
		}
	}
}

// TestChangeSkipApplyUpdatesDifferential pins skipping on the small groups a
// lone binary frame commits: after every 4-update batch, the answers must
// equal a cold start on the same topology, and the reported changed set
// must be exactly the queries whose answer differs from the pre-batch one.
func TestChangeSkipApplyUpdatesDifferential(t *testing.T) {
	ds := graph.RMAT("skipfp", 8, 2200, graph.DefaultRMAT, 16, 78)
	w, err := stream.New(ds, stream.Config{
		LoadFraction: 0.5, AddsPerBatch: 2, DelsPerBatch: 2, Seed: 78,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := clusteredQueries(w, 16, 4)
	a := algo.PPSP{}
	m := NewMultiCISO(WithWorkers(4))
	m.Reset(w.Initial(), a, qs)
	for bi := 0; bi < 12; bi++ {
		pre := m.Answers()
		d := m.ApplyBatchDelta(w.NextBatch())
		if d.Err != nil {
			t.Fatalf("batch %d: %v", bi, d.Err)
		}
		got, want := m.Answers(), coldAnswers(m.Topology(), a, qs)
		var moved []ChangedAnswer
		for i := range got {
			if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
				t.Fatalf("batch %d query %d: %v != cold start %v", bi, i, got[i], want[i])
			}
			if got[i] != pre[i] {
				moved = append(moved, ChangedAnswer{Index: i, Value: got[i]})
			}
		}
		if !slices.Equal(d.Changed, moved) {
			t.Fatalf("batch %d: changed %v, want the moved answers %v", bi, d.Changed, moved)
		}
	}
	if m.Counters().Get(stats.CntUpdateSkipQueries) == 0 {
		t.Fatal("change-driven skipping never engaged")
	}
}

// TestApplyBatchDeltaMatchesResults proves the batch report: ApplyBatchDelta
// must enumerate exactly the queries whose answer moved and count every
// member of a skipped group as skipped and of a processed one as processed.
func TestApplyBatchDeltaMatchesResults(t *testing.T) {
	// A line graph 0→1→…→9 plus an isolated pair 20→21: updates in the line
	// can never touch the query rooted in the pair.
	g := graph.NewDynamic(32)
	for i := 0; i < 9; i++ {
		g.AddEdge(graph.VertexID(i), graph.VertexID(i+1), 1)
	}
	g.AddEdge(20, 21, 1)
	m := NewMultiCISO()
	m.Reset(g, algo.PPSP{}, []Query{{S: 0, D: 9}, {S: 0, D: 5}, {S: 20, D: 21}})
	// Shortening 0→1 processes the source-0 group and moves both its
	// answers; the source-20 group skips.
	d := m.ApplyBatchDelta([]graph.Update{graph.Del(0, 1, 1), graph.Add(0, 1, 0.5)})
	if d.Processed != 2 || d.Skipped != 1 || len(d.Changed) != 2 {
		t.Fatalf("supplier reweight: %+v, want the source-0 group's 2 queries processed and changed, 1 skipped", d)
	}
	// An addition that improves nothing anywhere (worse parallel path):
	// every group skips.
	if d = m.ApplyBatchDelta([]graph.Update{graph.Add(0, 9, 100)}); d.Processed != 0 || d.Skipped != 3 || len(d.Changed) != 0 {
		t.Fatalf("useless addition: %+v, want all 3 queries skipped", d)
	}
	if q, g := m.Counters().Get(stats.CntUpdateSkipQueries), m.Counters().Get(stats.CntUpdateSkipGroups); q != 4 || g != 3 {
		t.Fatalf("skip counters: %d queries in %d groups, want 4 in 3", q, g)
	}

	ds := graph.RMAT("skipdelta", 8, 2000, graph.DefaultRMAT, 16, 79)
	w, err := stream.New(ds, stream.Config{
		LoadFraction: 0.5, AddsPerBatch: 30, DelsPerBatch: 30, Seed: 79,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := clusteredQueries(w, 20, 5)
	init := w.Initial()
	lean := NewMultiCISO(WithWorkers(2))
	lean.Reset(init.Clone(), algo.PPSP{}, qs)
	ref := NewMultiCISO(WithWorkers(2))
	ref.Reset(init.Clone(), algo.PPSP{}, qs)
	prev := ref.Answers()
	for bi := 0; bi < 8; bi++ {
		batch := w.NextBatch()
		d := lean.ApplyBatchDelta(batch)
		if d.Err != nil {
			t.Fatalf("batch %d: %v", bi, d.Err)
		}
		ref.ApplyBatchDelta(batch)
		cur := ref.Answers()
		// The delta must list exactly the moved answers, in index order.
		want := make(map[int]algo.Value)
		for i := range cur {
			if cur[i] != prev[i] {
				want[i] = cur[i]
			}
		}
		if len(d.Changed) != len(want) {
			t.Fatalf("batch %d: %d changed entries, want %d (%+v)", bi, len(d.Changed), len(want), d.Changed)
		}
		last := -1
		for _, ca := range d.Changed {
			if ca.Index <= last {
				t.Fatalf("batch %d: Changed not in ascending index order: %+v", bi, d.Changed)
			}
			last = ca.Index
			if v, ok := want[ca.Index]; !ok || v != ca.Value {
				t.Fatalf("batch %d: changed[%d]=%v, want %v (present=%v)", bi, ca.Index, ca.Value, v, ok)
			}
		}
		if d.Skipped+d.Processed != len(qs) {
			t.Fatalf("batch %d: skipped %d + processed %d != %d queries", bi, d.Skipped, d.Processed, len(qs))
		}
		// And the lean engine's served answers must match the reference.
		la := lean.Answers()
		for i := range cur {
			if la[i] != cur[i] {
				t.Fatalf("batch %d query %d: lean=%v ref=%v", bi, i, la[i], cur[i])
			}
		}
		prev = cur
	}
	if lean.Counters().Get(stats.CntUpdateSkipQueries) == 0 {
		t.Fatal("lean path never skipped a query")
	}
}
