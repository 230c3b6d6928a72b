package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
	"cisgraph/internal/stream"
)

// groupedQueries registers sizes[k] queries on the k-th highest-degree
// vertex of g, in that order, with destinations spread over the vertices the
// source reaches.
func groupedQueries(g *graph.Dynamic, sizes ...int) []Query {
	var qs []Query
	for k, src := range g.TopDegreeVertices(len(sizes)) {
		var reach []graph.VertexID
		for v, ok := range graph.ReachableFrom(g, src) {
			if ok && graph.VertexID(v) != src {
				reach = append(reach, graph.VertexID(v))
			}
		}
		for j := 0; j < sizes[k]; j++ {
			qs = append(qs, Query{S: src, D: reach[(j*len(reach))/sizes[k]]})
		}
	}
	return qs
}

// chainOf returns d's parent chain in st, d first; nil when d is unreached.
func chainOf(st *state, d graph.VertexID) []graph.VertexID {
	if !st.op.reached(st.val[d]) {
		return nil
	}
	var chain []graph.VertexID
	for v := d; v != graph.NoVertex; v = st.parent[v] {
		chain = append(chain, v)
	}
	return chain
}

// soleKeyPathEdge finds, in a group of two or more members, an edge on
// member b's key path whose head is on no other member's key path, and
// another member a. ok is false when every member's key path is covered by
// the others'.
func soleKeyPathEdge(m *MultiCISO) (e graph.Update, a, b int, ok bool) {
	for _, g := range m.groups {
		if len(g.members) < 2 {
			continue
		}
		for _, qb := range g.members {
			other := map[graph.VertexID]bool{}
			for _, qa := range g.members {
				if qa != qb {
					for _, v := range chainOf(g.st, m.queries[qa].D) {
						other[v] = true
					}
					a = qa
				}
			}
			for _, x := range chainOf(g.st, m.queries[qb].D) {
				if p := g.st.parent[x]; p != graph.NoVertex && !other[x] {
					w, _ := m.g.HasEdge(p, x)
					return graph.Del(p, x, w), a, qb, true
				}
			}
		}
	}
	return graph.Update{}, 0, 0, false
}

// TestSharedSourceGroups pins the one-state-per-source engine on groups of
// 1, 2 and 8 members, for every algebra the groups are built for. After
// every batch each answer equals an independent single-query engine's, and
// the engine's counters moved by the sum of per-source reference engines';
// a deletion on only one member's key path is valuable for the whole group
// (and not for an independent engine of another member); and a panic in a
// group's phases is reported against its source, reaches every member and
// recovers all of them.
func TestSharedSourceGroups(t *testing.T) {
	for _, a := range []algo.Algorithm{algo.PPSP{}, algo.PPWP{}, algo.Viterbi{}, algo.Reach{}} {
		label := a.Name()
		ds := graph.RMAT("groups", 7, 900, graph.DefaultRMAT, 16, 41)
		w, err := stream.New(ds, stream.Config{
			LoadFraction: 0.6, AddsPerBatch: 20, DelsPerBatch: 30, Seed: 41,
		})
		if err != nil {
			t.Fatal(err)
		}
		init := w.Initial()
		qs := groupedQueries(init, 8, 2, 1)
		pa := &panicOnceAlgo{Algorithm: a}
		m := NewMultiCISO()
		m.Reset(init.Clone(), pa, qs)
		if len(m.groups) != 3 || len(m.groups[0].members) != 8 {
			t.Fatalf("%s: groups %d, first of %d members", label, len(m.groups), len(m.groups[0].members))
		}
		refs := make([]*MultiCISO, len(qs))
		for i, q := range qs {
			refs[i] = NewMultiCISO()
			refs[i].Reset(init.Clone(), a, []Query{q})
		}
		// One reference engine per source group, holding exactly its
		// members: the engine counts each group's work once, so a batch
		// moves its counters by the sum of theirs. They run the same
		// (never armed) wrapper, so they resolve the same generic ops.
		groupQueries := func(gi int) []Query {
			var out []Query
			for _, i := range m.groups[gi].members {
				out = append(out, qs[i])
			}
			return out
		}
		grefs := make([]*MultiCISO, len(m.groups))
		for gi := range grefs {
			grefs[gi] = NewMultiCISO()
			grefs[gi].Reset(init.Clone(), &panicOnceAlgo{Algorithm: a}, groupQueries(gi))
		}
		// apply runs batch on every engine and returns m's delta and its
		// answers before the batch.
		apply := func(where string, batch []graph.Update) (BatchDelta, []algo.Value) {
			t.Helper()
			pre := m.Answers()
			moved, srcMoved := countsSince(m), countsSince(grefs...)
			d := m.ApplyBatchDelta(batch)
			for _, g := range grefs {
				g.ApplyBatchDelta(batch)
			}
			got := m.Answers()
			for i := range qs {
				refs[i].ApplyBatchDelta(batch)
				if want := refs[i].Answers()[0]; got[i] != want {
					t.Fatalf("%s query %d %v: answer %v, independent engine %v (err %v)",
						where, i, qs[i], got[i], want, d.Err)
				}
				sameState(t, fmt.Sprintf("%s query %d", where, i), m.stateOf(i), refs[i].stateOf(0), false)
			}
			if d.Err == nil {
				sameCounts(t, where, moved(), srcMoved())
			}
			return d, pre
		}
		probes := 0
		for bi := 0; bi < 6; bi++ {
			where := fmt.Sprintf("%s batch %d", label, bi)
			if bi == 3 {
				pa.after = 1
				pa.calls.Store(0)
				pa.armed.Store(true)
			}
			d, pre := apply(where, w.NextBatch())
			if bi == 3 {
				if erred := panickedGroups(m, d.Err); len(erred) != 1 || !erred[0] {
					t.Fatalf("%s: error %v; the panic belongs to exactly group 0", where, d.Err)
				}
				checkChanged(t, where, pre, m.Answers(), d, func(i int) bool { return m.inGroup[i] == 0 })
				if got := m.Counters().Get(stats.CntQueryPanic); got != 1 {
					t.Fatalf("%s: query_panic = %d, want 1", where, got)
				}
				// Group 0 recovered with a cold start on the live
				// topology; so does its reference.
				grefs[0].Reset(m.g.Clone(), &panicOnceAlgo{Algorithm: a}, groupQueries(0))
			}

			// A deletion on only member b's key path: valuable for the
			// group, while member a's own engine never counts it valuable.
			del, qa, qb, ok := soleKeyPathEdge(m)
			if !ok {
				continue
			}
			probes++
			gref, aref := grefs[m.inGroup[qa]], refs[qa]
			groupBefore := gref.Counters().Get(stats.CntUpdateValuable)
			aloneBefore := aref.Counters().Get(stats.CntUpdateValuable)
			apply(fmt.Sprintf("%s probe %v", where, del), []graph.Update{del})
			if got := gref.Counters().Get(stats.CntUpdateValuable) - groupBefore; got != 1 {
				t.Fatalf("%s: deleting %d->%d on query %d's key path only: valuable %d for the group, want 1",
					where, del.From, del.To, qb, got)
			}
			if got := aref.Counters().Get(stats.CntUpdateValuable) - aloneBefore; got != 0 {
				t.Fatalf("%s: query %d's own engine counts the deletion valuable (%d)", where, qa, got)
			}
		}
		if probes == 0 {
			t.Fatalf("%s: no batch had a key-path edge owned by one member", label)
		}
	}
}

// panicRunAlgo panics on the next `left` Propagate calls.
type panicRunAlgo struct {
	algo.Algorithm
	left atomic.Int64
}

func (p *panicRunAlgo) Propagate(u algo.Value, w float64) algo.Value {
	if p.left.Load() > 0 && p.left.Add(-1) >= 0 {
		panic("groups_test: injected panic")
	}
	return p.Algorithm.Propagate(u, w)
}

// TestSuspectGroupHeals pins the heal schedule of a group whose recovery
// failed: a panic in its phases followed by a panic in that recovery leaves
// it suspect, and the next batch's retry heals it to an independent
// engine's answers. A plugin that stays broken is retried after waits of 1,
// 2, 4, … up to 64 batches, the group's error is reported exactly on the
// batches that retry (and its members are neither skipped nor processed on
// the others), and the first retry after the plugin is fixed heals the
// group.
func TestSuspectGroupHeals(t *testing.T) {
	ds := graph.RMAT("heal", 7, 900, graph.DefaultRMAT, 16, 43)
	w, err := stream.New(ds, stream.Config{LoadFraction: 0.6, AddsPerBatch: 20, DelsPerBatch: 20, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	init := w.Initial()
	qs := groupedQueries(init, 3)
	refs := make([]*MultiCISO, len(qs))
	for i, q := range qs {
		refs[i] = NewMultiCISO()
		refs[i].Reset(init.Clone(), algo.PPSP{}, []Query{q})
	}
	same := func(where string, m *MultiCISO) {
		t.Helper()
		for i := range qs {
			if got, want := m.Answers()[i], refs[i].Answers()[0]; got != want {
				t.Fatalf("%s query %d: answer %v, independent engine %v", where, i, got, want)
			}
		}
		checkInvariant(t, m.groups[0].st)
	}
	// errs counts the members of the groups d's error names.
	errs := func(m *MultiCISO, d BatchDelta) (n int) {
		for gi := range panickedGroups(m, d.Err) {
			n += len(m.groups[gi].members)
		}
		return n
	}
	step := func(m *MultiCISO, batch []graph.Update) BatchDelta {
		for _, ref := range refs {
			ref.ApplyBatchDelta(batch)
		}
		return m.ApplyBatchDelta(batch)
	}

	// A phase panic whose recovery panics too; the next batch heals.
	pr := &panicRunAlgo{Algorithm: algo.PPSP{}}
	m := NewMultiCISO()
	m.Reset(init.Clone(), pr, qs)
	pr.left.Store(2)
	if d := step(m, w.NextBatch()); errs(m, d) != len(qs) || !m.groups[0].suspect {
		t.Fatalf("panic and failed recovery: %d of %d members errored, suspect %v", errs(m, d), len(qs), m.groups[0].suspect)
	}
	if d := step(m, w.NextBatch()); d.Err != nil || m.groups[0].suspect {
		t.Fatalf("retry: error %v, suspect %v", d.Err, m.groups[0].suspect)
	}
	same("after the heal", m)

	// A plugin that stays broken: retries at waits of 1, 2, 4, … 64.
	fa := &faultAlgo{}
	m = NewMultiCISO()
	m.Reset(refs[0].g.Clone(), fa, qs)
	fa.broken.Store(true)
	if d := step(m, w.NextBatch()); errs(m, d) != len(qs) {
		t.Fatalf("broken plugin: %d of %d members errored", errs(m, d), len(qs))
	}
	next, wait := 1, 1
	for b := 1; b <= 300; b++ {
		d := step(m, nil)
		retried := b == next
		if retried {
			next, wait = b+wait+1, min(2*wait, maxHealWait)
		}
		if n := errs(m, d); retried && n != len(qs) || !retried && d.Err != nil {
			t.Fatalf("batch %d: %d members errored (%v), retry due %v (next %d)", b, n, d.Err, retried, next)
		}
		if !retried && d.Skipped+d.Processed != 0 {
			t.Fatalf("batch %d: a quarantined group reported %d skipped, %d processed", b, d.Skipped, d.Processed)
		}
	}
	if wait != maxHealWait {
		t.Fatalf("the schedule never reached its %d-batch cap", maxHealWait)
	}
	// Fixed, with the topology moving on: answers heal at the next retry.
	fa.broken.Store(false)
	for b := 301; b <= next; b++ {
		step(m, w.NextBatch())
	}
	if m.groups[0].suspect {
		t.Fatal("the first retry after the fix did not heal the group")
	}
	same("after the fix", m)
	step(m, w.NextBatch())
	same("a batch after the fix", m)
}
