package core

import (
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/stream"
)

func TestNormalizeBatchClasses(t *testing.T) {
	g := graph.NewDynamic(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 3)
	batch := []graph.Update{
		graph.Del(0, 1, 5), graph.Add(0, 1, 2), // reweight 5→2
		graph.Add(2, 3, 7),                     // pure addition
		graph.Del(1, 2, 3),                     // pure deletion
		graph.Add(3, 0, 1), graph.Del(3, 0, 1), // transient: net no-op
	}
	nb := NormalizeBatch(g, batch)
	if len(nb.Adds) != 1 || nb.Adds[0].From != 2 || nb.Adds[0].To != 3 {
		t.Fatalf("adds = %v", nb.Adds)
	}
	if len(nb.Dels) != 1 || nb.Dels[0].From != 1 || nb.Dels[0].To != 2 {
		t.Fatalf("dels = %v", nb.Dels)
	}
	if len(nb.Reweights) != 1 || nb.Reweights[0].OldW != 5 || nb.Reweights[0].NewW != 2 {
		t.Fatalf("reweights = %v", nb.Reweights)
	}
	if nb.Size() != 4 {
		t.Fatalf("size = %d", nb.Size())
	}
	// The source graph must be untouched.
	if w, ok := g.HasEdge(0, 1); !ok || w != 5 {
		t.Fatal("NormalizeBatch mutated the graph")
	}
}

func TestNormalizeBatchIdentityOnStreamBatches(t *testing.T) {
	ds := graph.RMAT("nb", 7, 700, graph.DefaultRMAT, 8, 5)
	w, _ := stream.New(ds, stream.Config{LoadFraction: 0.5, AddsPerBatch: 30, DelsPerBatch: 30, Seed: 5})
	g := w.Initial()
	batch := w.NextBatch()
	nb := NormalizeBatch(g, batch)
	if len(nb.Reweights) != 0 {
		t.Fatalf("stream batches never reweight: %v", nb.Reweights)
	}
	if len(nb.Adds) != 30 || len(nb.Dels) != 30 {
		t.Fatalf("adds=%d dels=%d", len(nb.Adds), len(nb.Dels))
	}
}

// TestReweightBatches is the navigation-example regression: batches that
// re-weight edges (delete + re-add with a new weight) must leave every
// engine agreeing with ColdStart.
func TestReweightBatches(t *testing.T) {
	for _, a := range algo.All() {
		el := graph.Grid("rw", 8, 8, 9, 3)
		q := Query{S: 0, D: 63}
		mk := []func() Engine{
			func() Engine { return NewIncremental() },
			func() Engine { return NewCISO() },
			func() Engine { return NewSGraph(4) },
		}
		cs := NewColdStart()
		cs.Reset(graph.FromEdgeList(el), a, q)
		engines := make([]Engine, len(mk))
		for i, f := range mk {
			engines[i] = f()
			engines[i].Reset(graph.FromEdgeList(el), a, q)
		}
		// Three waves of deterministic re-weightings mixed with pure
		// add/del churn.
		for wave := 0; wave < 3; wave++ {
			var batch []graph.Update
			for i := wave; i < len(el.Arcs); i += 7 {
				arc := &el.Arcs[i]
				newW := float64((i+wave)%9 + 1)
				if newW == arc.W {
					continue
				}
				batch = append(batch,
					graph.Del(arc.From, arc.To, arc.W),
					graph.Add(arc.From, arc.To, newW))
				arc.W = newW
			}
			want := cs.ApplyBatch(batch).Answer
			for _, e := range engines {
				if got := e.ApplyBatch(batch).Answer; got != want {
					t.Fatalf("%s/%s wave %d: got %v, want %v", a.Name(), e.Name(), wave, got, want)
				}
			}
		}
	}
}

// TestChainedReweights: one batch improves the edge into u and worsens u's
// edge to v, which supplied v. After phase A the worsened edge already
// carries its new weight and u its improved value, so only v's parent still
// names the edge as v's supplier; v must be repaired to its other route,
// whichever reweight the batch lists first.
func TestChainedReweights(t *testing.T) {
	mk := func() *graph.Dynamic {
		g := graph.NewDynamic(4)
		g.AddEdge(0, 1, 2)
		g.AddEdge(1, 2, 7) // supplies 2: 9, against 11 over 0→3→2
		g.AddEdge(0, 3, 5)
		g.AddEdge(3, 2, 6)
		return g
	}
	improve := []graph.Update{graph.Del(0, 1, 2), graph.Add(0, 1, 1)}
	worsen := []graph.Update{graph.Del(1, 2, 7), graph.Add(1, 2, 14)}
	q := Query{S: 0, D: 2}
	for _, batch := range [][]graph.Update{
		append(append([]graph.Update(nil), improve...), worsen...),
		append(append([]graph.Update(nil), worsen...), improve...),
	} {
		c := NewCISO()
		c.Reset(mk(), algo.PPSP{}, q)
		if got := c.ApplyBatch(batch).Answer; got != 11 {
			t.Errorf("CISO %v: answer %v, want 11", batch, got)
		}
		m := NewMultiCISO()
		m.Reset(mk(), algo.PPSP{}, []Query{q})
		m.ApplyBatchDelta(batch)
		if got := m.Answers()[0]; got != 11 {
			t.Errorf("MultiCISO %v: answer %v, want 11", batch, got)
		}
		checkInvariant(t, m.stateOf(0))
	}
}
