package core

import (
	"math"
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
)

func TestClassifyAdditionPPSP(t *testing.T) {
	a := algo.PPSP{}
	// Algorithm 1 line 4: state[u] + w < state[v] → valuable.
	if got := ClassifyAddition(a, 2, 10, 3); got != ClassValuable {
		t.Fatalf("2+3 < 10 should be valuable, got %v", got)
	}
	if got := ClassifyAddition(a, 2, 5, 3); got != ClassUseless {
		t.Fatalf("2+3 == 5 improves nothing, got %v", got)
	}
	if got := ClassifyAddition(a, 9, 5, 3); got != ClassUseless {
		t.Fatalf("worse candidate should be useless, got %v", got)
	}
	// Unreached tail: ∞ + w can't improve anything.
	if got := ClassifyAddition(a, math.Inf(1), 5, 3); got != ClassUseless {
		t.Fatalf("unreached tail should be useless, got %v", got)
	}
	// Unreached head: anything reached improves ∞.
	if got := ClassifyAddition(a, 2, math.Inf(1), 3); got != ClassValuable {
		t.Fatalf("reaching a new vertex is valuable, got %v", got)
	}
}

func TestClassifyDeletionPPSP(t *testing.T) {
	a := algo.PPSP{}
	// Algorithm 1 line 11: state[u] + w == state[v] → valuable/delayed.
	if got := ClassifyDeletion(a, 2, 5, 3, true); got != ClassValuable {
		t.Fatalf("supplier on key path should be valuable, got %v", got)
	}
	if got := ClassifyDeletion(a, 2, 5, 3, false); got != ClassDelayed {
		t.Fatalf("supplier off key path should be delayed, got %v", got)
	}
	if got := ClassifyDeletion(a, 2, 4, 3, true); got != ClassUseless {
		t.Fatalf("non-supplier should be useless even on path, got %v", got)
	}
}

func TestClassifyFig3Example(t *testing.T) {
	// Paper Fig. 3: Q(v0→v5) with Dist(v0,v5)=5 via the direct edge and
	// Dist(v0,v2)=1. Adding v2→v5 (w=1) gives 1+1 < 5: valuable (it shrinks
	// the answer to 2 — the paper's "timely result").
	a := algo.PPSP{}
	if got := ClassifyAddition(a, 1, 5, 1); got != ClassValuable {
		t.Fatalf("Fig. 3 valuable addition misclassified: %v", got)
	}
	// Triangle inequality (Eq. 1): after the addition the equality binds.
	distV0V2, wV2V5, distV0V5 := 1.0, 1.0, 2.0
	if distV0V2+wV2V5 < distV0V5 {
		t.Fatal("Eq. 1 violated")
	}
}

func TestClassifyReachDeletionsMostlyDelayed(t *testing.T) {
	// In Reach every edge between reached vertices satisfies the equality
	// test (1 == 1), so deletions off the key path flood the delayed class —
	// the behaviour behind the paper's Fig. 5(b) Reach/Viterbi comment.
	a := algo.Reach{}
	if got := ClassifyDeletion(a, 1, 1, 7, false); got != ClassDelayed {
		t.Fatalf("reached-reached deletion should be delayed, got %v", got)
	}
	if got := ClassifyDeletion(a, 0, 1, 7, false); got != ClassUseless {
		t.Fatalf("unreached-tail deletion should be useless, got %v", got)
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		ClassUseless:  "useless",
		ClassDelayed:  "delayed",
		ClassValuable: "valuable",
		Class(42):     "invalid",
	}
	for c, want := range names {
		if c.String() != want {
			t.Fatalf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestKeyPathLine(t *testing.T) {
	g := lineGraph(1, 2, 3)
	st := newState(g, algo.PPSP{}, Query{S: 0, D: 3}, stats.NewCounters())
	st.fullCompute()
	onPath := st.sc.onPath
	path := st.keyPath()
	want := []graph.VertexID{0, 1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	for v := 0; v < 4; v++ {
		if !onPath[v] {
			t.Fatalf("vertex %d should be on path", v)
		}
	}
	if !st.edgeOnKeyPath(1, 2) {
		t.Fatal("edge 1→2 is on the key path")
	}
	if st.edgeOnKeyPath(2, 1) {
		t.Fatal("reverse edge is not on the key path")
	}
}

func TestKeyPathPicksShortestBranch(t *testing.T) {
	g := graph.NewDynamic(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1) // short: 0-1-3 = 2
	g.AddEdge(0, 2, 5)
	g.AddEdge(2, 3, 5) // long: 0-2-3 = 10
	st := newState(g, algo.PPSP{}, Query{S: 0, D: 3}, stats.NewCounters())
	st.fullCompute()
	onPath := st.sc.onPath
	path := st.keyPath()
	if len(path) != 3 || path[1] != 1 {
		t.Fatalf("path = %v, want [0 1 3]", path)
	}
	if onPath[2] {
		t.Fatal("vertex 2 must be off the key path")
	}
}

func TestKeyPathUnreached(t *testing.T) {
	g := graph.NewDynamic(3)
	g.AddEdge(0, 1, 1)
	st := newState(g, algo.PPSP{}, Query{S: 0, D: 2}, stats.NewCounters())
	st.fullCompute()
	onPath := st.sc.onPath
	if path := st.keyPath(); path != nil {
		t.Fatalf("unreached destination produced path %v", path)
	}
	for v, m := range onPath {
		if m {
			t.Fatalf("vertex %d marked despite no path", v)
		}
	}
}

func TestKeyPathClearsOldMarks(t *testing.T) {
	g := graph.NewDynamic(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	st := newState(g, algo.PPSP{}, Query{S: 0, D: 2}, stats.NewCounters())
	st.fullCompute()
	onPath := st.sc.onPath
	st.keyPath()
	// Disconnect and recompute: stale marks must vanish.
	g.RemoveEdge(0, 1)
	st.repairVertex(1)
	if path := st.keyPath(); path != nil {
		t.Fatalf("path after disconnect = %v", path)
	}
	for v, m := range onPath {
		if m {
			t.Fatalf("stale mark on %d", v)
		}
	}
}

// TestKeyPathIgnoresBrokenChains pins the union derivation on chains that do
// not reach the source — a parent cycle (a mid-batch repair can close one
// through a pending deletion's head) and a dead end: such a destination
// contributes no key path, while another destination's chain, and a third's
// that joins it, are marked in full.
func TestKeyPathIgnoresBrokenChains(t *testing.T) {
	g := lineGraph(1, 1, 1, 1, 1, 1, 1) // 0→1→…→7
	st := newState(g, algo.PPSP{}, Query{S: 0, D: 3}, stats.NewCounters())
	st.fullCompute()
	st.parent[5], st.parent[6] = 6, 5 // 6 → 5 → 6: a cycle
	st.parent[7] = graph.NoVertex     // 7 reached, dead end
	st.dests = []graph.VertexID{6, 7, 3, 2}
	onPath := st.sc.onPath
	path := st.keyPath()
	if len(path) != 4 {
		t.Fatalf("union = %v, want destination 3's chain 0..3", path)
	}
	for v := range onPath {
		if want := v <= 3; onPath[v] != want {
			t.Fatalf("vertex %d marked %v, want %v", v, onPath[v], want)
		}
	}
	st.dests = []graph.VertexID{6}
	if path := st.keyPath(); path != nil {
		t.Fatalf("a cycle produced key path %v", path)
	}
	for v, m := range onPath {
		if m {
			t.Fatalf("vertex %d marked by a cycle", v)
		}
	}
}
