package core

import (
	"math"
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
)

// checkInvariant asserts the dependency-tree invariant documented on state:
// every parented vertex's value is exactly supplied by its parent edge, and
// the source is pinned. Called between operations, when the invariant must
// hold for every vertex whose parent edge still exists.
func checkInvariant(t *testing.T, st *state) {
	t.Helper()
	if st.val[st.src] != st.a.Source() {
		t.Fatalf("source state = %v, want %v", st.val[st.src], st.a.Source())
	}
	if st.parent[st.src] != graph.NoVertex {
		t.Fatalf("source has parent %d", st.parent[st.src])
	}
	for v := range st.val {
		p := st.parent[v]
		if p == graph.NoVertex {
			continue
		}
		w, ok := st.g.HasEdge(p, graph.VertexID(v))
		if !ok {
			t.Fatalf("parent edge %d->%d missing from graph", p, v)
		}
		want := st.a.Propagate(st.val[p], st.a.Weight(w))
		if st.val[v] != want {
			t.Fatalf("vertex %d: val %v not supplied by parent %d (would be %v)",
				v, st.val[v], p, want)
		}
	}
}

func lineGraph(weights ...float64) *graph.Dynamic {
	g := graph.NewDynamic(len(weights) + 1)
	for i, w := range weights {
		g.AddEdge(graph.VertexID(i), graph.VertexID(i+1), w)
	}
	return g
}

func TestFullComputeLinePPSP(t *testing.T) {
	g := lineGraph(1, 2, 3)
	st := newState(g, algo.PPSP{}, Query{S: 0, D: 3}, stats.NewCounters())
	st.fullCompute()
	want := []float64{0, 1, 3, 6}
	for v, w := range want {
		if st.val[v] != w {
			t.Fatalf("val[%d] = %v, want %v", v, st.val[v], w)
		}
	}
	checkInvariant(t, st)
	if st.answer() != 6 {
		t.Fatalf("answer = %v", st.answer())
	}
}

func TestFullComputeUnreachable(t *testing.T) {
	g := graph.NewDynamic(3)
	g.AddEdge(0, 1, 1) // vertex 2 isolated
	for _, a := range algo.All() {
		st := newState(g, a, Query{S: 0, D: 2}, stats.NewCounters())
		st.fullCompute()
		if algo.Reached(a, st.answer()) {
			t.Fatalf("%s: unreachable destination got state %v", a.Name(), st.answer())
		}
	}
}

func TestProcessAdditionImprovesAndPropagates(t *testing.T) {
	g := graph.NewDynamic(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 5)
	st := newState(g, algo.PPSP{}, Query{S: 0, D: 2}, stats.NewCounters())
	st.fullCompute()
	if st.answer() != 10 {
		t.Fatalf("initial answer %v", st.answer())
	}
	g.AddEdge(0, 2, 12)
	if st.processAddition(0, 2, 12) {
		t.Fatal("worse edge should be useless (Algorithm 1's triangle test)")
	}
	g.AddEdge(3, 1, 1)
	if st.processAddition(3, 1, 1) {
		t.Fatal("edge from an unreached vertex must not improve anything")
	}
	g.AddEdge(0, 3, 1)
	if !st.processAddition(0, 3, 1) {
		t.Fatal("reaching a new vertex is an improvement")
	}
	// Reaching 3 must cascade through the earlier 3→1 edge to 1 and 2.
	if st.val[1] != 2 || st.val[2] != 7 {
		t.Fatalf("propagation incomplete: val[1]=%v val[2]=%v", st.val[1], st.val[2])
	}
	checkInvariant(t, st)
}

func TestRepairVertexTieKeepsValueAndFixesParent(t *testing.T) {
	// Two equal paths into 2; deleting the parent one must keep the value
	// and move the parent to the tie supplier.
	g := graph.NewDynamic(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 3, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(3, 2, 2)
	st := newState(g, algo.PPSP{}, Query{S: 0, D: 2}, stats.NewCounters())
	st.fullCompute()
	if st.val[2] != 3 {
		t.Fatalf("val[2] = %v", st.val[2])
	}
	p := st.parent[2]
	if p != 1 && p != 3 {
		t.Fatalf("parent[2] = %v", p)
	}
	g.RemoveEdge(p, 2)
	if st.repairVertex(2) {
		t.Fatal("tie deletion must not change any value")
	}
	if st.val[2] != 3 {
		t.Fatalf("val[2] after tie repair = %v", st.val[2])
	}
	if st.parent[2] == p {
		t.Fatal("parent must be reassigned to the surviving supplier")
	}
	checkInvariant(t, st)
}

func TestRepairVertexWorsensAndRecovers(t *testing.T) {
	// Figure 1(b): deleting v0→v3 must worsen v4 from 5 to 9 — naive
	// monotone reuse would keep 5 forever.
	g := graph.NewDynamic(5)
	g.AddEdge(0, 3, 2)
	g.AddEdge(3, 4, 3) // short path 0-3-4 = 5
	g.AddEdge(0, 1, 4)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 4, 3) // long path 0-1-2-4 = 9
	st := newState(g, algo.PPSP{}, Query{S: 0, D: 4}, stats.NewCounters())
	st.fullCompute()
	if st.answer() != 5 {
		t.Fatalf("initial answer %v, want 5", st.answer())
	}
	g.RemoveEdge(0, 3)
	if !st.repairVertex(3) {
		t.Fatal("deleting the supplying edge must change state")
	}
	if st.answer() != 9 {
		t.Fatalf("recovered answer %v, want 9 (the paper's Fig. 1b value)", st.answer())
	}
	if !math.IsInf(st.val[3], 1) {
		t.Fatalf("v3 should be unreachable, got %v", st.val[3])
	}
	checkInvariant(t, st)
}

func TestRepairVertexDisconnects(t *testing.T) {
	g := lineGraph(1, 1, 1)
	st := newState(g, algo.Reach{}, Query{S: 0, D: 3}, stats.NewCounters())
	st.fullCompute()
	if st.answer() != 1 {
		t.Fatal("initially reachable")
	}
	g.RemoveEdge(1, 2)
	st.repairVertex(2)
	if st.answer() != 0 {
		t.Fatalf("answer after disconnect = %v, want 0", st.answer())
	}
	if st.val[1] != 1 {
		t.Fatal("prefix must stay reached")
	}
	checkInvariant(t, st)
}

func TestRepairVertexWithCycle(t *testing.T) {
	// A cycle hanging off the deleted region must not trap stale values:
	// 0→1→2→3→2 (3→2 closes a cycle), delete 0→1.
	g := graph.NewDynamic(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 2, 1)
	st := newState(g, algo.PPSP{}, Query{S: 0, D: 3}, stats.NewCounters())
	st.fullCompute()
	if st.answer() != 3 {
		t.Fatalf("initial %v", st.answer())
	}
	g.RemoveEdge(0, 1)
	st.repairVertex(1)
	for v := 1; v <= 3; v++ {
		if !math.IsInf(st.val[v], 1) {
			t.Fatalf("val[%d] = %v, want +Inf (cycle must not self-sustain)", v, st.val[v])
		}
	}
	checkInvariant(t, st)
}

func TestSourcePinnedAgainstDeletion(t *testing.T) {
	g := graph.NewDynamic(2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 1)
	st := newState(g, algo.PPSP{}, Query{S: 0, D: 1}, stats.NewCounters())
	st.fullCompute()
	g.RemoveEdge(1, 0)
	if st.repairVertex(0) {
		t.Fatal("repairing the source must be a no-op")
	}
	if st.val[0] != 0 {
		t.Fatalf("source state %v", st.val[0])
	}
}

func TestCountersTrackRelaxAndActivation(t *testing.T) {
	g := lineGraph(1, 1)
	cnt := stats.NewCounters()
	st := newState(g, algo.PPSP{}, Query{S: 0, D: 2}, cnt)
	st.fullCompute()
	// Line 0→1→2: relax edges (0,1) and (1,2), plus a final pop of 2 with no
	// out-edges: 2 relaxations, 2 activations.
	if got := cnt.Get(stats.CntRelax); got != 2 {
		t.Fatalf("relax = %d, want 2", got)
	}
	if got := cnt.Get(stats.CntActivation); got != 2 {
		t.Fatalf("activation = %d, want 2", got)
	}
}

func TestWorklistBestFirst(t *testing.T) {
	var wl worklist
	wl.arm(algo.PPSP{}, 16)
	wl.push(1, 5)
	wl.push(2, 1)
	wl.push(3, 3)
	v, s := wl.pop()
	if v != 2 || s != 1 {
		t.Fatalf("pop = %d,%v; want best-first 2,1", v, s)
	}
	wl.arm(algo.PPWP{}, 16)
	wl.push(1, 5)
	wl.push(2, 9)
	v, s = wl.pop()
	if v != 2 || s != 9 {
		t.Fatalf("MAX-algebra pop = %d,%v; want 2,9", v, s)
	}
}

// The heap must drain in exact best-first order for a MIN algebra against a
// sort reference, across interleaved push/pop sequences.
func TestWorklistHeapMatchesSortedOrder(t *testing.T) {
	var wl worklist
	wl.arm(algo.PPSP{}, 16)
	scores := []float64{9, 4, 7, 1, 8, 2, 6, 3, 5, 0, 11, 10}
	for i, s := range scores {
		wl.push(graph.VertexID(i), s)
	}
	prev := math.Inf(-1)
	for wl.len() > 0 {
		_, s := wl.pop()
		if s < prev {
			t.Fatalf("heap popped %v after %v", s, prev)
		}
		prev = s
	}
	// Interleaved: pop the minimum seen so far at every step.
	wl.push(1, 5)
	wl.push(2, 3)
	if _, s := wl.pop(); s != 3 {
		t.Fatalf("interleaved pop = %v, want 3", s)
	}
	wl.push(3, 1)
	wl.push(4, 4)
	if _, s := wl.pop(); s != 1 {
		t.Fatalf("interleaved pop = %v, want 1", s)
	}
}

// Plateau algebras (Reach) must select the FIFO fast path and preserve
// arrival order; non-plateau algebras must not.
func TestWorklistPlateauFIFO(t *testing.T) {
	var wl worklist
	wl.arm(algo.Reach{}, 16)
	if !wl.fifo {
		t.Fatal("Reach must select the FIFO fast path")
	}
	for i := 0; i < 5; i++ {
		wl.push(graph.VertexID(10+i), 1)
	}
	for i := 0; i < 5; i++ {
		v, s := wl.pop()
		if v != graph.VertexID(10+i) || s != 1 {
			t.Fatalf("FIFO pop %d = %d,%v", i, v, s)
		}
	}
	if wl.len() != 0 {
		t.Fatalf("len = %d after drain", wl.len())
	}
	// Drained ring must have rewound so the backing array is reused.
	wl.push(1, 1)
	if wl.head != 0 || len(wl.items) != 1 {
		t.Fatalf("ring did not rewind: head=%d len=%d", wl.head, len(wl.items))
	}
	wl.arm(algo.PPSP{}, 16)
	if wl.fifo {
		t.Fatal("PPSP must use the heap")
	}
}

// Steady-state worklist cycles must not allocate once the backing array has
// grown to the working-set size — the zero-allocation guarantee DESIGN.md §9
// claims for both the heap and the FIFO fast path.
func TestWorklistZeroAllocSteadyState(t *testing.T) {
	for _, a := range []algo.Algorithm{algo.PPSP{}, algo.Reach{}} {
		var wl worklist
		wl.arm(a, 64)
		cycle := func() {
			for j := 0; j < 64; j++ {
				wl.push(graph.VertexID(j), a.Source())
			}
			for j := 0; j < 64; j += 2 {
				wl.push(graph.VertexID(j), a.Source()) // a re-push re-scores in place
			}
			for wl.len() > 0 {
				wl.pop()
			}
		}
		cycle() // warm up the backing array
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Fatalf("%s: worklist cycle allocates %v/run", a.Name(), allocs)
		}
	}
}

// The steady-state relax path (counter increments included) must be
// allocation-free: a non-improving relax is a compare plus one atomic add,
// and an improving relax adds only a worklist push into a warmed array.
func TestRelaxPathZeroAllocSteadyState(t *testing.T) {
	g := lineGraph(1, 1)
	g.AddEdge(0, 2, 9) // permanent non-improving alternative into 2
	st := newState(g, algo.PPSP{}, Query{S: 0, D: 2}, stats.NewCounters())
	st.fullCompute()
	if allocs := testing.AllocsPerRun(200, func() {
		st.relaxEdge(0, 2, 9) // useless: classification-only path
	}); allocs != 0 {
		t.Fatalf("non-improving relax allocates %v/run", allocs)
	}
	// Improving + re-worsening cycle: push, drain, push back.
	if allocs := testing.AllocsPerRun(200, func() {
		st.val[2] = 99 // pretend 2 worsened
		st.relaxEdge(1, 2, 1)
		st.drain(nil)
	}); allocs != 0 {
		t.Fatalf("improving relax+drain allocates %v/run", allocs)
	}
	if st.val[2] != 2 {
		t.Fatalf("val[2] = %v after drain, want 2", st.val[2])
	}
}
