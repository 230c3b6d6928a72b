package core

import (
	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
)

// Benchmark hooks: closures over the unexported hot-path internals (state,
// worklist) so the benchmark-regression harness (internal/bench, cmd/bench)
// can time them without exporting the internals themselves. Each hook
// returns a func(n int) that performs n operations; the caller wraps it in a
// testing.B loop.

// RelaxPathBenchmark returns a closure performing n steady-state edge
// relaxations against a converged state — the per-⊕ cost every engine pays:
// one counter increment, one Propagate, one Better. The relaxed edge never
// improves its head, so the state (and the measured cost) is identical
// every iteration.
func RelaxPathBenchmark() func(n int) {
	g := graph.NewDynamic(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 9)
	st := newState(g, algo.PPSP{}, Query{S: 0, D: 2}, stats.NewCounters())
	st.fullCompute()
	return func(n int) {
		for i := 0; i < n; i++ {
			st.relaxEdge(0, 2, 9)
		}
	}
}

// PropagationBenchmark returns a closure performing n improving
// relax-and-drain cycles on a short chain: the full push/pop/update path
// including worklist traffic and dependency-tree writes.
func PropagationBenchmark() func(n int) {
	g := graph.NewDynamic(8)
	for v := 0; v < 7; v++ {
		g.AddEdge(graph.VertexID(v), graph.VertexID(v+1), 1)
	}
	st := newState(g, algo.PPSP{}, Query{S: 0, D: 7}, stats.NewCounters())
	st.fullCompute()
	return func(n int) {
		for i := 0; i < n; i++ {
			for v := 1; v < 8; v++ {
				st.val[v] = 99 // worsen the whole suffix…
			}
			st.relaxEdge(0, 1, 1) // …and re-converge it
			st.drain()
		}
	}
}

// WorklistBenchmark returns a closure running n push-all/pop-all cycles of
// the given size over a's worklist (heap order for ranked algebras, FIFO
// ring for plateau ones). Scores are spread so heap sifting does real work.
func WorklistBenchmark(a algo.Algorithm, size int) func(n int) {
	var wl worklist
	wl.arm(a)
	return func(n int) {
		for i := 0; i < n; i++ {
			wl.reset()
			for j := 0; j < size; j++ {
				wl.push(graph.VertexID(j), float64(j*7%size))
			}
			for wl.len() > 0 {
				wl.pop()
			}
		}
	}
}
