// Package bench defines the benchmark-regression suite: the named
// micro-benchmarks guarding the hot-path substrate (DESIGN.md §9) plus the
// end-to-end experiment benches. The same testing.B bodies back three
// consumers — `go test -bench` wrappers at the repo root, the cmd/bench
// runner that emits machine-readable BENCH_<date>.json baselines, and the
// CI bench smoke job — so a regression shows up identically in all three.
package bench

import (
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/exp"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
	"cisgraph/internal/stream"
)

// Case is one suite entry.
type Case struct {
	// Name is the benchmark name as it appears in BENCH_*.json (and, with a
	// "Benchmark" prefix, under `go test -bench`).
	Name string
	// Experiment marks the heavier end-to-end experiment benches, skipped by
	// `cmd/bench -quick` and the CI smoke job.
	Experiment bool
	// Bench is the benchmark body.
	Bench func(b *testing.B)
}

// Suite returns every case in reporting order: micro-benchmarks first,
// experiment benches last.
func Suite() []Case {
	return []Case{
		{Name: "RelaxPath", Bench: RelaxPath},
		{Name: "Propagation", Bench: Propagation},
		{Name: "WorklistHeap", Bench: WorklistHeap},
		{Name: "WorklistFIFO", Bench: WorklistFIFO},
		{Name: "CounterHandleInc", Bench: CounterHandleInc},
		{Name: "CounterStringInc", Bench: CounterStringInc},
		{Name: "DynamicAddRemove", Bench: DynamicAddRemove},
		{Name: "DynamicHasEdge", Bench: DynamicHasEdge},
		{Name: "DynamicClone", Bench: DynamicClone},
		{Name: "TopDegree", Bench: TopDegree},
		{Name: "ApplyBatch", Bench: ApplyBatch},
		{Name: "ServerIngest", Bench: ServerIngest},
		{Name: "ServerIngestBinary", Bench: ServerIngestBinary},
		{Name: "PerUpdateLatency", Bench: PerUpdateLatency},
		{Name: "BatchRepair_Q4_S4", Bench: BatchRepair(4, 4)},
		{Name: "BatchRepair_Q128_S16", Bench: BatchRepair(128, 16)},
		{Name: "BatchRepair_Q64_S64", Bench: BatchRepair(64, 64)},
		{Name: "ColdStart_S64", Bench: ColdStart(64)},
		{Name: "GraphBuild", Bench: GraphBuild},
		{Name: "AddQuery_NewSource", Bench: AddQueryNewSource},
		{Name: "Restore_S64", Bench: Restore(64, true, 1<<14)},
		{Name: "Restore_S4", Bench: Restore(4, false, 1<<16)},
		{Name: "ServerAnswers", Bench: ServerAnswers},
		// The _Dense suffix keeps the names of earlier BENCH_*.json rows.
		{Name: "MultiQueryScale_Q16_Dense", Bench: MultiQueryScale(16)},
		{Name: "MultiQueryScale_Q256_Dense", Experiment: true, Bench: MultiQueryScale(256)},
		{Name: "MultiQueryScale_Q4096_Dense", Experiment: true, Bench: MultiQueryScale(4096)},
		{Name: "Fig2_UpdateBreakdown", Experiment: true, Bench: Fig2},
		{Name: "Table4_PPSP", Experiment: true, Bench: Table4PPSP},
	}
}

// RelaxPath measures one steady-state, non-improving edge relaxation — the
// per-⊕ unit cost (counter increment + Propagate + Better) every engine
// pays. Must stay allocation-free.
func RelaxPath(b *testing.B) {
	run := core.RelaxPathBenchmark()
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// Propagation measures an improving relax-and-drain cycle over a short
// chain: worklist pushes/pops plus dependency-tree writes. Must stay
// allocation-free at steady state.
func Propagation(b *testing.B) {
	run := core.PropagationBenchmark()
	run(1) // warm the worklist backing array
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

const worklistSize = 64

// WorklistHeap measures a 64-item push-all/pop-all cycle of the monomorphic
// binary heap (ranked algebra).
func WorklistHeap(b *testing.B) {
	run := core.WorklistBenchmark(algo.PPSP{}, worklistSize)
	run(1)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// WorklistFIFO measures the same cycle on the plateau (FIFO ring) fast path.
func WorklistFIFO(b *testing.B) {
	run := core.WorklistBenchmark(algo.Reach{}, worklistSize)
	run(1)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// CounterHandleInc measures a pre-resolved handle increment — the hot-path
// counter cost after DESIGN.md §9.
func CounterHandleInc(b *testing.B) {
	c := stats.NewCounters()
	h := c.Handle(stats.CntRelax)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Inc()
	}
}

// CounterStringInc measures the string-keyed facade (lock + map probe per
// increment) for comparison against CounterHandleInc.
func CounterStringInc(b *testing.B) {
	c := stats.NewCounters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc(stats.CntRelax)
	}
}

// DynamicAddRemove measures an AddEdge/RemoveEdge pair against a vertex of
// degree ~64 — O(1) with the edge-position index, formerly an adjacency
// scan.
func DynamicAddRemove(b *testing.B) {
	g := seededGraph(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddEdge(0, 999, 1)
		g.RemoveEdge(0, 999)
	}
}

// DynamicHasEdge measures a hit + miss probe pair against a degree-64
// vertex.
func DynamicHasEdge(b *testing.B) {
	g := seededGraph(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(0, 33)  // hit
		g.HasEdge(0, 999) // miss
	}
}

// DynamicClone measures a full topology clone (two arena allocations +
// index copy) of a scale-10 RMAT graph — the per-query cost of independent
// engines and of MultiCISO's alternative it avoids.
func DynamicClone(b *testing.B) {
	g := graph.FromEdgeList(graph.RMAT("clone", 10, 16*(1<<10), graph.DefaultRMAT, 64, 42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Clone()
	}
}

// TopDegree measures hub selection (single O(n log k) pass) on a scale-12
// RMAT graph.
func TopDegree(b *testing.B) {
	g := graph.FromEdgeList(graph.RMAT("topk", 12, 16*(1<<12), graph.DefaultRMAT, 64, 42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.TopDegreeVertices(16)
	}
}

// ApplyBatch measures CISO's end-to-end batch application (normalization,
// topology, classification, scheduling, recovery) on a scale-10 RMAT
// stream — the composite the micro-benchmarks above decompose.
func ApplyBatch(b *testing.B) {
	ds := graph.RMAT("bench", 10, 16*(1<<10), graph.DefaultRMAT, 64, 42)
	w, err := stream.New(ds, stream.Config{
		LoadFraction: 0.5, AddsPerBatch: 100, DelsPerBatch: 100, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := w.QueryPairs(1)[0]
	batches := w.Batches(8)
	e := core.NewCISO()
	e.Reset(w.Initial(), algo.PPSP{}, core.Query{S: p[0], D: p[1]})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ApplyBatch(batches[i%len(batches)])
	}
}

// benchOptions mirrors the root bench harness: experiment runners at
// reduced scale with every workload property preserved.
func benchOptions() exp.Options {
	return exp.Options{Scale: 9, Seed: 42, Pairs: 2, Batches: 1}
}

// Fig2 regenerates Figure 2 (update breakdown) end to end.
func Fig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunFig2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgUseless, "useless-upd-%")
		b.ReportMetric(r.AvgRedundant, "redundant-compute-%")
		b.ReportMetric(r.AvgWasteful, "wasted-time-%")
	}
}

// Table4PPSP regenerates the PPSP rows of Table IV end to end.
func Table4PPSP(b *testing.B) {
	o := benchOptions()
	o.Algorithms = []algo.Algorithm{algo.PPSP{}}
	for i := 0; i < b.N; i++ {
		r, err := exp.RunTable4(o)
		if err != nil {
			b.Fatal(err)
		}
		g := r.GMean[algo.PPSP{}.Name()]
		b.ReportMetric(g["SGraph"], "sgraph-gmean-x")
		b.ReportMetric(g["CISGraph-O"], "ciso-gmean-x")
		b.ReportMetric(g["CISGraph"], "accel-gmean-x")
	}
}

// seededGraph builds a small graph whose vertex 0 has the given out-degree.
func seededGraph(degree int) *graph.Dynamic {
	g := graph.NewDynamic(1024)
	for v := 1; v <= degree; v++ {
		g.AddEdge(0, graph.VertexID(v), float64(v))
	}
	return g
}
