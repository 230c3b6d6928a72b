// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (§IV), plus the DESIGN.md ablations and per-engine
// micro-benchmarks. Each experiment bench runs its exp runner end-to-end
// and reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation at benchmark scale; cmd/experiments
// prints the full tables at larger scale.
package cisgraph_test

import (
	"runtime"
	"testing"

	"cisgraph"
	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/exp"
	"cisgraph/internal/graph"
	"cisgraph/internal/stream"
)

// benchOptions keeps the experiment benches fast enough for -bench=. runs
// while preserving every workload property (degree, skew, batch ratios).
func benchOptions() exp.Options {
	return exp.Options{Scale: 9, Seed: 42, Pairs: 2, Batches: 1}
}

// BenchmarkFig2_UpdateBreakdown regenerates Figure 2 (useless updates,
// redundant computations, wasteful time on OR/PPSP).
func BenchmarkFig2_UpdateBreakdown(b *testing.B) {
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

// benchTable4 regenerates one algorithm's rows of Table IV.
func benchTable4(b *testing.B, a cisgraph.Algorithm) {
	b.Helper()
	o := benchOptions()
	o.Algorithms = []cisgraph.Algorithm{a}
	for i := 0; i < b.N; i++ {
		r, err := exp.RunTable4(o)
		if err != nil {
			b.Fatal(err)
		}
		g := r.GMean[a.Name()]
		b.ReportMetric(g["SGraph"], "sgraph-gmean-x")
		b.ReportMetric(g["CISGraph-O"], "ciso-gmean-x")
		b.ReportMetric(g["CISGraph"], "accel-gmean-x")
	}
}

// BenchmarkTable4_* regenerate Table IV row groups (speedups over CS).
func BenchmarkTable4_PPSP(b *testing.B)    { benchTable4(b, cisgraph.PPSP()) }
func BenchmarkTable4_PPWP(b *testing.B)    { benchTable4(b, cisgraph.PPWP()) }
func BenchmarkTable4_PPNP(b *testing.B)    { benchTable4(b, cisgraph.PPNP()) }
func BenchmarkTable4_Viterbi(b *testing.B) { benchTable4(b, cisgraph.Viterbi()) }
func BenchmarkTable4_Reach(b *testing.B)   { benchTable4(b, cisgraph.Reach()) }

// BenchmarkFig5a_Computations regenerates Figure 5(a): ⊕ operations of
// CISGraph vs CS, normalised.
func BenchmarkFig5a_Computations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunFig5a(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgReductionPct, "compute-reduction-%")
	}
}

// BenchmarkFig5b_Activations regenerates Figure 5(b): activation ratio of
// additions over pre-response deletions.
func BenchmarkFig5b_Activations(b *testing.B) {
	o := benchOptions()
	o.Datasets = []graph.StandIn{graph.StandInOR}
	for i := 0; i < b.N; i++ {
		r, err := exp.RunFig5b(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgRatio, "add-del-activation-x")
	}
}

// BenchmarkAblation_Scheduling regenerates ablation A1 (drop + priority
// scheduling isolated in CISGraph-O).
func BenchmarkAblation_Scheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunAblationScheduling(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		base := float64(r.Response["CISO"])
		b.ReportMetric(float64(r.Response["CISO-fifo"])/base, "fifo-slowdown-x")
		b.ReportMetric(float64(r.Response["CISO-nodrop"])/base, "nodrop-slowdown-x")
	}
}

// BenchmarkAblation_Pipelines regenerates ablation A2 (pipeline sweep).
func BenchmarkAblation_Pipelines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunAblationPipelines(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		first := float64(r.Points[0].Cycles)
		last := float64(r.Points[len(r.Points)-1].Cycles)
		b.ReportMetric(first/last, "8pipe-speedup-x")
	}
}

// BenchmarkAblation_SPMSize regenerates ablation A3 (scratchpad sweep).
func BenchmarkAblation_SPMSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunAblationSPM(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		small := float64(r.Points[0].Cycles)
		big := float64(r.Points[len(r.Points)-1].Cycles)
		b.ReportMetric(small/big, "spm-speedup-x")
	}
}

// ---- per-engine micro-benchmarks (batch-application throughput) ----

func benchEngineBatch(b *testing.B, mk func() core.Engine) {
	b.Helper()
	ds := graph.RMAT("bench", 10, 16*(1<<10), graph.DefaultRMAT, 64, 42)
	w, err := stream.New(ds, stream.Config{
		LoadFraction: 0.5, AddsPerBatch: 100, DelsPerBatch: 100, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := w.QueryPairs(1)[0]
	q := core.Query{S: p[0], D: p[1]}
	batches := w.Batches(8)
	e := mk()
	e.Reset(w.Initial(), algo.PPSP{}, q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ApplyBatch(batches[i%len(batches)])
	}
}

func BenchmarkEngine_ColdStart_Batch(b *testing.B) {
	benchEngineBatch(b, func() core.Engine { return core.NewColdStart() })
}

func BenchmarkEngine_Incremental_Batch(b *testing.B) {
	benchEngineBatch(b, func() core.Engine { return core.NewIncremental() })
}

func BenchmarkEngine_SGraph_Batch(b *testing.B) {
	benchEngineBatch(b, func() core.Engine { return core.NewSGraph(core.DefaultHubCount) })
}

func BenchmarkEngine_CISO_Batch(b *testing.B) {
	benchEngineBatch(b, func() core.Engine { return core.NewCISO() })
}

func BenchmarkEngine_Accel_Batch(b *testing.B) {
	benchEngineBatch(b, func() core.Engine {
		cfg := cisgraph.PaperHWConfig()
		cfg.SPM.SizeBytes = 256 << 10
		return cisgraph.NewAccelerator(cfg)
	})
}

// BenchmarkClassifier measures the raw Algorithm 1 check.
func BenchmarkClassifier(b *testing.B) {
	a := algo.PPSP{}
	for i := 0; i < b.N; i++ {
		_ = core.ClassifyAddition(a, float64(i%100), float64(i%37), 3)
	}
}

// BenchmarkFullCompute measures a from-scratch convergence (the unit of
// work the CS baseline repeats per batch).
func BenchmarkFullCompute(b *testing.B) {
	ds := graph.RMAT("fc", 11, 16*(1<<11), graph.DefaultRMAT, 64, 42)
	g := graph.FromEdgeList(ds)
	q := core.Query{S: 0, D: graph.VertexID(ds.N - 1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := core.NewColdStart()
		e.Reset(g.Clone(), algo.PPSP{}, q)
	}
}

// BenchmarkMultiQuery_Shared measures MultiCISO (one shared topology) vs
// independent per-query engines on the same 8-query stream.
func BenchmarkMultiQuery_Shared(b *testing.B) {
	ds := graph.RMAT("mq", 10, 16*(1<<10), graph.DefaultRMAT, 64, 9)
	w, _ := stream.New(ds, stream.Config{
		LoadFraction: 0.5, AddsPerBatch: 100, DelsPerBatch: 100, Seed: 9,
	})
	var qs []core.Query
	for _, p := range w.QueryPairs(8) {
		qs = append(qs, core.Query{S: p[0], D: p[1]})
	}
	batches := w.Batches(4)
	m := core.NewMultiCISO()
	m.Reset(w.Initial(), algo.PPSP{}, qs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ApplyBatchDelta(batches[i%len(batches)])
	}
}

// BenchmarkMultiQuery_Independent is the per-query-engine baseline for
// BenchmarkMultiQuery_Shared.
func BenchmarkMultiQuery_Independent(b *testing.B) {
	ds := graph.RMAT("mq", 10, 16*(1<<10), graph.DefaultRMAT, 64, 9)
	w, _ := stream.New(ds, stream.Config{
		LoadFraction: 0.5, AddsPerBatch: 100, DelsPerBatch: 100, Seed: 9,
	})
	pairs := w.QueryPairs(8)
	batches := w.Batches(4)
	init := w.Initial()
	engines := make([]core.Engine, len(pairs))
	for i, p := range pairs {
		engines[i] = core.NewCISO()
		engines[i].Reset(init.Clone(), algo.PPSP{}, core.Query{S: p[0], D: p[1]})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range engines {
			e.ApplyBatch(batches[i%len(batches)])
		}
	}
}

// BenchmarkMultiQuery_Parallel measures the goroutine-parallel variant.
func BenchmarkMultiQuery_Parallel(b *testing.B) {
	ds := graph.RMAT("mq", 10, 16*(1<<10), graph.DefaultRMAT, 64, 9)
	w, _ := stream.New(ds, stream.Config{
		LoadFraction: 0.5, AddsPerBatch: 100, DelsPerBatch: 100, Seed: 9,
	})
	var qs []core.Query
	for _, p := range w.QueryPairs(8) {
		qs = append(qs, core.Query{S: p[0], D: p[1]})
	}
	batches := w.Batches(4)
	m := core.NewMultiCISO(core.WithWorkers(runtime.GOMAXPROCS(0)))
	m.Reset(w.Initial(), algo.PPSP{}, qs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ApplyBatchDelta(batches[i%len(batches)])
	}
}

// BenchmarkEnergy regenerates the E6 energy table (extension experiment).
func BenchmarkEnergy(b *testing.B) {
	o := benchOptions()
	o.Algorithms = []cisgraph.Algorithm{cisgraph.PPSP()}
	for i := 0; i < b.N; i++ {
		r, err := exp.RunEnergy(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].PerUpdateNJ, "nJ/update")
	}
}

// BenchmarkSensitivity_BatchSize regenerates the S1 sweep.
func BenchmarkSensitivity_BatchSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunSensitivityBatchSize(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		first, last := r.Points[0].Speedup, r.Points[len(r.Points)-1].Speedup
		b.ReportMetric(first/last, "speedup-decay-x")
	}
}

// BenchmarkSensitivity_Adversarial regenerates the S2 sweep.
func BenchmarkSensitivity_Adversarial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunSensitivityAdversarial(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Points[len(r.Points)-1].Speedup, "targeted-speedup-x")
	}
}
