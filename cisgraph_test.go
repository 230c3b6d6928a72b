package cisgraph_test

import (
	"path/filepath"
	"testing"

	"cisgraph"
)

// TestFacadeQuickstart runs the doc-comment quick start end-to-end through
// the public API only.
func TestFacadeQuickstart(t *testing.T) {
	el := cisgraph.RMAT("demo", 8, 2048, cisgraph.DefaultRMAT, 64, 42)
	w, err := cisgraph.NewWorkload(el, cisgraph.DefaultStreamConfig(len(el.Arcs), 42))
	if err != nil {
		t.Fatal(err)
	}
	p := w.QueryPairs(1)[0]
	q := cisgraph.Query{S: p[0], D: p[1]}
	eng := cisgraph.NewCISO()
	eng.Reset(w.Initial(), cisgraph.PPSP(), q)
	res := eng.ApplyBatch(w.NextBatch())
	if res.Response <= 0 || res.Converged < res.Response {
		t.Fatalf("bad timings: %+v", res)
	}
	ref := cisgraph.NewColdStart()
	w2, _ := cisgraph.NewWorkload(el, cisgraph.DefaultStreamConfig(len(el.Arcs), 42))
	ref.Reset(w2.Initial(), cisgraph.PPSP(), q)
	if got := ref.ApplyBatch(w2.NextBatch()); got.Answer != res.Answer {
		t.Fatalf("facade CISO=%v CS=%v", res.Answer, got.Answer)
	}
}

// TestFacadeEngines constructs every public engine through the facade.
func TestFacadeEngines(t *testing.T) {
	engines := []cisgraph.Engine{
		cisgraph.NewColdStart(),
		cisgraph.NewIncremental(),
		cisgraph.NewSGraph(4),
		cisgraph.NewCISO(),
		cisgraph.NewCISO(cisgraph.WithNoDrop(), cisgraph.WithFIFO()),
		cisgraph.NewAccelerator(cisgraph.PaperHWConfig()),
	}
	g := cisgraph.NewDynamic(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3)
	for _, e := range engines {
		e.Reset(g.Clone(), cisgraph.PPSP(), cisgraph.Query{S: 0, D: 2})
		if e.Answer() != 5 {
			t.Fatalf("%s: answer %v, want 5", e.Name(), e.Answer())
		}
	}
}

// TestFacadeAlgorithms checks Table II is fully reachable publicly.
func TestFacadeAlgorithms(t *testing.T) {
	if len(cisgraph.Algorithms()) != 5 {
		t.Fatal("expected five algorithms")
	}
	a, err := cisgraph.AlgorithmByName("PPWP")
	if err != nil || a.Name() != "PPWP" {
		t.Fatalf("ByName: %v %v", a, err)
	}
	if cisgraph.ClassifyAddition(cisgraph.PPSP(), 1, 10, 2) != cisgraph.ClassValuable {
		t.Fatal("public Algorithm 1 broken")
	}
}

// TestFacadeGraphIO exercises dataset persistence through the facade.
func TestFacadeGraphIO(t *testing.T) {
	el := cisgraph.Grid("g", 3, 3, 4, 1)
	path := t.TempDir() + "/g.bel"
	if err := cisgraph.SaveEdgeList(path, el); err != nil {
		t.Fatal(err)
	}
	back, err := cisgraph.LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != el.N || len(back.Arcs) != len(el.Arcs) {
		t.Fatal("round trip lost data")
	}
	if cisgraph.BuildCSR(cisgraph.FromEdgeList(back)).NumEdges() != len(el.Arcs) {
		t.Fatal("CSR lost edges")
	}
}

// TestFacadeStandIns checks the Table III stand-in builders.
func TestFacadeStandIns(t *testing.T) {
	for _, s := range []cisgraph.StandIn{cisgraph.StandInOR, cisgraph.StandInLJ, cisgraph.StandInUK} {
		el := s.MustBuild(8, 1)
		if el.N == 0 || len(el.Arcs) == 0 {
			t.Fatalf("%s: empty stand-in", s)
		}
	}
}

// TestFacadeCheckpointAndMultiQuery exercises the extension surface through
// the public API only: the multi-query engine and the PnP baseline.
func TestFacadeCheckpointAndMultiQuery(t *testing.T) {
	g := cisgraph.NewDynamic(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)

	fleet := cisgraph.NewMultiCISO(cisgraph.WithWorkers(2))
	fleet.Reset(g.Clone(), cisgraph.PPSP(), []cisgraph.Query{{S: 0, D: 3}, {S: 1, D: 3}})
	ans := fleet.Answers()
	if ans[0] != 6 || ans[1] != 5 {
		t.Fatalf("fleet answers %v", ans)
	}

	pnp := cisgraph.NewPnP()
	pnp.Reset(g.Clone(), cisgraph.PPSP(), cisgraph.Query{S: 0, D: 3})
	if pnp.Answer() != 6 {
		t.Fatalf("PnP answer %v", pnp.Answer())
	}
}

// TestFacadeEnergyAndReport exercises the accelerator extras publicly.
func TestFacadeEnergyAndReport(t *testing.T) {
	g := cisgraph.NewDynamic(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	hw := cisgraph.NewAccelerator(cisgraph.PaperHWConfig())
	hw.Reset(g, cisgraph.Reach(), cisgraph.Query{S: 0, D: 2})
	if e := hw.Energy(cisgraph.DefaultEnergy()); e.Total() <= 0 {
		t.Fatalf("energy %v", e)
	}
	if r := hw.Report(); r.Cycles <= 0 {
		t.Fatalf("report %+v", r)
	}
}

// TestFacadeResilience exercises the resilience surface through the public
// API: a fault-injected stream sanitized before the engine sees it answers
// like the clean stream, the WAL it was logged to replays to the same
// answer, and the policy parser and strict validator work.
func TestFacadeResilience(t *testing.T) {
	el := cisgraph.Uniform("facade-res", 64, 300, 8, 5)
	w, err := cisgraph.NewWorkload(el, cisgraph.StreamConfig{
		LoadFraction: 0.5, AddsPerBatch: 10, DelsPerBatch: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := cisgraph.Query{S: 0, D: 63}
	walPath := filepath.Join(t.TempDir(), "s.wal")
	wal, err := cisgraph.CreateSegmentedWAL(walPath, cisgraph.SegWALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inj := cisgraph.NewFaultInjector(cisgraph.FaultConfig{Seed: 3, CorruptP: 0.5})
	san := cisgraph.NewSanitizer(cisgraph.SanitizeDrop, nil)
	topo := w.Initial()
	eng, ref := cisgraph.NewCISO(), cisgraph.NewCISO()
	eng.Reset(topo.Clone(), cisgraph.PPSP(), q)
	ref.Reset(topo.Clone(), cisgraph.PPSP(), q)
	for i := 0; i < 4; i++ {
		b := w.NextBatch()
		clean, _, err := san.Sanitize(topo, inj.Mangle(el.N, b))
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if _, err := wal.AppendRecords([]cisgraph.WALRecord{{Batch: clean}}); err != nil {
			t.Fatal(err)
		}
		topo.Apply(clean)
		if got, want := eng.ApplyBatch(clean).Answer, ref.ApplyBatch(b).Answer; got != want {
			t.Fatalf("batch %d: sanitized answer %v, clean %v", i, got, want)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := cisgraph.ReplaySegmented(walPath)
	if err != nil || len(recs) != 4 {
		t.Fatalf("replay: %d records, err %v", len(recs), err)
	}
	replayed := cisgraph.NewCISO()
	replayed.Reset(w.Initial(), cisgraph.PPSP(), q)
	for _, rec := range recs {
		replayed.ApplyBatch(rec.Batch)
	}
	if replayed.Answer() != eng.Answer() {
		t.Fatalf("replayed answer %v, live %v", replayed.Answer(), eng.Answer())
	}

	bad := []cisgraph.Update{cisgraph.AddEdgeUpdate(1, 1, 1)}
	if err := cisgraph.ValidateBatch(w.Initial(), bad); err == nil {
		t.Fatal("self-loop accepted by ValidateBatch")
	}
}
