package bench

import (
	"math/rand"
	"testing"
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
)

// toggleChurn is a steady-state update stream over a fixed arc set: every
// update deletes a loaded arc or adds a withheld one, and the arc changes
// pool, so the stream never dries up, the loaded share stays near one half,
// and every update is valid against the topology its predecessors left (no
// duplicate adds, no absent deletes). Deterministic in seed.
type toggleChurn struct {
	rng   *rand.Rand
	pools [2][]graph.Arc // [0] withheld, [1] loaded
}

func newToggleChurn(el *graph.EdgeList, seed int64) *toggleChurn {
	c := &toggleChurn{rng: rand.New(rand.NewSource(seed))}
	for i, idx := range c.rng.Perm(len(el.Arcs)) {
		c.pools[i%2] = append(c.pools[i%2], el.Arcs[idx])
	}
	return c
}

// initial returns the loaded half as a topology. Call before the first fill.
func (c *toggleChurn) initial(n int) *graph.Dynamic {
	return graph.FromEdgeList(&graph.EdgeList{N: n, Arcs: c.pools[1]})
}

// fill appends n updates to ups. The smaller pool never gives, so the split
// stays within one arc of even.
func (c *toggleChurn) fill(ups []graph.Update, n int) []graph.Update {
	for ; n > 0; n-- {
		from := c.rng.Intn(2)
		if len(c.pools[from]) < len(c.pools[1-from]) {
			from = 1 - from
		}
		src := c.pools[from]
		i := c.rng.Intn(len(src))
		a := src[i]
		src[i] = src[len(src)-1]
		c.pools[from] = src[:len(src)-1]
		c.pools[1-from] = append(c.pools[1-from], a)
		if from == 1 {
			ups = append(ups, graph.Del(a.From, a.To, a.W))
		} else {
			ups = append(ups, graph.Add(a.From, a.To, a.W))
		}
	}
	return ups
}

// fastPathGroup is the group size FastPathUnsafeMix feeds ApplyUpdatesDelta:
// what the server's commit loop gathers under sustained binary ingest.
const fastPathGroup = 512

// FastPathUnsafeMix measures the engine's per-update fast path
// (MultiCISO.ApplyUpdatesDelta, no server around it) on the stream shape that
// exposes routing cost: uniform add/delete churn over a scale-12 RMAT graph in
// groups of 512, with q queries spread over `sources` hub sources whose
// shortest-path trees cover the giant component — so roughly a tenth of the
// updates (tree-edge deletions, improving additions) are unsafe and the
// group is cut into many short unsafe runs between safe stretches. The
// all-safe streams of ServerIngestBinary/PerUpdateLatency cannot see a
// routing loop that is superlinear in the number of unsafe runs; this row
// can. Metrics:
//
//   - ns/upd — engine time per update (stream generation excluded);
//   - scans/upd — classification scans per update (update_classify_scans):
//     the forward pass judges every update once, plus once more when it is
//     the safe update that closes an unsafe run, so this stays below 2;
//   - unsafe-frac — share of updates routed through the batch machinery.
func FastPathUnsafeMix(q, sources int) func(b *testing.B) {
	return func(b *testing.B) {
		const scale = 12
		n := 1 << scale
		churn := newToggleChurn(graph.RMAT("fpmix", scale, 16*n, graph.DefaultRMAT, 64, 42), 42)
		g := churn.initial(n)
		rng := rand.New(rand.NewSource(42))
		qs := make([]core.Query, 0, q)
		for _, s := range g.TopDegreeVertices(sources) {
			var reach []graph.VertexID
			for v, ok := range graph.ReachableFrom(g, s) {
				if ok && graph.VertexID(v) != s {
					reach = append(reach, graph.VertexID(v))
				}
			}
			for i := 0; i < q/sources; i++ {
				qs = append(qs, core.Query{S: s, D: reach[rng.Intn(len(reach))]})
			}
		}
		m := core.NewMultiCISO()
		m.Reset(g, algo.PPSP{}, qs)
		ups := make([]graph.Update, 0, fastPathGroup)
		for i := 0; i < 8; i++ { // reach the churn's steady state before timing
			ups = churn.fill(ups[:0], fastPathGroup)
			if _, _, err := m.ApplyUpdatesDelta(ups); err != nil {
				b.Fatal(err)
			}
		}
		before := m.Counters().Snapshot()
		var engine time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ups = churn.fill(ups[:0], fastPathGroup)
			t0 := time.Now()
			_, _, err := m.ApplyUpdatesDelta(ups)
			engine += time.Since(t0)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		after := m.Counters().Snapshot()
		d := func(name string) float64 { return float64(after[name] - before[name]) }
		upd := float64(b.N * fastPathGroup)
		b.ReportMetric(float64(engine.Nanoseconds())/upd, "ns/upd")
		b.ReportMetric(d(stats.CntUpdateClassifyScans)/upd, "scans/upd")
		b.ReportMetric(d(stats.CntUpdateUnsafe)/upd, "unsafe-frac")
	}
}
