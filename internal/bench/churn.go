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

// churnGroup is the group size the churn rows feed ApplyBatchDelta: one
// 512-update JSON body. The ingest queue has no fixed group size — a group is
// whatever is queued, up to one maximal CGBIN/2 frame — and engine
// ns/update is flat from groups of 512 to 4,096, so one size stands for
// every group.
const churnGroup = 512

// churnEngine arms a MultiCISO with q PPSP queries spread over the `sources`
// highest-degree vertices of the loaded half of a scale-12 RMAT graph, and
// returns it with the toggle stream that churns that graph.
func churnEngine(q, sources int) (*core.MultiCISO, *toggleChurn) {
	churn, g, qs := churnQueries(q, sources)
	m := core.NewMultiCISO()
	m.Reset(g, algo.PPSP{}, qs)
	return m, churn
}

// churnScale is the RMAT scale of the churn rows' graph.
const churnScale = 12

// churnQueries builds the churn rows' inputs: the toggle stream over a
// scale-12 RMAT graph, its loaded half as a topology, and q queries spread
// over that topology's `sources` highest-degree vertices, each to a vertex
// its source reaches.
func churnQueries(q, sources int) (*toggleChurn, *graph.Dynamic, []core.Query) {
	n := 1 << churnScale
	churn := newToggleChurn(graph.RMAT("fpmix", churnScale, 16*n, graph.DefaultRMAT, 64, 42), 42)
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
	return churn, g, qs
}

// ColdStart measures a MultiCISO Reset over the churn rows' graph with one
// query per source for `sources` hub sources: one cold start (a full drain
// from the source) per source, serially. engine-batch's daemon pays it at
// every start-up and restore (Q64_S64). Metric: ms/source — Reset time over
// the source count.
func ColdStart(sources int) func(b *testing.B) {
	return func(b *testing.B) {
		_, g, qs := churnQueries(sources, sources)
		m := core.NewMultiCISO()
		m.Reset(g, algo.PPSP{}, qs) // untimed: warm the allocator
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Reset(g, algo.PPSP{}, qs)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N*sources), "ms/source")
	}
}

// addQueryCycle is how many distinct new sources AddQueryNewSource registers
// before an untimed Reset empties the engine again.
const addQueryCycle = 256

// AddQueryNewSource measures MultiCISO.AddQuery of a query whose source has
// no group yet — POST /v1/query's cold start, computed under the engine
// lock on a worker slot's scratch — over the churn rows' loaded half
// (scale 12). Each
// call opens a new source, cycling through the graph's addQueryCycle
// highest-degree vertices. Metrics: B/op and allocs/op per call, and
// ms/source.
func AddQueryNewSource(b *testing.B) {
	churn := newToggleChurn(graph.RMAT("fpmix", churnScale, 16<<churnScale, graph.DefaultRMAT, 64, 42), 42)
	g := churn.initial(1 << churnScale)
	sources := g.TopDegreeVertices(addQueryCycle)
	m := core.NewMultiCISO()
	m.Reset(g, algo.PPSP{}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(sources)
		if k == 0 && i > 0 {
			b.StopTimer()
			m.Reset(g, algo.PPSP{}, nil)
			b.StartTimer()
		}
		m.AddQuery(core.Query{S: sources[k], D: sources[(k+1)%len(sources)]})
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/source")
}

// builtGraph keeps GraphBuild's result alive, so the build is not elided.
var builtGraph *graph.Dynamic

// GraphBuild measures graph.FromEdgeList over the churn rows' loaded half
// (scale 12, ~32 Ki arcs): the topology build a daemon pays on start-up
// from its snapshot and, through the same path, on restore from a
// checkpoint.
func GraphBuild(b *testing.B) {
	churn := newToggleChurn(graph.RMAT("fpmix", churnScale, 16<<churnScale, graph.DefaultRMAT, 64, 42), 42)
	el := &graph.EdgeList{N: 1 << churnScale, Arcs: churn.pools[1]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builtGraph = graph.FromEdgeList(el)
	}
}

// BatchRepair measures the engine's one apply face (MultiCISO.ApplyBatchDelta,
// no server around it) on uniform add/delete churn over a scale-12 RMAT graph
// in groups of 512, against q queries over `sources` hub sources whose
// shortest-path trees cover the giant component, so every group carries
// tree-edge deletions and improving additions. The rows span the shapes the
// daemon serves: Q4_S4 is ingest-durable's, Q128_S16 paced-watch's and
// Q64_S64 engine-batch's. Metrics:
//
//   - ns/upd — engine time per update (stream generation excluded);
//   - relax/upd — ⊕ applications per update, summed over the queries;
//   - leaf-frac — share of the tagging repairs whose region was the head
//     vertex alone (repair_leaf / (repair_leaf + repair_region));
//   - allocs/op — per 512-update body (TestApplyBatchDeltaAllocCeiling pins
//     the ceiling).
func BatchRepair(q, sources int) func(b *testing.B) {
	return func(b *testing.B) {
		m, churn := churnEngine(q, sources)
		ups := make([]graph.Update, 0, churnGroup)
		for i := 0; i < 8; i++ { // untimed: reach the churn's steady state
			ups = churn.fill(ups[:0], churnGroup)
			if err := m.ApplyBatchDelta(ups).Err; err != nil {
				b.Fatal(err)
			}
		}
		before := m.Counters().Snapshot()
		var engine time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ups = churn.fill(ups[:0], churnGroup)
			t0 := time.Now()
			err := m.ApplyBatchDelta(ups).Err
			engine += time.Since(t0)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		after := m.Counters().Snapshot()
		upd := float64(b.N * churnGroup)
		perUpd := func(name string) float64 { return float64(after[name]-before[name]) / upd }
		b.ReportMetric(float64(engine.Nanoseconds())/upd, "ns/upd")
		b.ReportMetric(perUpd(stats.CntRelax), "relax/upd")
		if leaf, region := perUpd(stats.CntRepairLeaf), perUpd(stats.CntRepairRegion); leaf+region > 0 {
			b.ReportMetric(leaf/(leaf+region), "leaf-frac")
		}
	}
}
