package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"cisgraph/internal/graph"
)

func testDataset(seed int64) *graph.EdgeList {
	return graph.RMAT("rmat", 10, 16<<10, graph.DefaultRMAT, graph.MaxRawWeight, seed)
}

// streamBytes serializes n updates of a fresh generator.
func streamBytes(seed int64, hotFrac float64, n int) []byte {
	var buf bytes.Buffer
	c, _ := heatedChurn(testDataset(seed), seed, hotFrac)
	for _, a := range c.Initial("initial").Arcs {
		_ = binary.Write(&buf, binary.LittleEndian, []uint64{uint64(a.From), uint64(a.To), math.Float64bits(a.W)}) // bytes.Buffer cannot fail
	}
	for i := 0; i < n; i++ {
		u := c.Next()
		del := uint64(0)
		if u.Del {
			del = 1
		}
		_ = binary.Write(&buf, binary.LittleEndian, []uint64{del, uint64(u.From), uint64(u.To), math.Float64bits(u.W)})
	}
	return buf.Bytes()
}

// heatedChurn builds a generator the way genInputs does: split, pick queries
// on the loaded half, heat their destinations.
func heatedChurn(el *graph.EdgeList, seed int64, hotFrac float64) (*Churn, map[graph.VertexID]bool) {
	c := NewChurn(el, seed)
	isHot := map[graph.VertexID]bool{}
	var dests []graph.VertexID
	for _, p := range pickQueries(graph.FromEdgeList(c.Initial("initial")), 32, 8, seed) {
		dests = append(dests, p[1])
		isHot[p[1]] = true
	}
	c.Heat(dests, hotFrac)
	return c, isHot
}

func TestChurnEqualSeedsGiveIdenticalStreams(t *testing.T) {
	for _, hot := range []float64{0, 0.2} {
		a, b := streamBytes(7, hot, 50000), streamBytes(7, hot, 50000)
		if !bytes.Equal(a, b) {
			t.Fatalf("hotFrac %v: two generators with seed 7 produced different streams", hot)
		}
		if bytes.Equal(a, streamBytes(8, hot, 50000)) {
			t.Fatalf("hotFrac %v: seeds 7 and 8 produced the same stream", hot)
		}
	}
}

// TestChurnStaysLoadedAndValid runs 10^6 updates: the loaded share stays
// within one frame of 50 %, and every update is valid against the state the
// earlier ones left (the daemon's sanitizer would drop nothing).
func TestChurnStaysLoadedAndValid(t *testing.T) {
	const frame = 64
	for _, hot := range []float64{0, 0.2} {
		el := testDataset(3)
		c, isHot := heatedChurn(el, 3, hot)
		g := graph.FromEdgeList(c.Initial("initial"))
		half := len(el.Arcs) / 2
		touchedHot := 0
		for i := 0; i < 1_000_000; i++ {
			u := c.Next()
			if u.Del {
				if _, ok := g.RemoveEdge(u.From, u.To); !ok {
					t.Fatalf("update %d deletes absent edge %v", i, u)
				}
			} else if !g.AddEdge(u.From, u.To, u.W) {
				t.Fatalf("update %d adds present edge %v", i, u)
			}
			if d := c.Loaded() - half; d < -frame || d > frame {
				t.Fatalf("update %d: %d edges loaded, 50%% is %d", i, c.Loaded(), half)
			}
			if c.Loaded() != g.NumEdges() {
				t.Fatalf("update %d: generator counts %d loaded edges, the graph holds %d", i, c.Loaded(), g.NumEdges())
			}
			if isHot[u.To] {
				touchedHot++
			}
		}
		if hot > 0 && float64(touchedHot) < hot*1e6 {
			t.Fatalf("hotFrac %v: only %d of 10^6 updates toggled an edge into a hot vertex", hot, touchedHot)
		}
	}
}

func TestPickQueriesDeterministicAndConnected(t *testing.T) {
	el := testDataset(5)
	g := graph.FromEdgeList(NewChurn(el, 5).Initial("initial"))
	a, b := pickQueries(g, 32, 8, 5), pickQueries(g, 32, 8, 5)
	if len(a) != 32 {
		t.Fatalf("got %d queries, want 32", len(a))
	}
	sources := map[graph.VertexID]bool{}
	for i, p := range a {
		if p != b[i] {
			t.Fatalf("query %d differs between two calls with the same seed", i)
		}
		sources[p[0]] = true
		if !graph.ReachableFrom(g, p[0])[p[1]] {
			t.Fatalf("query %d->%d is not connected", p[0], p[1])
		}
		if d := g.InDegree(p[1]); d < 2 || d > 4 {
			t.Fatalf("destination %d has %d in-edges, want 2 to 4", p[1], d)
		}
	}
	if len(sources) != 8 {
		t.Fatalf("queries span %d sources, want 8", len(sources))
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
