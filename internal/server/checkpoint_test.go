package server

import (
	"slices"
	"testing"

	"cisgraph/internal/core"
	"cisgraph/internal/graph"
)

func TestCheckpointStateRoundTrip(t *testing.T) {
	g := graph.NewDynamic(6)
	g.AddEdge(0, 1, 1.5)
	g.AddEdge(1, 2, 2.25)
	g.AddEdge(2, 0, 0.5)
	g.AddEdge(4, 5, 9)
	queries := []core.Query{{S: 0, D: 2}, {S: 4, D: 5}}

	got, gotQ, _, err := decodeState(encodeState(g, queries, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != 6 || got.NumEdges() != 4 {
		t.Fatalf("decoded N=%d M=%d, want 6/4", got.NumVertices(), got.NumEdges())
	}
	for _, e := range []struct {
		u, v graph.VertexID
		w    float64
	}{{0, 1, 1.5}, {1, 2, 2.25}, {2, 0, 0.5}, {4, 5, 9}} {
		if w, ok := got.HasEdge(e.u, e.v); !ok || w != e.w {
			t.Errorf("edge %d->%d: got (%v,%v), want %v", e.u, e.v, w, ok, e.w)
		}
	}
	if len(gotQ) != 2 || gotQ[0] != queries[0] || gotQ[1] != queries[1] {
		t.Fatalf("decoded queries %v, want %v", gotQ, queries)
	}
}

func TestCheckpointStateEmpty(t *testing.T) {
	g, q, _, err := decodeState(encodeState(graph.NewDynamic(3), nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 0 || len(q) != 0 {
		t.Fatalf("got N=%d M=%d Q=%d, want 3/0/0", g.NumVertices(), g.NumEdges(), len(q))
	}
}

func TestCheckpointStateRejectsCorruption(t *testing.T) {
	g := graph.NewDynamic(4)
	g.AddEdge(0, 1, 1)
	good := encodeState(g, []core.Query{{S: 0, D: 1}}, nil)

	cases := map[string][]byte{
		"empty":       nil,
		"bad header":  append([]byte("NOTMINE!"), good[8:]...),
		"truncated":   good[:len(good)-3],
		"short edges": good[:14],
	}
	// Edge-count overflow: claim more edges than the payload holds.
	overflow := append([]byte(nil), good...)
	overflow[12] = 0xff // low byte of the uint64 edge count
	cases["edge overcount"] = overflow

	for name, payload := range cases {
		if _, _, _, err := decodeState(payload); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// A decoded checkpoint's topology is the one an AddEdge replay of its arcs
// builds — the counting build changes no adjacency order — and takes
// further churn like it.
func TestCheckpointStateDecodeMatchesAddEdgeReplay(t *testing.T) {
	src := graph.FromEdgeList(graph.RMAT("ckpt", 7, 900, graph.DefaultRMAT, 16, 4))
	for i, a := range src.EdgeList("").Arcs {
		if i%7 == 0 {
			src.RemoveEdge(a.From, a.To) // swap-deletes: adjacency order is no longer arrival order
		}
	}
	got, _, _, err := decodeState(encodeState(src, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := graph.NewDynamic(src.NumVertices())
	for _, a := range src.EdgeList("").Arcs {
		want.AddEdge(a.From, a.To, a.W)
	}
	for step := 0; step < 2; step++ {
		if got.String() != want.String() {
			t.Fatalf("step %d: decoded %v, AddEdge replay %v", step, got, want)
		}
		for v := graph.VertexID(0); int(v) < want.NumVertices(); v++ {
			if !slices.Equal(got.Out(v), want.Out(v)) || !slices.Equal(got.In(v), want.In(v)) {
				t.Fatalf("step %d: vertex %d adjacency differs from the AddEdge replay", step, v)
			}
		}
		for v := graph.VertexID(1); int(v) < want.NumVertices(); v += 3 {
			got.AddEdge(0, v, 2)
			want.AddEdge(0, v, 2)
			got.RemoveEdge(v, 0)
			want.RemoveEdge(v, 0)
		}
	}
}
