package resilience

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
)

// testGraph returns a small deterministic graph with a few known edges.
func testGraph(t *testing.T) *graph.Dynamic {
	t.Helper()
	el := graph.Uniform("san", 16, 40, 8, 5)
	return graph.FromEdgeList(el)
}

// anEdge returns an edge present in g and one absent (both with in-range,
// distinct endpoints).
func anEdge(t *testing.T, g *graph.Dynamic) (present, absent graph.Arc) {
	t.Helper()
	foundP := false
	for u := 0; u < g.NumVertices() && !foundP; u++ {
		for _, e := range g.Out(graph.VertexID(u)) {
			present = graph.Arc{From: graph.VertexID(u), To: e.To, W: e.W}
			foundP = true
			break
		}
	}
	if !foundP {
		t.Fatal("test graph has no edges")
	}
	for u := 0; u < g.NumVertices(); u++ {
		for v := 0; v < g.NumVertices(); v++ {
			if u == v {
				continue
			}
			if _, ok := g.HasEdge(graph.VertexID(u), graph.VertexID(v)); !ok {
				absent = graph.Arc{From: graph.VertexID(u), To: graph.VertexID(v), W: 3}
				return present, absent
			}
		}
	}
	t.Fatal("test graph is complete")
	return
}

func TestSanitizeDropReasons(t *testing.T) {
	g := testGraph(t)
	pres, abs := anEdge(t, g)
	n := graph.VertexID(g.NumVertices())
	cases := []struct {
		name   string
		up     graph.Update
		reason string // "" = must be kept
	}{
		{"valid add", graph.Add(abs.From, abs.To, 2), ""},
		{"valid del", graph.Del(pres.From, pres.To, pres.W), ""},
		{"from out of range", graph.Add(n, 1, 2), DropOutOfRange},
		{"to out of range", graph.Add(0, n+7, 2), DropOutOfRange},
		{"both out of range", graph.Del(n, n+1, 2), DropOutOfRange},
		{"self loop", graph.Add(4, 4, 2), DropSelfLoop},
		{"nan weight", graph.Add(abs.From, abs.To, math.NaN()), DropBadWeight},
		{"+inf weight", graph.Add(abs.From, abs.To, math.Inf(1)), DropBadWeight},
		{"-inf weight", graph.Add(abs.From, abs.To, math.Inf(-1)), DropBadWeight},
		{"negative weight", graph.Add(abs.From, abs.To, -1), DropBadWeight},
		{"duplicate add (edge present)", graph.Add(pres.From, pres.To, 9), DropDupAdd},
		{"absent-edge delete", graph.Del(abs.From, abs.To, 1), DropAbsentDel},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cnt := stats.NewCounters()
			s := NewSanitizer(PolicyDrop, cnt)
			clean, rep, err := s.Sanitize(g, []graph.Update{tc.up})
			if err != nil {
				t.Fatalf("drop policy returned error: %v", err)
			}
			if tc.reason == "" {
				if len(clean) != 1 || !rep.Clean() {
					t.Fatalf("valid update dropped: clean=%v report=%+v", clean, rep)
				}
				return
			}
			if len(clean) != 0 {
				t.Fatalf("invalid update kept: %v", clean)
			}
			if rep.Dropped[tc.reason] != 1 {
				t.Fatalf("want 1 drop for %s, got %+v", tc.reason, rep.Dropped)
			}
			if cnt.Get(tc.reason) != 1 {
				t.Fatalf("counter %s not incremented", tc.reason)
			}
		})
	}
}

// TestSanitizeTracksPresenceThroughBatch checks in-batch presence tracking:
// delete-then-re-add is legal, add-then-add is a duplicate, add-then-delete
// of a previously absent edge is legal.
func TestSanitizeTracksPresenceThroughBatch(t *testing.T) {
	g := testGraph(t)
	pres, abs := anEdge(t, g)
	s := NewSanitizer(PolicyDrop, nil)

	batch := []graph.Update{
		graph.Del(pres.From, pres.To, pres.W), // ok
		graph.Add(pres.From, pres.To, 5),      // ok: re-add after delete
		graph.Add(abs.From, abs.To, 2),        // ok
		graph.Add(abs.From, abs.To, 2),        // dup: just added
		graph.Del(abs.From, abs.To, 2),        // ok: present in-batch
		graph.Del(abs.From, abs.To, 2),        // absent: just deleted
	}
	clean, rep, err := s.Sanitize(g, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean) != 4 {
		t.Fatalf("want 4 kept, got %d (%v)", len(clean), clean)
	}
	if rep.Dropped[DropDupAdd] != 1 || rep.Dropped[DropAbsentDel] != 1 {
		t.Fatalf("unexpected drops: %+v", rep.Dropped)
	}
}

// TestSanitizePolicies: drop is the one policy — a dirty batch keeps its
// valid update and loses every offender, counted, and a clean batch passes
// whole.
func TestSanitizePolicies(t *testing.T) {
	g := testGraph(t)
	_, abs := anEdge(t, g)
	dirty := []graph.Update{
		graph.Add(abs.From, abs.To, 2),
		graph.Add(9999, 1, 2),
		graph.Add(3, 3, 2),
	}
	t.Run("dirty batch drops every offender", func(t *testing.T) {
		cnt := stats.NewCounters()
		clean, rep, err := NewSanitizer(PolicyDrop, cnt).Sanitize(g, dirty)
		if err != nil || !slices.Equal(clean, dirty[:1]) {
			t.Fatalf("kept %v (err %v), want only the valid add", clean, err)
		}
		if rep.Kept != 1 || rep.Total() != 2 || cnt.Get(DropOutOfRange) != 1 || cnt.Get(DropSelfLoop) != 1 {
			t.Fatalf("report %+v, counters %v", rep, cnt.Snapshot())
		}
		if err := ValidateBatch(g, dirty); err == nil || !strings.Contains(err.Error(), "2 invalid") {
			t.Fatalf("ValidateBatch does not count both offenders: %v", err)
		}
	})
	t.Run("clean batch passes", func(t *testing.T) {
		okBatch := []graph.Update{graph.Add(abs.From, abs.To, 2)}
		clean, rep, err := NewSanitizer(PolicyDrop, nil).Sanitize(g, okBatch)
		if err != nil || len(clean) != 1 || !rep.Clean() {
			t.Fatalf("clean batch lost updates: kept %v, report %+v, err %v", clean, rep, err)
		}
	})
}

func TestValidateBatch(t *testing.T) {
	g := testGraph(t)
	_, abs := anEdge(t, g)
	if err := ValidateBatch(g, []graph.Update{graph.Add(abs.From, abs.To, 1)}); err != nil {
		t.Fatalf("clean batch: %v", err)
	}
	if err := ValidateBatch(g, []graph.Update{graph.Add(1, 1, 1)}); err == nil {
		t.Fatal("self-loop accepted")
	}
}

// TestMalformedBatchesThroughEveryEngine feeds a dirty batch through the
// sanitizer into every engine and checks (a) nothing panics, (b) every
// engine's answer equals ColdStart on the equivalent clean batch. Without
// the sanitizer, the out-of-range IDs in these batches would panic
// Dynamic.AddEdge inside every engine.
func TestMalformedBatchesThroughEveryEngine(t *testing.T) {
	el := graph.Uniform("mal", 32, 140, 8, 11)
	base := graph.FromEdgeList(el)
	q := core.Query{S: 0, D: 29}
	n := graph.VertexID(base.NumVertices())

	_, abs := anEdge(t, base)
	pres, _ := anEdge(t, base)
	dirty := []graph.Update{
		graph.Add(abs.From, abs.To, 4),
		graph.Add(n+3, 1, 2),                    // out of range
		graph.Add(5, 5, 1),                      // self-loop
		graph.Add(abs.To, abs.From, math.NaN()), // NaN weight
		graph.Del(pres.From, pres.To, pres.W),
		graph.Del(pres.From, pres.To, pres.W), // absent after first del
		graph.Add(abs.From, abs.To, 4),        // dup of first add
	}

	for _, a := range []algo.Algorithm{algo.PPSP{}, algo.PPWP{}, algo.Reach{}} {
		clean, _, err := NewSanitizer(PolicyDrop, nil).Sanitize(base, dirty)
		if err != nil {
			t.Fatal(err)
		}
		ref := core.NewColdStart()
		ref.Reset(base.Clone(), a, q)
		want := ref.ApplyBatch(clean).Answer

		engines := []core.Engine{
			core.NewColdStart(),
			core.NewIncremental(),
			core.NewSGraph(core.DefaultHubCount),
			core.NewPnP(),
			core.NewCISO(),
		}
		for _, e := range engines {
			e.Reset(base.Clone(), a, q)
			got := e.ApplyBatch(clean).Answer
			if got != want {
				t.Errorf("%s/%s: answer %v, want %v", a.Name(), e.Name(), got, want)
			}
		}
	}
}

// pass runs one validation pass over ups on san — per update through Stream
// when stream is set, as one batch through Sanitize otherwise — and returns
// the accepted updates.
func pass(t *testing.T, san *Sanitizer, g *graph.Dynamic, stream bool, ups ...graph.Update) []graph.Update {
	t.Helper()
	if !stream {
		clean, _, _ := san.Sanitize(g, ups)
		return clean
	}
	ss := san.Stream(g)
	var kept []graph.Update
	for _, up := range ups {
		if ss.Check(up) == "" {
			kept = append(kept, up)
		}
	}
	return kept
}

// TestSanitizerPassIsolation: a Sanitizer's passes share one reused overlay,
// and nothing a pass accepted survives into the next — an update accepted
// but never applied to the graph is judged against the graph again, by
// either face, whichever face ran before.
func TestSanitizerPassIsolation(t *testing.T) {
	g := graph.NewDynamic(8)
	g.AddEdge(0, 1, 1)
	add, del := graph.Add(2, 3, 1), graph.Del(0, 1, 1)
	for _, first := range []bool{true, false} {
		for _, second := range []bool{true, false} {
			san := NewSanitizer(PolicyDrop, stats.NewCounters())
			if got := pass(t, san, g, first, add, del); len(got) != 2 {
				t.Fatalf("stream=%v pass 1 kept %v, want both", first, got)
			}
			// Neither update was applied to g: pass 2 must accept both again
			// (not refuse them as a duplicate add and an absent delete).
			if got := pass(t, san, g, second, add, del); len(got) != 2 {
				t.Fatalf("stream=%v after stream=%v: pass 2 kept %v, want both", second, first, got)
			}
		}
	}
}

// TestSanitizerRefusalLeavesNoTrace: a refused update changes no presence —
// later updates on its edge are judged as if it never came — and a pass of
// refusals leaves the overlay empty.
func TestSanitizerRefusalLeavesNoTrace(t *testing.T) {
	g := graph.NewDynamic(8)
	g.AddEdge(0, 1, 1)
	for _, stream := range []bool{true, false} {
		san := NewSanitizer(PolicyDrop, stats.NewCounters())
		got := pass(t, san, g, stream,
			graph.Add(2, 3, math.NaN()), // refused: bad weight
			graph.Add(2, 3, 1),          // still absent: accepted
			graph.Add(0, 1, 2),          // refused: duplicate add
			graph.Del(0, 1, 1),          // still present: accepted
			graph.Del(4, 5, 1),          // refused: absent delete
			graph.Add(4, 5, 1),          // still absent: accepted
		)
		want := []graph.Update{graph.Add(2, 3, 1), graph.Del(0, 1, 1), graph.Add(4, 5, 1)}
		if !slices.Equal(got, want) {
			t.Fatalf("stream=%v: kept %v, want %v", stream, got, want)
		}
		pass(t, san, g, stream, graph.Add(0, 1, 2), graph.Del(6, 7, 1), graph.Add(3, 3, 1), graph.Add(9, 1, 1))
		if len(san.overlay) != 0 {
			t.Fatalf("stream=%v: a pass of refusals left %d overlay keys", stream, len(san.overlay))
		}
	}
}

// TestSanitizerDropsOutgrownOverlay: a pass may be far larger than the
// steady state (a 10k-update body); the pass after it still validates
// correctly, on a fresh map instead of clearing the outgrown one, while a
// pass within overlayKeep hands its map on.
func TestSanitizerDropsOutgrownOverlay(t *testing.T) {
	g := graph.NewDynamic(128)
	var big []graph.Update
	for u := 0; u < g.NumVertices() && len(big) < 10_000; u++ {
		for v := 0; v < g.NumVertices() && len(big) < 10_000; v++ {
			if u != v {
				big = append(big, graph.Add(graph.VertexID(u), graph.VertexID(v), 1))
			}
		}
	}
	mapID := func(m map[uint64]bool) uintptr { return reflect.ValueOf(m).Pointer() }
	for _, stream := range []bool{true, false} {
		san := NewSanitizer(PolicyDrop, nil)
		if got := pass(t, san, g, stream, big[:overlayKeep]...); len(got) != overlayKeep {
			t.Fatalf("stream=%v: kept %d of %d", stream, len(got), overlayKeep)
		}
		kept := mapID(san.overlay)
		if got := pass(t, san, g, stream, big...); len(got) != len(big) {
			t.Fatalf("stream=%v: kept %d of %d", stream, len(got), len(big))
		}
		if mapID(san.overlay) != kept {
			t.Fatalf("stream=%v: a pass after one of %d keys did not reuse the map", stream, overlayKeep)
		}
		if len(san.overlay) != len(big) {
			t.Fatalf("stream=%v: overlay holds %d keys after a %d-update pass", stream, len(san.overlay), len(big))
		}
		outgrown := mapID(san.overlay)
		if got := pass(t, san, g, stream, big[0]); len(got) != 1 {
			t.Fatalf("stream=%v: the pass after a big one refused %v", stream, big[0])
		}
		if mapID(san.overlay) == outgrown || len(san.overlay) != 1 {
			t.Fatalf("stream=%v: the outgrown overlay was kept (%d keys)", stream, len(san.overlay))
		}
	}
}

// StreamSanitizer must agree with Sanitize's intra-batch presence tracking
// when fed the same updates one at a time.
func TestStreamSanitizerMatchesBatch(t *testing.T) {
	g := graph.NewDynamic(4)
	g.AddEdge(0, 1, 1)
	batch := []graph.Update{
		graph.Add(0, 1, 2),          // dup add
		graph.Del(0, 1, 1),          // ok
		graph.Add(0, 1, 3),          // ok (made valid by the del)
		graph.Del(1, 2, 1),          // absent del
		graph.Add(2, 2, 1),          // self loop
		graph.Add(0, 99, 1),         // out of range
		graph.Add(1, 2, math.NaN()), // bad weight
		graph.Add(1, 2, 0.5),        // ok
	}
	san := NewSanitizer(PolicyDrop, nil)
	clean, rep, err := san.Sanitize(g, batch)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewSanitizer(PolicyDrop, stats.NewCounters()).Stream(g)
	var streamed []graph.Update
	for _, up := range batch {
		if reason := ss.Check(up); reason == "" {
			streamed = append(streamed, up)
		}
	}
	if len(streamed) != len(clean) || len(streamed) != rep.Kept {
		t.Fatalf("stream kept %d, batch kept %d", len(streamed), len(clean))
	}
	for i := range clean {
		if streamed[i] != clean[i] {
			t.Fatalf("update %d: stream %v, batch %v", i, streamed[i], clean[i])
		}
	}
}
