package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
	"cisgraph/internal/stream"
)

// sortedArcs lists g's edges in (from, to) order: the engine and a
// checkpoint may hold the same topology in different adjacency orders.
func sortedArcs(g *graph.Dynamic) []graph.Arc {
	arcs := g.EdgeList("").Arcs
	slices.SortFunc(arcs, func(a, b graph.Arc) int {
		if a.From != b.From {
			return int(a.From) - int(b.From)
		}
		return int(a.To) - int(b.To)
	})
	return arcs
}

// replayTopology is the offline reference: the initial snapshot plus the
// records below index `below` of the WALs at walPaths, stitched by index —
// a record missing from one log (retention) is taken from the next — with
// no gap from index 0.
func replayTopology(t *testing.T, g0 *graph.Dynamic, below uint64, walPaths ...string) *graph.Dynamic {
	t.Helper()
	byIndex := map[uint64][]graph.Update{}
	for _, p := range walPaths {
		recs, err := resilience.ReplaySegmented(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if _, ok := byIndex[rec.Index]; !ok {
				byIndex[rec.Index] = rec.Batch
			}
		}
	}
	g := g0.Clone()
	for i := uint64(0); i < below; i++ {
		batch, ok := byIndex[i]
		if !ok {
			t.Fatalf("no WAL holds record %d (replaying to %d)", i, below)
		}
		g.Apply(batch)
	}
	return g
}

// checkOneTopology asserts the one-topology invariant on s: the engine's
// edge list, the checkpoint it writes now, and the /healthz edge count all
// equal the offline replay of its WAL, which covers exactly its position.
func checkOneTopology(t *testing.T, where string, s *Server, g0 *graph.Dynamic) {
	t.Helper()
	s.commitMu.Lock()
	pos := s.Applied()
	if next := s.wal.NextIndex(); next != pos {
		s.commitMu.Unlock()
		t.Fatalf("%s: WAL ends at %d, position %d", where, next, pos)
	}
	want := replayTopology(t, g0, pos, s.cfg.WALPath)
	wantArcs := sortedArcs(want)
	if got := sortedArcs(s.pool.Topology()); !slices.Equal(got, wantArcs) {
		s.commitMu.Unlock()
		t.Fatalf("%s: engine holds %d edges, offline replay %d (or different ones)", where, len(got), len(wantArcs))
	}
	s.commitMu.Unlock()

	if err := s.writeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	through, _, payload, err := resilience.ReadCheckpointMeta(s.cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	cg, _, _, err := decodeState(payload)
	if err != nil {
		t.Fatal(err)
	}
	if through != pos || !slices.Equal(sortedArcs(cg), wantArcs) {
		t.Fatalf("%s: checkpoint through %d with %d edges, want through %d with the replay's %d",
			where, through, cg.NumEdges(), pos, len(wantArcs))
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h healthzResponse
	if err := json.NewDecoder(rec.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Edges != int64(want.NumEdges()) {
		t.Fatalf("%s: /healthz edges %d, offline replay %d", where, h.Edges, want.NumEdges())
	}
}

// postBody offers one JSON body through s's handler and waits for it to
// commit.
func postBody(t *testing.T, s *Server, batch []graph.Update) {
	t.Helper()
	data, err := json.Marshal(updatesReq(batch))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/updates", bytes.NewReader(data)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/updates: status %d: %s", rec.Code, rec.Body)
	}
	waitQuiescedSrv(t, s)
}

// TestOneTopology: the server keeps one topology — the pool's — and every
// front keeps it equal to the durable stream. After every commit of JSON
// bodies with invalid updates (each dropped alone), CGBIN/2 groups with
// in-group duplicates, absent deletes and a replayed frame, a follower
// fed the leader's log, and a Restore from a mid-stream copy, the engine's
// edge list, the checkpoint's topology and the /healthz edge count equal an
// offline replay of the initial snapshot plus the node's WAL.
func TestOneTopology(t *testing.T) {
	// The subtest is named for the server's one sanitize policy.
	t.Run("drop", testOneTopology)
}

func testOneTopology(t *testing.T) {
	w := testWorkload(t)
	a := testAlgo(t)
	g0 := w.Initial()
	var qs []core.Query
	for _, p := range w.QueryPairsConnected(4) {
		qs = append(qs, core.Query{S: p[0], D: p[1]})
	}
	config := func(dir string) Config {
		cfg := testServerConfig()
		cfg.WALPath = filepath.Join(dir, "srv.wal")
		cfg.CheckpointPath = filepath.Join(dir, "srv.ckpt")
		return cfg
	}
	cfg := config(t.TempDir())
	leader, err := New(g0.Clone(), a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Drain()
	leader.Pool().RegisterAll(qs)
	checkOneTopology(t, "start", leader, g0)

	n := graph.VertexID(g0.NumVertices())
	pres, abs := anyEdges(t, g0)
	// JSON bodies: a clean one, one salted with every invalid shape, a lone
	// invalid update (the per-update branch), and add/del/re-add of one edge.
	bodies := [][]graph.Update{
		w.NextBatch(),
		append(w.NextBatch(),
			graph.Add(pres.From, pres.To, 2), // duplicate add
			graph.Del(abs.From, abs.To, 1),   // absent delete
			graph.Add(3, 3, 1),               // self-loop
			graph.Add(n+5, 1, 1),             // out of range
		),
		{graph.Del(abs.From, abs.To, 1)},
		{graph.Add(abs.From, abs.To, 1), graph.Del(abs.From, abs.To, 1), graph.Add(abs.From, abs.To, 4)},
		w.NextBatch(),
	}
	for i, body := range bodies {
		postBody(t, leader, body)
		checkOneTopology(t, fmt.Sprintf("JSON body %d", i), leader, g0)
	}

	// CGBIN/2 groups: in-group duplicate adds and absent deletes, then the
	// same frame again under the same (session, seq) — all dedup hits.
	bc, closeBin := dialBinary(t, leader)
	defer closeBin()
	for i := 0; i < 3; i++ {
		frame := w.NextBatch()
		add := absentAddLocked(leader)
		frame = append(frame, add, add, graph.Del(add.To, add.From, 1), graph.Del(pres.From, pres.To, pres.W))
		if ack := bc.roundTrip(frame); ack.Status != BinStatusOK {
			t.Fatalf("group %d: ack %+v", i, ack)
		}
		checkOneTopology(t, fmt.Sprintf("CGBIN/2 group %d", i), leader, g0)
		bc.seq -= uint64(len(frame))
		before := leader.Applied()
		if ack := bc.roundTrip(frame); ack.Status != BinStatusOK || leader.Applied() != before {
			t.Fatalf("replayed group %d: ack %+v, position %d → %d", i, ack, before, leader.Applied())
		}
		checkOneTopology(t, fmt.Sprintf("replayed CGBIN/2 group %d", i), leader, g0)
	}

	// The follower front: the leader's records, one commit each.
	fcfg := config(t.TempDir())
	fcfg.FollowURL = "http://leader.test" // never dialled: records are fed directly
	fol, err := build(g0.Clone(), a, nil, 0, fcfg, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Drain()
	fol.Pool().RegisterAll(qs)
	recs, err := resilience.ReplaySegmented(cfg.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := fol.applyReplicated(rec); err != nil {
			t.Fatal(err)
		}
		checkOneTopology(t, fmt.Sprintf("follower record %d", rec.Index), fol, g0)
	}

	// Restore from a copy of the leader's artefacts taken mid-stream (a
	// kill), then keep committing on the restored node.
	rcfg := config(t.TempDir())
	copyDir(t, cfg.WALPath, rcfg.WALPath)
	copyFile(t, cfg.CheckpointPath, rcfg.CheckpointPath)
	restored, err := Restore(a, rcfg, func() (*graph.Dynamic, error) { return g0.Clone(), nil })
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Drain()
	if restored.Applied() != leader.Applied() {
		t.Fatalf("restored at %d, leader at %d", restored.Applied(), leader.Applied())
	}
	checkOneTopology(t, "restored", restored, g0)
	for i := 0; i < 2; i++ {
		postBody(t, restored, w.NextBatch())
		checkOneTopology(t, fmt.Sprintf("restored, body %d", i), restored, g0)
	}
}

// anyEdges returns one edge present in g and one absent from it.
func anyEdges(t *testing.T, g *graph.Dynamic) (present, absent graph.Update) {
	t.Helper()
	for u := 0; u < g.NumVertices(); u++ {
		if out := g.Out(graph.VertexID(u)); len(out) > 0 {
			present = graph.Add(graph.VertexID(u), out[0].To, out[0].W)
			break
		}
	}
	return present, absentAdds(g, 1)[0]
}

// copyFile copies one regular file.
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// absentAddLocked picks an edge absent from s's topology, read under the
// commit lock.
func absentAddLocked(s *Server) graph.Update {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	return absentAdds(s.pool.Topology(), 1)[0]
}

// TestPromoteCheckpointUnderLiveWriter: promotion opens writes and then
// checkpoints, so a client commit can land while the topology is encoded.
// The checkpoint takes the commit lock: run under -race, with a JSON writer
// posting to the follower throughout the promotion, the promotion
// checkpoint's topology equals the offline replay of the node's WAL at the
// checkpoint's position.
func TestPromoteCheckpointUnderLiveWriter(t *testing.T) {
	ds := graph.RMAT("promote", 10, 12000, graph.DefaultRMAT, 16, 99)
	w, err := stream.New(ds, stream.DefaultConfig(len(ds.Arcs), 7))
	if err != nil {
		t.Fatal(err)
	}
	a := testAlgo(t)
	g0 := w.Initial()
	lcfg := testServerConfig()
	lcfg.WALPath = filepath.Join(t.TempDir(), "srv.wal") // no checkpoint: the follower's log starts at 0
	leader, err := New(g0.Clone(), a, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Drain()
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()

	fcfg := followerConfig(ts.URL)
	fdir := t.TempDir()
	fcfg.WALPath = filepath.Join(fdir, "f.wal")
	fcfg.CheckpointPath = filepath.Join(fdir, "f.ckpt")
	fcfg.BatchMaxSize = 8 // every body cuts at once: commits start the moment writes open
	fol, err := StartFollower(a, fcfg, func() (*graph.Dynamic, error) { return g0.Clone(), nil })
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Drain()
	for i := 0; i < 4; i++ {
		postUpdatesHTTP(t, ts.Client(), ts.URL, w.NextBatch())
		waitQuiescedSrv(t, leader)
	}
	waitFollowerAt(t, fol, leader.Applied())

	// Two live JSON writers: 421 until the promotion, 202 after.
	const writers, perWriter = 2, 24
	bodies := make([][]byte, writers*perWriter)
	for i := range bodies {
		var err error
		if bodies[i], err = json.Marshal(updatesReq(w.NextBatch())); err != nil {
			t.Fatal(err)
		}
	}
	var started, wg sync.WaitGroup
	accepted := make([]int, writers)
	for k := 0; k < writers; k++ {
		started.Add(1)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			started.Done()
			mine := bodies[k*perWriter : (k+1)*perWriter]
			for i := 0; accepted[k] < perWriter && i < 100_000; i++ {
				rec := httptest.NewRecorder()
				fol.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/updates", bytes.NewReader(mine[accepted[k]])))
				if rec.Code == http.StatusAccepted {
					accepted[k]++
				}
			}
		}(k)
	}
	started.Wait()
	if _, promoted, err := fol.Promote(); err != nil || !promoted {
		t.Fatalf("promote: promoted=%v err=%v", promoted, err)
	}
	through, _, payload, err := resilience.ReadCheckpointMeta(fcfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	waitQuiescedSrv(t, fol)
	if accepted[0]+accepted[1] == 0 {
		t.Fatal("the writers never got a body in after the promotion")
	}
	cg, _, _, err := decodeState(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Promotion retired the follower's pre-promotion segment; the leader's
	// log still holds those records.
	want := replayTopology(t, g0, through, fcfg.WALPath, lcfg.WALPath)
	if !slices.Equal(sortedArcs(cg), sortedArcs(want)) {
		t.Fatalf("promotion checkpoint through %d holds %d edges; the WAL replay to it holds %d (or different ones)",
			through, cg.NumEdges(), want.NumEdges())
	}
	t.Logf("promotion checkpoint through %d; %d bodies accepted from the writers after it", through, accepted[0]+accepted[1])
}
