package server

import (
	"bytes"
	"encoding/binary"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
)

// servedAnswers returns srv's GET /v1/answers body.
func servedAnswers(t *testing.T, srv *Server) []byte {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	return answersBody(t, ts.Client(), ts.URL)
}

// coldAnswersBody renders /v1/answers from one core.ColdStart per query on
// srv's topology (srv has no writer running, so the read needs no lock).
func coldAnswersBody(srv *Server, a algo.Algorithm) []byte {
	snap := srv.Pool().Answers()
	cold := &Snapshot{Queries: snap.Queries, Values: make([]algo.Value, len(snap.Queries))}
	for i, q := range snap.Queries {
		cs := core.NewColdStart()
		cs.Reset(srv.Pool().Topology().Clone(), a, q)
		cold.Values[i] = cs.Answer()
	}
	return appendAnswers(nil, srv.Applied(), srv.Quiesced(), cold, 0, len(cold.Values))
}

// sameTopology reports whether a and b hold the same weighted edge set.
func sameTopology(a, b *graph.Dynamic) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for u := 0; u < a.NumVertices(); u++ {
		for _, e := range a.Out(graph.VertexID(u)) {
			if w, ok := b.HasEdge(graph.VertexID(u), e.To); !ok || w != e.W {
				return false
			}
		}
	}
	return true
}

// TestRestoreDifferential restores from checkpoint + WAL suffix in several
// shapes — no checkpoint, a checkpoint mid-segment, a suffix over rolled
// tiny segments, a torn tail — each with JSON bodies and CGBIN/2 session
// records mixed in the suffix. In every shape the restored server must serve
// /v1/answers byte-identical to the pre-kill server's and to one cold start
// per query, over the same topology at the same position, with the same
// dedup table: a replayed session record is still refused as a duplicate.
func TestRestoreDifferential(t *testing.T) {
	shapes := []struct {
		name     string
		ckptAt   int   // step after which a checkpoint is written; -1: never
		segBytes int64 // WAL segment size (0: the default)
		torn     bool  // a half-written record trails the log
	}{
		{name: "no-checkpoint", ckptAt: -1},
		{name: "checkpoint-mid-segment", ckptAt: 3},
		{name: "rolled-tiny-segments", ckptAt: 2, segBytes: 512},
		{name: "torn-tail", ckptAt: 3, torn: true},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			w := testWorkload(t)
			a := testAlgo(t)
			dir := t.TempDir()
			cfg := testServerConfig()
			cfg.WALPath = filepath.Join(dir, "srv.wal")
			cfg.WALSegmentBytes = sh.segBytes
			if sh.ckptAt >= 0 {
				cfg.CheckpointPath = filepath.Join(dir, "srv.ckpt")
			}
			srv, err := New(w.Initial(), a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Drain()
			// Queries over a few sources, several per source.
			var qs []core.Query
			pairs := w.QueryPairsConnected(3)
			for _, p := range pairs {
				for _, p2 := range pairs {
					if p[0] != p2[1] {
						qs = append(qs, core.Query{S: p[0], D: p2[1]})
					}
				}
			}
			if _, _, err := srv.Pool().RegisterAll(qs); err != nil {
				t.Fatal(err)
			}
			// Even steps commit a JSON body, odd ones a run of single-update
			// records of one CGBIN/2 session.
			const sid = 77
			var session []resilience.Record
			for step := 0; step < 8; step++ {
				batch := w.NextBatch()
				if step%2 == 0 {
					srv.commit(fromClient, []resilience.Record{{Batch: batch}}, nil)
				} else {
					recs := make([]resilience.Record, len(batch))
					for i := range batch {
						recs[i] = resilience.Record{Batch: batch[i : i+1], SID: sid, Seq: uint64(len(session) + 1)}
						session = append(session, recs[i])
					}
					srv.commit(fromClient, recs, make([]verdict, len(recs)))
				}
				if step == sh.ckptAt {
					if err := srv.writeCheckpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			before := servedAnswers(t, srv)
			killed := t.TempDir()
			copyDir(t, dir, killed)
			// The shape is what it says: a checkpoint strictly inside the
			// stream, a suffix over several segments.
			if sh.ckptAt >= 0 {
				through, _, _, err := resilience.ReadCheckpointMeta(filepath.Join(killed, "srv.ckpt"))
				if err != nil || through == 0 || through >= srv.Applied() {
					t.Fatalf("checkpoint through %d (%v); want inside (0, %d)", through, err, srv.Applied())
				}
			}
			if segs := srv.wal.Segments(); sh.segBytes > 0 && segs < 3 {
				t.Fatalf("%d live segments; the suffix should span several", segs)
			}
			if sh.torn {
				segs, err := filepath.Glob(filepath.Join(killed, "srv.wal", "seg-*.wal"))
				if err != nil || len(segs) == 0 {
					t.Fatalf("no segments to tear (%v)", err)
				}
				f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				// A record header promising more payload than follows.
				torn := binary.LittleEndian.AppendUint64(nil, srv.Applied())
				torn = binary.LittleEndian.AppendUint32(torn, 40)
				torn = append(torn, make([]byte, 12)...)
				if _, err := f.Write(torn); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}

			rcfg := cfg
			rcfg.WALPath = filepath.Join(killed, "srv.wal")
			if sh.ckptAt >= 0 {
				rcfg.CheckpointPath = filepath.Join(killed, "srv.ckpt")
			}
			srv2, err := Restore(a, rcfg, func() (*graph.Dynamic, error) { return w.Initial(), nil })
			if err != nil {
				t.Fatal(err)
			}
			defer srv2.Drain()
			if sh.ckptAt < 0 {
				// Queries live in checkpoints only: without one they are
				// registered again, in the same order.
				if _, _, err := srv2.Pool().RegisterAll(qs); err != nil {
					t.Fatal(err)
				}
			}
			if srv2.Applied() != srv.Applied() {
				t.Fatalf("restored position %d, want %d", srv2.Applied(), srv.Applied())
			}
			if !sameTopology(srv2.Pool().Topology(), srv.Pool().Topology()) {
				t.Fatal("restored topology differs from the pre-kill one")
			}
			if after := servedAnswers(t, srv2); !bytes.Equal(before, after) {
				t.Fatalf("restored /v1/answers differ:\nbefore %s\nafter  %s", before, after)
			}
			if cold, after := coldAnswersBody(srv2, a), servedAnswers(t, srv2); !bytes.Equal(cold, after) {
				t.Fatalf("restored /v1/answers differ from cold starts:\ncold  %s\nafter %s", cold, after)
			}
			if got, want := srv2.dedup.snapshot(), srv.dedup.snapshot(); !slices.Equal(got, want) {
				t.Fatalf("restored dedup table %v, want %v", got, want)
			}
			// Replaying the session's records must change nothing.
			pos := srv2.Applied()
			verdicts := make([]verdict, len(session))
			srv2.commit(fromClient, session, verdicts)
			for i, v := range verdicts {
				if v != vDuplicate {
					t.Fatalf("replayed session record %d: verdict %d, want a duplicate", i, v)
				}
			}
			if srv2.Applied() != pos {
				t.Fatalf("replayed duplicates moved the position %d -> %d", pos, srv2.Applied())
			}
		})
	}
}
