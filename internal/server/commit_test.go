package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
	"cisgraph/internal/stats"
)

// absentAdds returns n additions of distinct edges absent from g, so every
// one of them passes the sanitizer and takes exactly one position.
func absentAdds(g *graph.Dynamic, n int) []graph.Update {
	var ups []graph.Update
	nv := uint32(g.NumVertices())
	// Each pass takes at most one edge per source, at a different offset.
	for pass := uint32(0); pass < nv && len(ups) < n; pass++ {
		for u := uint32(0); u < nv && len(ups) < n; u++ {
			v := (u*7 + 13 + 31*pass) % nv
			if _, ok := g.HasEdge(u, v); !ok && u != v {
				ups = append(ups, graph.Add(u, v, 1.5))
			}
		}
	}
	return ups
}

// TestCheckpointCadenceOneRule: every front that checkpoints — JSON bodies,
// CGBIN/2 groups, the follower tail — writes one exactly when the stream
// position crosses a multiple of CheckpointEvery, and WAL replay writes none.
func TestCheckpointCadenceOneRule(t *testing.T) {
	const every = 5
	w := testWorkload(t)
	a := testAlgo(t)
	g0 := w.Initial()
	cfg := leaderConfig(t)
	cfg.CheckpointEvery = every
	leader, err := New(g0.Clone(), a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Drain()
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	for _, p := range w.QueryPairsConnected(3) {
		leader.Pool().Register(core.Query{S: p[0], D: p[1]})
	}

	fcfg := followerConfig(ts.URL)
	fdir := t.TempDir()
	fcfg.WALPath = filepath.Join(fdir, "f.wal")
	fcfg.CheckpointPath = filepath.Join(fdir, "f.ckpt")
	fcfg.CheckpointEvery = every
	fol, err := StartFollower(a, fcfg, func() (*graph.Dynamic, error) { return g0.Clone(), nil })
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Drain()

	checkpoints := func(s *Server) uint64 { return uint64(s.Counters().Get(CntCheckpoints)) }
	through := func(path string) uint64 {
		t.Helper()
		th, _, _, err := resilience.ReadCheckpointMeta(path)
		if err != nil {
			t.Fatal(err)
		}
		return th
	}
	var wantCount, wantThrough uint64
	// advanced checks both nodes after the leader moved from `before` to its
	// current position: the leader checkpointed iff the commit crossed a
	// multiple, at the commit's position; the follower commits one record at
	// a time, so it checkpoints at every multiple (plus its bootstrap one).
	advanced := func(front string, before uint64) {
		t.Helper()
		pos := leader.Applied()
		if pos/every > before/every {
			wantCount, wantThrough = wantCount+1, pos
		}
		if got := checkpoints(leader); got != wantCount {
			t.Fatalf("%s %d→%d: leader wrote %d checkpoints, want %d", front, before, pos, got, wantCount)
		}
		if wantCount > 0 && through(cfg.CheckpointPath) != wantThrough {
			t.Fatalf("%s %d→%d: leader checkpoint through %d, want %d", front, before, pos, through(cfg.CheckpointPath), wantThrough)
		}
		folWant := 1 + pos/every
		waitFor(t, 10*time.Second, func() bool { return fol.Applied() >= pos && checkpoints(fol) >= folWant },
			"follower did not reach the leader's position and checkpoint count")
		if got := checkpoints(fol); got != folWant {
			t.Fatalf("%s at %d: follower wrote %d checkpoints, want %d", front, pos, got, folWant)
		}
		if got := through(fcfg.CheckpointPath); got != pos/every*every {
			t.Fatalf("%s at %d: follower checkpoint through %d, want %d", front, pos, got, pos/every*every)
		}
	}

	ups := absentAdds(g0, 2*7+3*4+4*4)
	// JSON bodies: one position per body.
	for i := 0; i < 7; i++ {
		before := leader.Applied()
		postUpdatesHTTP(t, ts.Client(), ts.URL, ups[:2])
		ups = ups[2:]
		waitQuiescedSrv(t, leader)
		advanced("JSON body", before)
	}
	// CGBIN/2 groups of 3 and 4 updates: one position per update.
	bc, closeBin := dialBinary(t, leader)
	defer closeBin()
	for i := 0; i < 8; i++ {
		n := 3 + i%2
		before := leader.Applied()
		if ack := bc.roundTrip(ups[:n]); ack.Status != BinStatusOK || ack.Accepted != uint32(n) {
			t.Fatalf("group %d: ack %+v", i, ack)
		}
		ups = ups[n:]
		advanced("CGBIN/2 group", before)
	}

	// Replay writes none: restore a copy of the leader's log without its
	// checkpoint, so the replay crosses every multiple on the way.
	rdir := t.TempDir()
	rcfg := cfg
	rcfg.WALPath = filepath.Join(rdir, "srv.wal")
	rcfg.CheckpointPath = filepath.Join(rdir, "srv.ckpt")
	copyDir(t, cfg.WALPath, rcfg.WALPath)
	restored, err := Restore(a, rcfg, func() (*graph.Dynamic, error) { return g0.Clone(), nil })
	if err != nil {
		t.Fatal(err)
	}
	if restored.Applied() != leader.Applied() {
		t.Fatalf("restored position %d, want %d", restored.Applied(), leader.Applied())
	}
	if got := checkpoints(restored); got != 0 {
		t.Fatalf("replay wrote %d checkpoints, want 0", got)
	}
	if _, err := os.Stat(rcfg.CheckpointPath); !os.IsNotExist(err) {
		t.Fatalf("replay left a checkpoint file behind (stat: %v)", err)
	}
	if err := restored.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := checkpoints(restored); got != 1 || through(rcfg.CheckpointPath) != leader.Applied() {
		t.Fatalf("drain: %d checkpoints through %d, want 1 through %d", got, through(rcfg.CheckpointPath), leader.Applied())
	}
}

// copyDir copies the regular files under src into dst, recreating its
// directories — the durable state a SIGKILL would leave, when taken while
// the server is still up.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path) // path came from walking src
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// safeToggles returns n edges added and deleted again, each leaving a vertex
// no query source reaches: useless for every query in both directions, so
// every source group skips a group of them.
func safeToggles(g *graph.Dynamic, sources []graph.VertexID, n int) []graph.Update {
	reached := make([]bool, g.NumVertices())
	stack := append([]graph.VertexID(nil), sources...)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reached[u] {
			continue
		}
		reached[u] = true
		for _, e := range g.Out(u) {
			stack = append(stack, e.To)
		}
	}
	var ups []graph.Update
	for u := range reached {
		for v := range reached {
			if len(ups) == 2*n {
				return ups
			}
			if _, ok := g.HasEdge(graph.VertexID(u), graph.VertexID(v)); !reached[u] && u != v && !ok {
				add := graph.Add(graph.VertexID(u), graph.VertexID(v), 1.5)
				ups = append(ups, add, graph.Del(add.From, add.To, add.W))
			}
		}
	}
	return ups
}

// TestFastCommitAllocs guards the shared stage's cost on the fast path:
// steady-state single-session groups of toggles (edges added and deleted
// again, so every group is valid and leaves the topology as it found it),
// WAL on, allocate no more than their ceilings — the counts measured once the
// sanitizer reused one overlay and the server stopped keeping a second
// topology. The 64-update group is the historical one: absent edges, a few of
// them unsafe, 39 allocations before (118 when the fast path still had its
// own commit). The 512-update group is all safe, so nothing but the stage
// itself allocates: 27 before, most of it the sanitizer's per-commit maps
// growing through the group. Each group reaches the engine as one batch.
func TestFastCommitAllocs(t *testing.T) {
	for _, tc := range []struct {
		n, ceiling int
		safeOnly   bool
	}{{64, 25, false}, {512, 1, true}} {
		t.Run(fmt.Sprintf("%d-update group", tc.n), func(t *testing.T) {
			w := testWorkload(t)
			g := w.Initial()
			cfg := Config{}
			cfg.WALPath = filepath.Join(t.TempDir(), "srv.wal")
			srv, err := New(g, testAlgo(t), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Drain()
			var sources []graph.VertexID
			for _, p := range w.QueryPairsConnected(4) {
				srv.Pool().Register(core.Query{S: p[0], D: p[1]})
				sources = append(sources, p[0])
			}
			var ups []graph.Update
			if tc.safeOnly {
				ups = safeToggles(g, sources, tc.n/2)
			} else {
				for _, add := range absentAdds(g, tc.n/2) {
					ups = append(ups, add, graph.Del(add.From, add.To, add.W))
				}
			}
			if len(ups) != tc.n {
				t.Fatalf("built a %d-update group, want %d", len(ups), tc.n)
			}
			e := &entry{ups: ups, sid: 7, seq: 1, q: newAckQueue(1)}
			entries := []*entry{e}
			run := func() {
				srv.in.pending.Add(1)
				srv.in.commitGroup(entries)
				if a := e.ack; !e.done || a.Status != BinStatusOK || a.Accepted != uint32(tc.n) {
					t.Fatalf("ack %+v (resolved %v)", a, e.done)
				}
				e.seq, e.done = e.seq+uint64(tc.n), false
			}
			for i := 0; i < 20; i++ {
				run()
			}
			allocs := testing.AllocsPerRun(200, run)
			t.Logf("allocs per %d-update group: %.1f (ceiling %d)", tc.n, allocs, tc.ceiling)
			if allocs > float64(tc.ceiling) {
				t.Fatalf("a %d-update group allocates %.1f objects, over its ceiling of %d", tc.n, allocs, tc.ceiling)
			}
			if tc.safeOnly {
				distinct := map[graph.VertexID]bool{}
				for _, src := range sources {
					distinct[src] = true
				}
				groups := len(distinct)
				cnt := srv.pool.Counters()
				before := cnt.Get(stats.CntUpdateSkipGroups)
				run()
				if skipped := cnt.Get(stats.CntUpdateSkipGroups) - before; skipped != int64(groups) {
					t.Fatalf("the all-safe group skipped %d of %d source groups", skipped, groups)
				}
			}
		})
	}
}

// walRecord frames one record the way every log generation did: uint64
// index | uint32 length | uint32 CRC | payload.
func walRecord(idx uint64, batch []graph.Update) []byte {
	return resilience.AppendRecord(nil, resilience.Record{Index: idx, Batch: batch})
}

// TestRetiredFormatsRejected: every superseded on-disk and wire generation
// is refused with an error naming what was refused, and durable bytes are
// never rewritten — a retired log is not a torn tail to truncate.
func TestRetiredFormatsRejected(t *testing.T) {
	batch := []graph.Update{graph.Add(1, 2, 3)}
	unchanged := func(t *testing.T, path string, want []byte) {
		t.Helper()
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s was modified (err %v)", path, err)
		}
	}

	t.Run("CGWALOG1 single-file log", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "srv.wal")
		data := append([]byte("CGWALOG1"), walRecord(0, batch)...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if w, err := resilience.OpenSegmentedWAL(path, resilience.SegWALOptions{}); err == nil {
			w.Close()
			t.Fatal("OpenSegmentedWAL accepted a single-file log")
		}
		if _, err := resilience.ReplaySegmented(path); err == nil {
			t.Fatal("ReplaySegmented accepted a single-file log")
		}
		unchanged(t, path, data)
	})

	t.Run("CGWALOG2 segment", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "srv.wal")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, "seg-00000000000000000000.wal")
		data := append([]byte("CGWALOG2"), walRecord(0, batch)...)
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := resilience.OpenSegmentedWAL(dir, resilience.SegWALOptions{})
		if err == nil {
			w.Close()
			t.Fatal("OpenSegmentedWAL accepted a CGWALOG2 segment")
		}
		if !strings.Contains(err.Error(), seg) {
			t.Fatalf("open error %q does not name %s", err, seg)
		}
		_, err = resilience.ReplaySegmented(dir)
		if err == nil {
			t.Fatal("ReplaySegmented accepted a CGWALOG2 segment")
		}
		if !strings.Contains(err.Error(), seg) {
			t.Fatalf("replay error %q does not name %s", err, seg)
		}
		unchanged(t, seg, data)
	})

	t.Run("CGRC v1 envelope", func(t *testing.T) {
		payload := []byte("snapshot")
		env := append([]byte("CGRC"), binary.LittleEndian.AppendUint32(nil, 1)...)
		env = binary.LittleEndian.AppendUint64(env, 7)
		env = binary.LittleEndian.AppendUint32(env, uint32(len(payload)))
		env = binary.LittleEndian.AppendUint32(env, crc32.ChecksumIEEE(payload))
		env = append(env, payload...)
		if _, _, _, err := resilience.ReadCheckpoint(bytes.NewReader(env), nil); err == nil || !strings.Contains(err.Error(), "version 1") {
			t.Fatalf("v1 checkpoint envelope: err %v, want an unsupported-version error", err)
		}
	})

	t.Run("CGSRVS1 payload", func(t *testing.T) {
		g := graph.NewDynamic(4)
		g.Apply([]graph.Update{graph.Add(0, 1, 2)})
		v2 := encodeState(g, []core.Query{{S: 0, D: 1}}, nil)
		// v1 was the same layout without the trailing session count.
		v1 := append([]byte("CGSRVS1\n"), v2[8:len(v2)-4]...)
		if _, _, _, err := decodeState(v1); err == nil || !strings.Contains(err.Error(), "CGSRVS1") {
			t.Fatalf("CGSRVS1 payload: err %v, want a bad-header error naming it", err)
		}
	})

	t.Run("CGBIN/1 hello", func(t *testing.T) {
		srv, err := New(graph.NewDynamic(8), testAlgo(t), Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Drain()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go srv.ServeBinary(ln)
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write([]byte("CGBIN/1\n")); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		if n, err := io.ReadFull(c, make([]byte, BinAckSize)); err == nil || n != 0 {
			t.Fatalf("CGBIN/1 hello answered (%d bytes, err %v); want the connection closed", n, err)
		}
		if got := srv.Counters().Get(CntBinBadFrames); got != 1 {
			t.Fatalf("srv_binary_bad_frames = %d, want 1", got)
		}
		if srv.Applied() != 0 {
			t.Fatal("a CGBIN/1 frame was applied")
		}
	})
}
