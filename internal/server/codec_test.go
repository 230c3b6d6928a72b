package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/replication"
	"cisgraph/internal/resilience"
)

// The five formats an edge or an update travels in — the .bel snapshot, the
// checkpoint, the WAL, the replication tail and CGBIN/2 — each encode a
// fixed set here, and the bytes must equal the fixtures in testdata/codec,
// which pin the layouts: no refactor of a codec may move a byte.

// goldenWeights are weights whose bit patterns sit at the edges of
// IEEE-754: signed zero, infinities, a NaN with a payload, the smallest
// denormal and the largest finite value.
var goldenWeights = []float64{
	0.5, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8_0000_dead_beef), math.SmallestNonzeroFloat64, -math.MaxFloat64, 3,
}

// goldenArcs is a valid edge list of goldenN vertices that crosses the
// 8- and 16-bit vertex boundaries.
const goldenN = 70000

func goldenArcs() []graph.Arc {
	ends := [][2]graph.VertexID{{0, 1}, {1, 255}, {255, 256}, {256, 65535}, {65535, 65536}, {65536, 69999}, {69999, 0}, {3, 1}}
	arcs := make([]graph.Arc, len(ends))
	for i, e := range ends {
		arcs[i] = graph.Arc{From: e[0], To: e[1], W: goldenWeights[i]}
	}
	return arcs
}

// goldenRecords are log records of adds, deletes and a reweight (an add of
// an arc already present under a new weight), tagged and untagged, with
// extreme vertex ids and weights.
func goldenRecords() []resilience.Record {
	return []resilience.Record{
		{Batch: []graph.Update{graph.Add(1, 2, goldenWeights[0]), graph.Del(3, 4, goldenWeights[1]), graph.Add(1, 2, goldenWeights[7])}},
		{Batch: []graph.Update{graph.Del(math.MaxUint32, 0, goldenWeights[4])}, SID: 0xfeed_f00d_0000_0001, Seq: 42},
		{Batch: []graph.Update{}},
		{Batch: []graph.Update{graph.Add(65536, 65535, goldenWeights[2]), graph.Add(7, 8, goldenWeights[5])}, SID: math.MaxUint64, Seq: math.MaxUint64},
		{Batch: []graph.Update{graph.Del(9, math.MaxUint32-1, goldenWeights[6]), graph.Del(10, 11, goldenWeights[3])}},
	}
}

// checkGolden compares got with the fixture testdata/codec/<name>.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "codec", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes differ from the %d-byte fixture\ngot  %x\nwant %x", name, len(got), len(want), got, want)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// onlySegment returns the path of the one segment file in the log at dir.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("log %s: segments %v, %v; want one", dir, paths, err)
	}
	return paths[0]
}

func TestCodecGoldenBytes(t *testing.T) {
	t.Run("bel", func(t *testing.T) {
		el := &graph.EdgeList{Name: "golden", N: goldenN, Arcs: goldenArcs()}
		path := filepath.Join(t.TempDir(), "g.bel")
		if err := graph.SaveFile(path, el); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "graph.bel", readFile(t, path))
		back, err := graph.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if back.Name != el.Name || back.N != el.N || len(back.Arcs) != len(el.Arcs) {
			t.Fatalf("round trip: %s N=%d M=%d", back.Name, back.N, len(back.Arcs))
		}
		for i, a := range back.Arcs {
			if want := el.Arcs[i]; a.From != want.From || a.To != want.To || math.Float64bits(a.W) != math.Float64bits(want.W) {
				t.Fatalf("arc %d: %+v, want %+v", i, a, want)
			}
		}
	})
	t.Run("checkpoint", func(t *testing.T) {
		g := graph.FromEdgeList(&graph.EdgeList{N: goldenN, Arcs: goldenArcs()})
		queries := []core.Query{{S: 0, D: 69999}, {S: 65536, D: 1}}
		sessions := []dedupSession{{SID: 1, Seq: 0}, {SID: math.MaxUint64, Seq: math.MaxUint64}}
		payload := encodeState(g, queries, sessions)
		path := filepath.Join(t.TempDir(), "ckpt")
		if err := resilience.WriteCheckpointMetaFS(resilience.OsFS{}, path, 17, 2, payload); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "checkpoint.ckpt", readFile(t, path))
		g2, q2, s2, err := decodeState(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeState(g2, q2, s2), payload) {
			t.Fatal("decode then encode changed the checkpoint payload")
		}
	})
	t.Run("wal+tail", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "wal")
		wal, err := resilience.OpenSegmentedWAL(dir, resilience.SegWALOptions{Epoch: 3, StartIndex: 5})
		if err != nil {
			t.Fatal(err)
		}
		defer wal.Close()
		if _, err := wal.AppendRecords(goldenRecords()); err != nil {
			t.Fatal(err)
		}
		seg := readFile(t, onlySegment(t, dir))
		checkGolden(t, "wal.seg", seg)

		src := &replication.Source{WAL: wal, LongPoll: 50 * time.Millisecond}
		ts := httptest.NewServer(http.HandlerFunc(src.ServeTail))
		defer ts.Close()
		resp, err := ts.Client().Get(ts.URL + replication.PathTail + "?from=5")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("tail: %s, %v", resp.Status, err)
		}
		checkGolden(t, "tail.bin", body)
		if !bytes.Equal(body, seg[16:]) {
			t.Fatal("tail frames differ from the segment's records")
		}
	})
	t.Run("cgbin2", func(t *testing.T) {
		var buf []byte
		seq := uint64(100)
		for _, rec := range goldenRecords() {
			if len(rec.Batch) == 0 {
				continue
			}
			buf = AppendBinFrameSession(buf, 0xc0ffee, seq, rec.Batch)
			seq += uint64(len(rec.Batch))
		}
		checkGolden(t, "frames.cgbin", buf)
		r := bytes.NewReader(buf)
		for _, rec := range goldenRecords() {
			if len(rec.Batch) == 0 {
				continue
			}
			ups, _, sid, _, err := ReadBinFrameSession(r, nil, nil)
			if err != nil || sid != 0xc0ffee || len(ups) != len(rec.Batch) {
				t.Fatalf("frame: %d updates, sid %x, %v", len(ups), sid, err)
			}
		}
	})
}

// TestOpByteTwoRefused: an update's op byte is 0 (add) or 1 (delete). A
// record whose op byte is 2 — with a CRC that matches it, so only the op
// check can catch it — is malformed on every path: the log scan ends the
// valid prefix before it, the tail reader refuses it, and a CGBIN/2 frame
// carrying it is a protocol error. None of them reads it as an addition.
func TestOpByteTwoRefused(t *testing.T) {
	// A two-record log, +1->2(3) then -1->2(3); the second record's op byte
	// becomes 2, its CRC recomputed.
	dir := filepath.Join(t.TempDir(), "wal")
	wal, err := resilience.OpenSegmentedWAL(dir, resilience.SegWALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.AppendRecords([]resilience.Record{{Batch: []graph.Update{graph.Add(1, 2, 3)}}, {Batch: []graph.Update{graph.Del(1, 2, 3)}}}); err != nil {
		t.Fatal(err)
	}
	wal.Close()
	path := onlySegment(t, dir)
	seg := readFile(t, path)
	const recLen = 16 + 4 + BinUpdateSize
	second := seg[16+recLen:]
	if second[20] != 1 {
		t.Fatalf("second record's op byte is %d, want 1", second[20])
	}
	second[20] = 2
	binary.LittleEndian.PutUint32(second[12:16], crc32.ChecksumIEEE(second[16:recLen]))
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}

	t.Run("wal", func(t *testing.T) {
		recs, err := resilience.ReplaySegmented(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Batch[0] != graph.Add(1, 2, 3) {
			t.Fatalf("replay returned %v, want only record 0", recs)
		}
		w, err := resilience.OpenSegmentedWAL(dir, resilience.SegWALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if next := w.NextIndex(); next != 1 {
			t.Fatalf("open resumes at %d, want 1: the bad record is past the good length", next)
		}
	})

	t.Run("tail", func(t *testing.T) {
		// A leader whose tail ships both records as they sit in the segment.
		leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(replication.HeaderNext, "2")
			w.Write(seg[16:])
		}))
		defer leader.Close()
		tail := replication.NewTailer(replication.TailerConfig{Leader: leader.URL, LongPoll: 50 * time.Millisecond,
			BackoffBase: 10 * time.Millisecond, BackoffMax: 20 * time.Millisecond, Client: leader.Client()})
		var (
			mu      sync.Mutex
			applied []resilience.Record
		)
		tail.Apply = func(rec resilience.Record) error {
			mu.Lock()
			defer mu.Unlock()
			applied = append(applied, rec)
			return nil
		}
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		tail.Run(ctx, 0)
		mu.Lock()
		defer mu.Unlock()
		if len(applied) != 1 || applied[0].Index != 0 {
			t.Fatalf("tailer applied %v, want only record 0", applied)
		}
		if tail.Reconnects.Load() == 0 {
			t.Fatal("the bad record did not end a poll")
		}
	})

	t.Run("cgbin2", func(t *testing.T) {
		frame := AppendBinFrameSession(nil, 1, 1, []graph.Update{graph.Del(1, 2, 3)})
		frame[8+BinSessionOverhead] = 2
		binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[8:]))
		if ups, _, _, _, err := ReadBinFrameSession(bytes.NewReader(frame), nil, nil); err == nil {
			t.Fatalf("frame with op byte 2 decoded as %v", ups)
		}
	})
}
