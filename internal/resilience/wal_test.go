package resilience

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cisgraph/internal/graph"
)

func sampleBatches() [][]graph.Update {
	return [][]graph.Update{
		{graph.Add(1, 2, 3.5), graph.Del(4, 5, 6)},
		{}, // empty batches are valid records
		{graph.Add(0, 7, math.MaxFloat64)},
		{graph.Del(2, 1, 0.125), graph.Add(9, 3, 1), graph.Add(3, 9, 2)},
	}
}

// appendBatches appends each batch as one record and checks the indices.
func appendBatches(t *testing.T, w *SegmentedWAL, batches [][]graph.Update) {
	t.Helper()
	for _, b := range batches {
		want := w.NextIndex()
		idx, err := w.AppendRecords([]Record{{Batch: b}})
		if err != nil {
			t.Fatal(err)
		}
		if idx != want {
			t.Fatalf("append got index %d, want %d", idx, want)
		}
	}
}

func writeWAL(t *testing.T, dir string, batches [][]graph.Update) {
	t.Helper()
	w, err := CreateSegmentedWAL(dir, SegWALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendBatches(t, w, batches)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// lastSegment returns the path of the newest segment file in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	firsts := segFiles(t, dir)
	if len(firsts) == 0 {
		t.Fatalf("%s holds no segment", dir)
	}
	return filepath.Join(dir, segName(firsts[len(firsts)-1]))
}

func TestWALRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "stream.wal")
	batches := sampleBatches()
	writeWAL(t, dir, batches)

	recs, err := ReplaySegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(batches) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(batches))
	}
	for i, rec := range recs {
		if rec.Index != uint64(i) {
			t.Errorf("record %d has index %d", i, rec.Index)
		}
		want := batches[i]
		if len(rec.Batch) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(rec.Batch, want) {
			t.Errorf("record %d: got %v want %v", i, rec.Batch, want)
		}
	}
}

func TestWALReopenAppends(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "stream.wal")
	batches := sampleBatches()
	writeWAL(t, dir, batches[:2])

	w, err := OpenSegmentedWAL(dir, SegWALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if w.NextIndex() != 2 {
		t.Fatalf("reopened NextIndex = %d, want 2", w.NextIndex())
	}
	appendBatches(t, w, batches[2:])
	w.Close()

	recs, err := ReplaySegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(batches) {
		t.Fatalf("replayed %d records after reopen, want %d", len(recs), len(batches))
	}
}

// TestWALTornTail simulates a crash mid-append: garbage after the last good
// record. Replay must stop at the last good record, and OpenSegmentedWAL must
// truncate the tail so appending resumes cleanly.
func TestWALTornTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "stream.wal")
	batches := sampleBatches()
	writeWAL(t, dir, batches)

	f, err := os.OpenFile(lastSegment(t, dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible-looking partial record header plus a few payload bytes.
	f.Write([]byte{4, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff})
	f.Close()

	recs, err := ReplaySegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(batches) {
		t.Fatalf("torn tail: replayed %d records, want %d", len(recs), len(batches))
	}

	w, err := OpenSegmentedWAL(dir, SegWALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if w.NextIndex() != uint64(len(batches)) {
		t.Fatalf("NextIndex after torn-tail reopen = %d, want %d", w.NextIndex(), len(batches))
	}
	appendBatches(t, w, [][]graph.Update{{graph.Add(1, 3, 1)}})
	w.Close()
	recs, err = ReplaySegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(batches)+1 {
		t.Fatalf("after truncate+append: %d records, want %d", len(recs), len(batches)+1)
	}
}

// TestWALBitFlip flips one payload byte in the first record of the last
// segment; replay must keep everything before the damaged record and nothing
// after it.
func TestWALBitFlip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "stream.wal")
	batches := sampleBatches()
	writeWAL(t, dir, batches)

	path := lastSegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Record 0 payload starts after the segment header and the 16-byte
	// record header. Flip a byte inside it.
	data[segHeaderLen+16+5] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, err := ReplaySegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("bit flip in record 0: replayed %d records, want 0", len(recs))
	}
}

// A non-WAL file at the log path is refused by both the reader and the
// writer, and left as it was.
func TestWALRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-wal")
	content := []byte("hello, world: definitely not a log")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplaySegmented(path); err == nil {
		t.Fatal("replay accepted a non-WAL file")
	}
	if w, err := OpenSegmentedWAL(path, SegWALOptions{}); err == nil {
		w.Close()
		t.Fatal("open accepted a non-WAL file")
	}
	if got, _ := os.ReadFile(path); string(got) != string(content) {
		t.Fatal("a refused file was modified")
	}
}

func TestWALMissingFile(t *testing.T) {
	recs, err := ReplaySegmented(filepath.Join(t.TempDir(), "absent.wal"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("missing WAL should replay empty: recs=%v err=%v", recs, err)
	}
}

func TestGuardCheckpointFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	payload := []byte("engine snapshot bytes go here")
	if err := WriteCheckpointMetaFS(OsFS{}, path, 42, 3, payload); err != nil {
		t.Fatal(err)
	}
	through, epoch, got, err := ReadCheckpointMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	if through != 42 || epoch != 3 || string(got) != string(payload) {
		t.Fatalf("round trip: through=%d epoch=%d payload=%q", through, epoch, got)
	}

	// Overwrite must be atomic and replace the old contents.
	if err := WriteCheckpointMetaFS(OsFS{}, path, 43, 0, []byte("newer")); err != nil {
		t.Fatal(err)
	}
	through, epoch, got, _ = ReadCheckpointMeta(path)
	if through != 43 || epoch != 0 || string(got) != "newer" {
		t.Fatalf("overwrite: through=%d epoch=%d payload=%q", through, epoch, got)
	}
	// No stray temp files left behind.
	ents, _ := os.ReadDir(filepath.Dir(path))
	if len(ents) != 1 {
		t.Fatalf("temp file leaked: %v", ents)
	}
}

func TestGuardCheckpointFileCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	if err := WriteCheckpointMetaFS(OsFS{}, path, 7, 0, []byte("snapshot payload")); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)

	t.Run("bit flip", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[len(bad)-3] ^= 0x01
		p := filepath.Join(dir, "flip.ckpt")
		os.WriteFile(p, bad, 0o644)
		if _, _, _, err := ReadCheckpointMeta(p); err == nil {
			t.Fatal("bit-flipped checkpoint accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		p := filepath.Join(dir, "trunc.ckpt")
		os.WriteFile(p, data[:len(data)-5], 0o644)
		if _, _, _, err := ReadCheckpointMeta(p); err == nil {
			t.Fatal("truncated checkpoint accepted")
		}
	})
	t.Run("wrong magic", func(t *testing.T) {
		p := filepath.Join(dir, "magic.ckpt")
		bad := append([]byte(nil), data...)
		bad[0] = 'X'
		os.WriteFile(p, bad, 0o644)
		if _, _, _, err := ReadCheckpointMeta(p); err == nil {
			t.Fatal("foreign magic accepted")
		}
	})
}
