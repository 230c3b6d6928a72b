package resilience

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cisgraph/internal/graph"
)

// segBatch builds a deterministic one-update batch whose content encodes i,
// so replayed records can be matched to their index.
func segBatch(i int) []graph.Update {
	return []graph.Update{graph.Add(uint32(i), uint32(i+1), float64(i)+0.5)}
}

// tinySegOpts rolls after every 2 one-update records: header 16 B, each
// record 16+21 = 37 B, and the roll check fires once good >= 64.
func tinySegOpts() SegWALOptions { return SegWALOptions{SegmentBytes: 64} }

func appendN(t *testing.T, w *SegmentedWAL, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		idx, err := w.AppendRecords([]Record{{Batch: segBatch(i)}})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if idx != uint64(i) {
			t.Fatalf("append %d returned index %d", i, idx)
		}
	}
}

func checkReplay(t *testing.T, dir string, firstIdx, n int) {
	t.Helper()
	recs, err := ReplaySegmented(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(recs) != n {
		t.Fatalf("replay: %d records, want %d", len(recs), n)
	}
	for i, rec := range recs {
		want := uint64(firstIdx + i)
		if rec.Index != want {
			t.Fatalf("replay record %d: index %d, want %d", i, rec.Index, want)
		}
		if len(rec.Batch) != 1 || rec.Batch[0].From != uint32(want) {
			t.Fatalf("replay record %d: batch %v does not encode its index", i, rec.Batch)
		}
	}
}

func segFiles(t *testing.T, dir string) []uint64 {
	t.Helper()
	firsts, err := listSegments(OsFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	return firsts
}

// Appends roll across segments; replay stitches them back in order, and
// reopening resumes at the right index.
func TestSegWALRollAndReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := OpenSegmentedWAL(dir, tinySegOpts())
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 7)
	if got := w.Segments(); got != 4 { // 2 records per segment: 0-1|2-3|4-5|6
		t.Errorf("Segments()=%d, want 4", got)
	}
	if w.Bytes() <= 0 {
		t.Error("Bytes() not positive")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	checkReplay(t, dir, 0, 7)

	w2, err := OpenSegmentedWAL(dir, tinySegOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := w2.NextIndex(); got != 7 {
		t.Fatalf("reopened NextIndex=%d, want 7", got)
	}
	appendN(t, w2, 7, 3)
	w2.Close()
	checkReplay(t, dir, 0, 10)
}

// A torn tail in the last segment (crash mid-append) is truncated on open;
// earlier segments are untouched and appending continues at the next index.
func TestSegWALTornTailLastSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := OpenSegmentedWAL(dir, tinySegOpts())
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 5) // segments 0-1 | 2-3 | 4
	w.Close()

	last := filepath.Join(dir, segName(4))
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d})
	f.Close()

	checkReplay(t, dir, 0, 5) // torn tail invisible to replay

	w2, err := OpenSegmentedWAL(dir, tinySegOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := w2.NextIndex(); got != 5 {
		t.Fatalf("NextIndex after torn tail=%d, want 5", got)
	}
	appendN(t, w2, 5, 2)
	w2.Close()
	checkReplay(t, dir, 0, 7)
}

// Retention: sealed segments wholly covered by the checkpoint are deleted;
// a checkpoint landing exactly on a segment boundary deletes everything up
// to the boundary and nothing past it; a mid-segment checkpoint keeps the
// straddling segment.
func TestSegWALRetention(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := OpenSegmentedWAL(dir, tinySegOpts())
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 7) // 0-1 | 2-3 | 4-5 | active: 6

	// Mid-segment checkpoint: through=3 covers records 0..2; segment [2,4)
	// holds record 3 and must survive.
	removed, err := w.TruncateThrough(3)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("TruncateThrough(3) removed %d segments, want 1", removed)
	}
	if got := segFiles(t, dir); len(got) != 3 || got[0] != 2 {
		t.Fatalf("after mid-segment retention: segments %v, want [2 4 6]", got)
	}

	// Exact boundary: through=4 covers [2,4) wholly.
	if removed, err = w.TruncateThrough(4); err != nil || removed != 1 {
		t.Fatalf("TruncateThrough(4): removed=%d err=%v, want 1", removed, err)
	}
	if got := segFiles(t, dir); len(got) != 2 || got[0] != 4 {
		t.Fatalf("after boundary retention: segments %v, want [4 6]", got)
	}

	// The active segment is never deleted, even when wholly covered.
	if removed, err = w.TruncateThrough(100); err != nil || removed != 1 {
		t.Fatalf("TruncateThrough(100): removed=%d err=%v, want 1", removed, err)
	}
	if got := segFiles(t, dir); len(got) != 1 || got[0] != 6 {
		t.Fatalf("active segment must survive: segments %v, want [6]", got)
	}
	appendN(t, w, 7, 1)
	w.Close()
	checkReplay(t, dir, 6, 2) // replay resumes from the surviving suffix
}

// Recovery when the newest segment is empty (crash between a roll's segment
// creation and the first record write): the next index comes from the
// segment's name.
func TestSegWALEmptyNewestSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := OpenSegmentedWAL(dir, tinySegOpts())
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 4) // 0-1 | 2-3
	w.Close()
	// Simulate the crash: a rolled segment with only its header on disk.
	if err := os.WriteFile(filepath.Join(dir, segName(4)), segHeader(0), 0o644); err != nil {
		t.Fatal(err)
	}
	checkReplay(t, dir, 0, 4)

	w2, err := OpenSegmentedWAL(dir, tinySegOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := w2.NextIndex(); got != 4 {
		t.Fatalf("NextIndex with empty newest segment=%d, want 4", got)
	}
	appendN(t, w2, 4, 2)
	w2.Close()
	checkReplay(t, dir, 0, 6)

	// Harsher: the newest segment's header itself is torn (0 of 16 bytes).
	if err := os.WriteFile(filepath.Join(dir, segName(6)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w3, err := OpenSegmentedWAL(dir, tinySegOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := w3.NextIndex(); got != 6 {
		t.Fatalf("NextIndex with torn newest header=%d, want 6", got)
	}
	appendN(t, w3, 6, 1)
	w3.Close()
	checkReplay(t, dir, 0, 7)
}

// CreateSegmentedWAL wipes previous segments (truncate-on-create).
func TestSegWALCreateWipes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := OpenSegmentedWAL(dir, tinySegOpts())
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 5)
	w.Close()

	w2, err := CreateSegmentedWAL(dir, tinySegOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := w2.NextIndex(); got != 0 {
		t.Fatalf("fresh NextIndex=%d, want 0", got)
	}
	appendN(t, w2, 0, 1)
	w2.Close()
	checkReplay(t, dir, 0, 1)
}

// A fault-injected append (the record reaches the file but its fsync dies)
// marks the segment dirty; the next append after the disk heals truncates
// the unsynced bytes, so the log stays contiguous and gap-free.
func TestSegWALFaultInjectedAppendRepairs(t *testing.T) {
	ffs := NewFaultFS(OsFS{})
	dir := filepath.Join(t.TempDir(), "wal")
	opt := tinySegOpts()
	opt.FS = ffs
	w, err := OpenSegmentedWAL(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 1)

	// The next append's ops are Write(records), Sync: let the bytes through,
	// kill the fsync — a record of unknown durability on disk.
	injected := errors.New("injected EIO")
	ffs.FailAfterWrites(1, injected)
	if _, err := w.AppendRecords([]Record{{Batch: segBatch(1)}}); err == nil {
		t.Fatal("append under injection succeeded")
	}
	if ffs.FailedOps() == 0 {
		t.Fatal("fault never fired")
	}

	// Still failing: Probe must report the disk is sick.
	if err := w.Probe(); err == nil {
		t.Fatal("probe succeeded on a failing disk")
	}

	ffs.Heal()
	if err := w.Probe(); err != nil {
		t.Fatalf("probe after heal: %v", err)
	}
	appendN(t, w, 1, 3) // same index retries cleanly after repair
	w.Close()
	checkReplay(t, dir, 0, 4)
}

// Checkpoint writes through a failing FS surface the error and leave no
// half-written checkpoint behind the atomic rename.
func TestCheckpointFaultInjection(t *testing.T) {
	ffs := NewFaultFS(OsFS{})
	path := filepath.Join(t.TempDir(), "srv.ckpt")
	if err := WriteCheckpointMetaFS(ffs, path, 7, 0, []byte("good payload")); err != nil {
		t.Fatal(err)
	}
	ffs.FailWrites(errors.New("injected ENOSPC"))
	if err := WriteCheckpointMetaFS(ffs, path, 8, 0, []byte("newer payload")); err == nil {
		t.Fatal("checkpoint write under injection succeeded")
	}
	ffs.Heal()
	through, _, payload, err := ReadCheckpointMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	if through != 7 || string(payload) != "good payload" {
		t.Fatalf("failed checkpoint clobbered the good one: through=%d payload=%q", through, payload)
	}
}

// A missing middle segment is lost acked data, never a silent skip: replay
// must fail loudly and name the gap range.
func TestSegWALMissingMiddleSegmentFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := OpenSegmentedWAL(dir, tinySegOpts())
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 7) // segments 0-1 | 2-3 | 4-5 | 6
	w.Close()

	if err := os.Remove(filepath.Join(dir, segName(2))); err != nil {
		t.Fatal(err)
	}
	_, err = ReplaySegmented(dir)
	if err == nil {
		t.Fatal("replay with a missing middle segment succeeded; want loud failure")
	}
	msg := err.Error()
	if !strings.Contains(msg, "missing segment") || !strings.Contains(msg, "[2,4)") {
		t.Fatalf("error %q does not name the gap range [2,4)", msg)
	}
}

// A sealed (non-last) segment torn mid-log is also lost acked data — the
// redo rule only forgives a torn tail in the LAST segment.
func TestSegWALTornSealedSegmentFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := OpenSegmentedWAL(dir, tinySegOpts())
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 5) // segments 0-1 | 2-3 | 4
	w.Close()

	mid := filepath.Join(dir, segName(2))
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the second record in half: record 2 survives the scan, record 3
	// is torn — but segment seg-4 still exists after it.
	if err := os.WriteFile(mid, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReplaySegmented(dir)
	if err == nil {
		t.Fatal("replay with a torn sealed segment succeeded; want loud failure")
	}
	if !strings.Contains(err.Error(), "corrupt mid-log") {
		t.Fatalf("error %q does not flag the mid-log tear", err)
	}
}

// A segment whose name disagrees with its first record's index is refused.
func TestSegWALNameContentMismatchFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := OpenSegmentedWAL(dir, tinySegOpts())
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 5)
	w.Close()

	if err := os.Rename(filepath.Join(dir, segName(2)), filepath.Join(dir, segName(3))); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplaySegmented(dir); err == nil {
		t.Fatal("replay with a renamed segment succeeded; want loud failure")
	}
}

// ReadFrom serves the replication tail: from any index (mid-segment
// included), respecting the byte budget, and reporting compaction races as
// ErrCompacted so followers re-bootstrap instead of silently skipping.
func TestSegWALReadFrom(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := OpenSegmentedWAL(dir, tinySegOpts())
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 7) // segments 0-1 | 2-3 | 4-5 | 6
	defer w.Close()

	if got := w.OldestIndex(); got != 0 {
		t.Fatalf("OldestIndex=%d, want 0", got)
	}
	infos := w.SegmentInfos()
	if len(infos) != 4 || infos[0].First != 0 || !infos[0].Sealed || infos[3].Sealed {
		t.Fatalf("SegmentInfos=%+v, want 4 segments, first sealed, last active", infos)
	}

	// Mid-segment start: index 3 sits in segment seg-2.
	recs, err := w.ReadFrom(3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[0].Index != 3 || recs[3].Index != 6 {
		t.Fatalf("ReadFrom(3): %d records starting at %d", len(recs), recs[0].Index)
	}
	for _, rec := range recs {
		if rec.Batch[0].From != uint32(rec.Index) {
			t.Fatalf("record %d batch does not encode its index", rec.Index)
		}
	}

	// Byte budget cuts on a record boundary but always yields at least one.
	recs, err = w.ReadFrom(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Index != 0 {
		t.Fatalf("ReadFrom budget=1: got %d records", len(recs))
	}

	// Caught up: nil, no error.
	if recs, err = w.ReadFrom(7, 1<<20); err != nil || len(recs) != 0 {
		t.Fatalf("ReadFrom(next)=%d recs, err %v; want 0, nil", len(recs), err)
	}

	// Retention deletes segments below the checkpoint; asking for deleted
	// records must yield ErrCompacted (the follower's 410 signal).
	if _, err := w.TruncateThrough(4); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ReadFrom(0, 1<<20); !errors.Is(err, ErrCompacted) {
		t.Fatalf("ReadFrom(compacted)=%v, want ErrCompacted", err)
	}
	if got := w.OldestIndex(); got != 4 {
		t.Fatalf("OldestIndex after retention=%d, want 4", got)
	}
	if recs, err = w.ReadFrom(4, 1<<20); err != nil || len(recs) != 3 {
		t.Fatalf("ReadFrom(4) after retention: %d recs, err %v", len(recs), err)
	}
}

// groupOf builds a group of n one-update records encoding indices from..from+n-1.
func groupOf(from, n int) []Record {
	out := make([]Record, 0, n)
	for i := from; i < from+n; i++ {
		out = append(out, Record{Batch: segBatch(i)})
	}
	return out
}

// A group append must be on-disk indistinguishable from the same sequence of
// one-record appends — consecutive indices, replayable, interleavable with
// single appends, tailable with ReadFrom — while paying one write+fsync.
func TestSegWALAppendGroup(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := OpenSegmentedWAL(dir, tinySegOpts())
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 1) // single append first: groups continue its index space
	first, err := w.AppendRecords(groupOf(1, 5))
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("group first index = %d, want 1", first)
	}
	if got := w.NextIndex(); got != 6 {
		t.Fatalf("NextIndex after group = %d, want 6", got)
	}
	appendN(t, w, 6, 1) // and single appends continue after a group

	// Empty group: positionally a no-op.
	if first, err = w.AppendRecords(nil); err != nil || first != 7 {
		t.Fatalf("empty group: first=%d err=%v", first, err)
	}

	// A tail reader sees the group as individual records.
	recs, err := w.ReadFrom(2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[0].Index != 2 {
		t.Fatalf("ReadFrom(2): %d records, first %d", len(recs), recs[0].Index)
	}
	w.Close()
	checkReplay(t, dir, 0, 7)

	// Reopen resumes past the group.
	w2, err := OpenSegmentedWAL(dir, tinySegOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.NextIndex(); got != 7 {
		t.Fatalf("NextIndex after reopen = %d, want 7", got)
	}
}

// A failed group append counts no record of the group: after the disk heals
// the whole group retries at the same indices and the log stays contiguous.
func TestSegWALAppendGroupFaultAtomicity(t *testing.T) {
	ffs := NewFaultFS(OsFS{})
	dir := filepath.Join(t.TempDir(), "wal")
	opt := tinySegOpts()
	opt.FS = ffs
	w, err := OpenSegmentedWAL(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 2)

	ffs.FailWrites(errors.New("injected EIO"))
	if _, err := w.AppendRecords(groupOf(2, 4)); err == nil {
		t.Fatal("group append under injection succeeded")
	}
	if got := w.NextIndex(); got != 2 {
		t.Fatalf("NextIndex after failed group = %d, want 2", got)
	}
	ffs.Heal()
	first, err := w.AppendRecords(groupOf(2, 4))
	if err != nil {
		t.Fatalf("group retry after heal: %v", err)
	}
	if first != 2 {
		t.Fatalf("retried group first = %d, want 2", first)
	}
	w.Close()
	checkReplay(t, dir, 0, 6)
}
