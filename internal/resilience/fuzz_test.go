package resilience

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
)

// decodeFuzzBatch turns arbitrary bytes into an update batch, deliberately
// WITHOUT clamping: IDs may be far out of range, weights may be NaN/Inf/
// negative, self-loops and duplicates are all possible. That is the point —
// the sanitizer must tame whatever this produces.
func decodeFuzzBatch(data []byte) []graph.Update {
	var batch []graph.Update
	for i := 0; i+13 <= len(data) && len(batch) < 64; i += 13 {
		up := graph.Update{Del: data[i]&1 == 1}
		up.From = binary.LittleEndian.Uint32(data[i+1 : i+5])
		up.To = binary.LittleEndian.Uint32(data[i+5 : i+9])
		up.W = math.Float64frombits(uint64(binary.LittleEndian.Uint32(data[i+9:i+13])) |
			uint64(data[i])<<32) // low-entropy but can hit NaN/Inf patterns
		if data[i]&2 == 2 {
			up.W = math.NaN()
		}
		if data[i]&4 == 4 {
			up.W = -up.W
		}
		if data[i]&8 == 8 {
			up.From %= 64 // bias some IDs into range so updates survive
			up.To %= 64
		}
		batch = append(batch, up)
	}
	return batch
}

// sanitizeAllocBound is FuzzSanitize's allocation bound for l input bytes:
// the clean batch (at most one 24-byte update per 13 input bytes, doubled by
// regrowth) and the drop report, plus 16 KiB for the sanitizer and its
// presence overlay, which a pass sizes by the batch.
func sanitizeAllocBound(l int) uint64 { return 8*uint64(l) + 16<<10 }

// FuzzSanitize: for arbitrary byte-derived batches, the drop pass's output
// must (a) pass ValidateBatch against the same topology — a second drop
// pass drops nothing — (b) apply to the graph without panicking, (c) keep a
// CISO engine in agreement with ColdStart, and (d) cost at most
// sanitizeAllocBound.
func FuzzSanitize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 1, 0, 0, 0, 2, 0, 0, 0, 64, 64, 64, 64})
	f.Add([]byte{2, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0})
	long := make([]byte, 13*20)
	for i := range long {
		long[i] = byte(i * 7)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		el := graph.Uniform("fuzz", 48, 200, 8, 9)
		g := graph.FromEdgeList(el)
		batch := decodeFuzzBatch(data)

		var (
			clean []graph.Update
			err   error
		)
		alloc := allocatedBy(func() { clean, _, err = NewSanitizer(PolicyDrop, nil).Sanitize(g, batch) })
		if err != nil {
			t.Fatalf("drop policy must never error: %v", err)
		}
		if limit := sanitizeAllocBound(len(data)); alloc > limit {
			t.Fatalf("%d input bytes (%d updates) allocated %d bytes sanitizing, over %d", len(data), len(batch), alloc, limit)
		}
		if vErr := ValidateBatch(g, clean); vErr != nil {
			t.Fatalf("sanitized batch fails validation: %v", vErr)
		}

		// The clean batch must be safe for the topology and all engines.
		q := core.Query{S: 0, D: 31}
		ref := core.NewColdStart()
		ref.Reset(g.Clone(), algo.PPSP{}, q)
		want := ref.ApplyBatch(clean).Answer

		ciso := core.NewCISO()
		ciso.Reset(g.Clone(), algo.PPSP{}, q)
		if got := ciso.ApplyBatch(clean).Answer; got != want {
			t.Fatalf("CISO %v != ColdStart %v on sanitized batch %v", got, want, clean)
		}
	})
}

// allocatedBy returns the bytes the heap handed out while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// recScanAllocBound is FuzzRecScan's allocation bound for a segment of l
// bytes: the read buffer holds at most the file, and the decoded records and
// updates cost at most ~2.6 B per byte once reserved — up to ~9 B per byte
// when records carry no updates and the record slice regrows past its
// reservation — plus 64 KiB for the directory listing, the open file and
// the replay itself.
func recScanAllocBound(l int) uint64 { return 16*uint64(l) + 64<<10 }

// segmentBytes returns the bytes of a one-segment log holding recs.
func segmentBytes(f *testing.F, recs []Record) []byte {
	dir := filepath.Join(f.TempDir(), "log")
	w, err := CreateSegmentedWAL(dir, SegWALOptions{})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := w.AppendRecords(recs); err != nil {
		f.Fatal(err)
	}
	w.Close()
	data, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzRecScan: arbitrary bytes as the one segment of a log. Replaying it
// from any position never panics, returns exactly the records and the error
// of decoding every record and then filtering (refReplay), and allocates at
// most recScanAllocBound; opening it keeps exactly the reference's good
// prefix.
func FuzzRecScan(f *testing.F) {
	good := segmentBytes(f, []Record{
		{Batch: segBatch(1)},
		{Batch: []graph.Update{graph.Add(1, 2, 0.5), graph.Del(3, 4, 1)}, SID: 7, Seq: 9},
		{Batch: []graph.Update{}},
		{Batch: segBatch(4)},
	})
	f.Add(good, uint8(0))
	f.Add(good, uint8(2))
	f.Add(good[:len(good)-5], uint8(1)) // torn tail
	flip := append([]byte(nil), good...)
	flip[segHeaderLen+20] ^= 0x10 // CRC mismatch in the first record
	f.Add(flip, uint8(0))
	f.Add(append([]byte("CGWALOG2"), good[8:]...), uint8(0)) // foreign header
	gap := append([]byte(nil), good...)
	starts := recordStarts(gap)
	binary.LittleEndian.PutUint64(gap[starts[2]:], 5) // index gap at the third record
	f.Add(gap, uint8(0))
	f.Add(good[:9], uint8(0)) // torn header
	op2 := append([]byte(nil), good...)
	starts = recordStarts(op2)
	op2[starts[1]+16+4] = 2 // an op byte that is neither add nor delete, under a matching CRC
	binary.LittleEndian.PutUint32(op2[starts[1]+12:], crc32.ChecksumIEEE(op2[starts[1]+16:starts[2]]))
	f.Add(op2, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, from uint8) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(0))
		writeFile(t, path, data)
		var (
			got []Record
			err error
		)
		alloc := allocatedBy(func() { got, err = ReplaySegmentedFS(OsFS{}, dir, uint64(from)) })
		want, wantErr := refReplay(dir, uint64(from))
		if d := sameResult(got, want, err, wantErr); d != nil {
			t.Fatalf("from %d: %v", from, d)
		}
		if limit := recScanAllocBound(len(data)); alloc > limit {
			t.Fatalf("%d-byte segment allocated %d bytes, over %d", len(data), alloc, limit)
		}
		_, torn, hdrErr := segEpoch(path, data)
		w, err := OpenSegmentedWAL(dir, SegWALOptions{})
		if fmt.Sprint(err) != fmt.Sprint(hdrErr) {
			t.Fatalf("open error %v, header check %v", err, hdrErr)
		}
		if err != nil {
			return
		}
		defer w.Close()
		if _, off, _ := refScanSegment(path, data, nil); !torn && w.good != off {
			t.Fatalf("open kept %d bytes, reference %d", w.good, off)
		}
	})
}
