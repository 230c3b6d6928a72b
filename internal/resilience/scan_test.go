package resilience

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"cisgraph/internal/graph"
)

// The scanner differential: ReplaySegmentedFS, ReadFrom and OpenSegmentedWAL
// validate records below their `from` without decoding them. They must
// behave exactly like the reference below — every record decoded, then
// filtered — on intact logs and on logs with flipped bits, torn tails and
// index gaps: the same records, the same errors, the same good offset.

// refScanRecords decodes the whole valid record prefix of a segment body,
// appending to recs (the contiguity context across segments).
func refScanRecords(data []byte, recs []Record) ([]Record, int64) {
	var off int64
	rest := data
	for len(rest) >= 16 {
		idx := binary.LittleEndian.Uint64(rest[0:8])
		plen := binary.LittleEndian.Uint32(rest[8:12])
		want := binary.LittleEndian.Uint32(rest[12:16])
		if plen > maxWALRecord || len(rest) < 16+int(plen) {
			break
		}
		payload := rest[16 : 16+plen]
		if crc32.ChecksumIEEE(payload) != want {
			break
		}
		n, sid, seq, ok := recHeader{crc: want}.check(payload)
		if !ok {
			break
		}
		batch := appendBatch(make([]graph.Update, 0, n), payload, n)
		if len(recs) > 0 && idx != recs[len(recs)-1].Index+1 {
			break
		}
		recs = append(recs, Record{Index: idx, Batch: batch, SID: sid, Seq: seq})
		rest = rest[16+plen:]
		off += 16 + int64(plen)
	}
	return recs, off
}

func refScanSegment(path string, data []byte, recs []Record) ([]Record, int64, error) {
	_, torn, err := segEpoch(path, data)
	if err != nil || torn {
		return recs, 0, err
	}
	recs, n := refScanRecords(data[segHeaderLen:], recs)
	return recs, segHeaderLen + n, nil
}

// refReplay decodes every record of the log, then keeps those at or after
// from.
func refReplay(dir string, from uint64) ([]Record, error) {
	firsts, err := listSegments(OsFS{}, dir)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for i, first := range firsts {
		path := filepath.Join(dir, segName(first))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if i > 0 {
			expected := firsts[i-1]
			if len(recs) > 0 {
				expected = recs[len(recs)-1].Index + 1
			}
			if first != expected {
				return nil, fmt.Errorf("wal: missing segment(s): records [%d,%d) lost between %s and %s",
					expected, first, segName(firsts[i-1]), segName(first))
			}
		}
		before := len(recs)
		var off int64
		if recs, off, err = refScanSegment(path, data, recs); err != nil {
			return nil, err
		}
		if len(recs) > before && recs[before].Index != first {
			return nil, fmt.Errorf("wal: segment %s disagrees with its contents (first record %d)",
				segName(first), recs[before].Index)
		}
		if off < int64(len(data)) {
			if i < len(firsts)-1 {
				lost := first
				if len(recs) > 0 {
					lost = recs[len(recs)-1].Index + 1
				}
				return nil, fmt.Errorf("wal: sealed segment %s corrupt mid-log: records from %d lost (next segment %s still present)",
					segName(first), lost, segName(firsts[i+1]))
			}
			break
		}
	}
	var out []Record
	for _, rec := range recs {
		if rec.Index >= from {
			out = append(out, rec)
		}
	}
	return out, nil
}

// refReadFrom is ReadFrom decoding each segment whole, then filtering.
func refReadFrom(w *SegmentedWAL, from uint64, maxBytes int64) ([]Record, error) {
	w.mu.Lock()
	var firsts []uint64
	for _, s := range w.sealed {
		firsts = append(firsts, s.first)
	}
	if w.active != nil {
		firsts = append(firsts, w.first)
	}
	next := w.next
	w.mu.Unlock()
	if from >= next || len(firsts) == 0 {
		return nil, nil
	}
	if from < firsts[0] {
		return nil, ErrCompacted
	}
	start := 0
	for i, f := range firsts {
		if f > from {
			break
		}
		start = i
	}
	var (
		out      []Record
		expected uint64
		total    int64
	)
	for i := start; i < len(firsts); i++ {
		path := filepath.Join(w.dir, segName(firsts[i]))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if i > start && firsts[i] != expected {
			return nil, fmt.Errorf("wal: segment gap: records [%d,%d) missing before %s",
				expected, firsts[i], segName(firsts[i]))
		}
		recs, off, err := refScanSegment(path, data, nil)
		if err != nil {
			return nil, err
		}
		if len(recs) > 0 && recs[0].Index != firsts[i] {
			return nil, fmt.Errorf("wal: segment %s disagrees with its contents (first record %d)",
				segName(firsts[i]), recs[0].Index)
		}
		for _, rec := range recs {
			if rec.Index < from {
				continue
			}
			out = append(out, rec)
			total += int64(17*len(rec.Batch)) + 20
			if maxBytes > 0 && total >= maxBytes {
				return out, nil
			}
		}
		if len(recs) > 0 {
			expected = recs[len(recs)-1].Index + 1
		} else {
			expected = firsts[i]
		}
		if off < int64(len(data)) {
			break
		}
	}
	return out, nil
}

// seededLog writes n records to a fresh log at dir in groups of 1–4: batches
// of 0–3 updates, a third of them session-tagged.
func seededLog(t *testing.T, dir string, rng *rand.Rand, segBytes int64, n int) {
	t.Helper()
	w, err := CreateSegmentedWAL(dir, SegWALOptions{SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	var seq uint64
	for n > 0 {
		group := make([]Record, min(n, 1+rng.Intn(4)))
		for i := range group {
			batch := make([]graph.Update, rng.Intn(4))
			for k := range batch {
				batch[k] = graph.Update{Arc: graph.Arc{From: rng.Uint32() % 64, To: rng.Uint32() % 64, W: rng.Float64()}, Del: rng.Intn(2) == 0}
			}
			group[i].Batch = batch
			if rng.Intn(3) == 0 {
				seq++
				group[i].SID, group[i].Seq = 5, seq
			}
		}
		if _, err := w.AppendRecords(group); err != nil {
			t.Fatal(err)
		}
		n -= len(group)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// recordStarts returns the offsets of the valid records of a segment file.
func recordStarts(data []byte) []int {
	var starts []int
	for off := segHeaderLen; off+16 <= len(data); {
		starts = append(starts, off)
		off += 16 + int(binary.LittleEndian.Uint32(data[off+8:off+12]))
	}
	return starts
}

// corruptions are the damage the differential applies to a copy of a log.
var corruptions = []struct {
	name string
	// apply damages the segment files of dir (ascending by first index).
	apply func(t *testing.T, rng *rand.Rand, dir string, segs []string)
}{
	{"intact", func(*testing.T, *rand.Rand, string, []string) {}},
	{"flipped-bit", func(t *testing.T, rng *rand.Rand, _ string, segs []string) {
		path := segs[rng.Intn(len(segs))]
		data := readFile(t, path)
		i := segHeaderLen + rng.Intn(len(data)-segHeaderLen)
		data[i] ^= 1 << rng.Intn(8)
		writeFile(t, path, data)
	}},
	{"torn-tail", func(t *testing.T, rng *rand.Rand, _ string, segs []string) {
		path := segs[len(segs)-1]
		data := readFile(t, path)
		writeFile(t, path, data[:rng.Intn(len(data)+1)])
	}},
	{"missing-segment", func(t *testing.T, rng *rand.Rand, _ string, segs []string) {
		if len(segs) > 2 {
			if err := os.Remove(segs[1+rng.Intn(len(segs)-2)]); err != nil {
				t.Fatal(err)
			}
		}
	}},
	{"index-gap", func(t *testing.T, rng *rand.Rand, _ string, segs []string) {
		path := segs[rng.Intn(len(segs))]
		data := readFile(t, path)
		if starts := recordStarts(data); len(starts) > 0 {
			at := starts[rng.Intn(len(starts))]
			idx := binary.LittleEndian.Uint64(data[at:])
			binary.LittleEndian.PutUint64(data[at:], idx+1+uint64(rng.Intn(3)))
			writeFile(t, path, data)
		}
	}},
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyLog copies the segment files of src into a new directory dst and
// returns dst's segment paths, ascending.
func copyLog(t *testing.T, src, dst string) []string {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	firsts, err := listSegments(OsFS{}, src)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, f := range firsts {
		path := filepath.Join(dst, segName(f))
		writeFile(t, path, readFile(t, filepath.Join(src, segName(f))))
		segs = append(segs, path)
	}
	return segs
}

func sameResult(got, want []Record, gotErr, wantErr error) error {
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Errorf("error %v, reference %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%d records %v,\nreference %d records %v", len(got), got, len(want), want)
	}
	return nil
}

// TestScanFromMatchesDecodeThenFilter: for every seed, corruption and
// `from`, ReplaySegmentedFS returns exactly the reference's records and
// error, and OpenSegmentedWAL keeps exactly the reference's good prefix of
// the active segment and resumes at the same index.
func TestScanFromMatchesDecodeThenFilter(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := t.TempDir()
		src := filepath.Join(base, "log")
		const n = 40
		seededLog(t, src, rng, int64(64+rng.Intn(256)), n)
		for ci, c := range corruptions {
			dir := filepath.Join(base, fmt.Sprintf("c%d", ci))
			segs := copyLog(t, src, dir)
			c.apply(t, rng, dir, segs)
			for from := uint64(0); from <= n+2; from++ {
				got, gotErr := ReplaySegmentedFS(OsFS{}, dir, from)
				want, wantErr := refReplay(dir, from)
				if err := sameResult(got, want, gotErr, wantErr); err != nil {
					t.Fatalf("seed %d, %s, from %d: %v", seed, c.name, from, err)
				}
			}

			// The good offset: open a copy and compare what it kept of the
			// active segment with the reference scan.
			odir := filepath.Join(base, fmt.Sprintf("o%d", ci))
			osegs := copyLog(t, dir, odir)
			last := osegs[len(osegs)-1]
			data := readFile(t, last)
			w, err := OpenSegmentedWAL(odir, SegWALOptions{SegmentBytes: 1 << 20})
			_, torn, hdrErr := segEpoch(last, data)
			if fmt.Sprint(err) != fmt.Sprint(hdrErr) {
				t.Fatalf("seed %d, %s: open error %v, header check %v", seed, c.name, err, hdrErr)
			}
			if err != nil || torn {
				continue
			}
			first, _ := parseSegName(filepath.Base(last))
			recs, off, _ := refScanSegment(last, data, nil)
			next := first
			if len(recs) > 0 {
				next = recs[len(recs)-1].Index + 1
			}
			if w.good != off || w.NextIndex() != next {
				t.Fatalf("seed %d, %s: open kept %d bytes, next %d; reference %d bytes, next %d",
					seed, c.name, w.good, w.NextIndex(), off, next)
			}
			if st, err := os.Stat(last); err != nil || st.Size() != off {
				t.Fatalf("seed %d, %s: active segment truncated to %v (%v), want %d", seed, c.name, st.Size(), err, off)
			}
			w.Close()
		}
	}
}

// TestReadFromMatchesDecodeThenFilter: on seeded logs over tiny segments —
// intact, with part of the log retired by retention, with damage a live log
// can carry in its sealed segments, and with an in-flight append torn at the
// tail — ReadFrom returns, for every from and maxBytes, exactly what
// decoding each segment and then filtering returns.
func TestReadFromMatchesDecodeThenFilter(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := t.TempDir()
		src := filepath.Join(base, "log")
		const n = 40
		segBytes := int64(64 + rng.Intn(256))
		seededLog(t, src, rng, segBytes, n)
		for ci, c := range corruptions {
			dir := filepath.Join(base, fmt.Sprintf("c%d", ci))
			segs := copyLog(t, src, dir)
			c.apply(t, rng, dir, segs)
			w, err := OpenSegmentedWAL(dir, SegWALOptions{SegmentBytes: segBytes})
			if err != nil {
				continue // a damaged header: nothing to serve
			}
			if rng.Intn(2) == 0 {
				if _, err := w.TruncateThrough(uint64(rng.Intn(n))); err != nil {
					t.Fatal(err)
				}
			}
			// An in-flight append: bytes past the durable prefix.
			f, err := os.OpenFile(filepath.Join(dir, segName(w.first)), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
			f.Close()
			for from := uint64(0); from <= n+2; from++ {
				for _, maxBytes := range []int64{0, 1, 40, 100, 1 << 20} {
					got, gotErr := w.ReadFrom(from, maxBytes)
					want, wantErr := refReadFrom(w, from, maxBytes)
					if err := sameResult(got, want, gotErr, wantErr); err != nil {
						t.Fatalf("seed %d, %s, from %d, maxBytes %d: %v", seed, c.name, from, maxBytes, err)
					}
				}
			}
			w.Close()
		}
	}
}

// TestReadFromTailAllocs: a tail read near the end of a large active
// segment decodes only the records it returns, so its allocations grow with
// the records returned, not with the segment.
func TestReadFromTailAllocs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	w, err := CreateSegmentedWAL(dir, SegWALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const n, tail = 4096, 4
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Batch: segBatch(i), SID: 9, Seq: uint64(i + 1)}
	}
	if _, err := w.AppendRecords(recs); err != nil {
		t.Fatal(err)
	}
	var got []Record
	allocs := testing.AllocsPerRun(20, func() {
		got, err = w.ReadFrom(n-tail, 0)
	})
	if err != nil || len(got) != tail || got[0].Index != n-tail {
		t.Fatalf("ReadFrom(%d): %d records from %v (%v)", n-tail, len(got), got, err)
	}
	t.Logf("ReadFrom of the last %d of %d records: %.0f allocs", tail, n, allocs)
	if limit := float64(16 + 2*tail); allocs > limit {
		t.Fatalf("ReadFrom of the last %d of %d records allocates %.0f times, want <= %.0f", tail, n, allocs, limit)
	}
}

// countingFS counts the bytes read through the FS seam.
type countingFS struct {
	OsFS
	read atomic.Int64
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := c.OsFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	data, err := c.OsFS.ReadFile(name)
	c.read.Add(int64(len(data)))
	return data, err
}

type countingFile struct {
	File
	fs *countingFS
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.fs.read.Add(int64(n))
	return n, err
}

// TestReadFromTailReadsWhatItReturns: a tail read of the last 4 records of a
// full 4 MiB segment of one-update records reads, through the FS seam, only
// the records from the nearest offset-index entry on — at most
// indexStride-1 records before the first it returns — and so validates no
// more than those. It holds for the active segment, indexed by the appender
// or by the scan that opens the log, and for a sealed one.
func TestReadFromTailReadsWhatItReturns(t *testing.T) {
	const recSize, tail, group = 37, 4, 4096 // 16-byte header, count, one update
	fsys := &countingFS{}
	dir := filepath.Join(t.TempDir(), "log")
	w, err := CreateSegmentedWAL(dir, SegWALOptions{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	n := (4<<20 - segHeaderLen) / recSize
	recs := make([]Record, 0, group)
	for i := 0; i < n; i += group {
		recs = recs[:0]
		for k := i; k < min(n, i+group); k++ {
			recs = append(recs, Record{Batch: segBatch(k)})
		}
		if _, err := w.AppendRecords(recs); err != nil {
			t.Fatal(err)
		}
	}
	if w.first != 0 || w.good != segHeaderLen+int64(n)*recSize {
		t.Fatalf("segment %d holds %d bytes, want one segment of %d", w.first, w.good, segHeaderLen+n*recSize)
	}
	limit := int64(indexStride-1+tail) * recSize
	readTail := func(what string, w *SegmentedWAL) int64 {
		t.Helper()
		next := w.NextIndex()
		before := fsys.read.Load()
		got, err := w.ReadFrom(next-tail, 0)
		read := fsys.read.Load() - before
		if err != nil || len(got) != tail || got[0].Index != next-tail || !reflect.DeepEqual(got[tail-1].Batch, segBatch(n-1)) {
			t.Fatalf("%s: ReadFrom(%d): %d records from %v (%v)", what, next-tail, len(got), got, err)
		}
		t.Logf("%s: the last %d of %d records cost %d bytes read, %d records validated", what, tail, n, read, read/recSize)
		return read
	}
	if read := readTail("active, appender's index", w); read > limit {
		t.Fatalf("read %d bytes, want <= %d", read, limit)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w, err = OpenSegmentedWAL(dir, SegWALOptions{FS: fsys}); err != nil {
		t.Fatal(err)
	}
	if read := readTail("active, open's index", w); read > limit {
		t.Fatalf("read %d bytes, want <= %d", read, limit)
	}
	// Seal it (BumpEpoch rolls) and reopen: the open reads each segment once,
	// and a tail read of the sealed one then costs what it returns.
	if err := w.BumpEpoch(1); err != nil {
		t.Fatal(err)
	}
	w.Close()
	before := fsys.read.Load()
	if w, err = OpenSegmentedWAL(dir, SegWALOptions{FS: fsys}); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	size := segHeaderLen + int64(n)*recSize
	if read := fsys.read.Load() - before; read != size+segHeaderLen {
		t.Fatalf("open read %d bytes, want the sealed segment's %d and the new one's header once", read, size)
	}
	if read := readTail("sealed", w); read > limit {
		t.Fatalf("read %d bytes, want <= %d", read, limit)
	}
}

// TestResumeReadsEachSegmentOnce: Resume reads every byte of the log exactly
// once, and the log it opens keeps the replay's validation: reading it all
// back reads each segment once more, with no second validation pass.
func TestResumeReadsEachSegmentOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	seededLog(t, dir, rand.New(rand.NewSource(7)), 256, 300)
	firsts, err := listSegments(OsFS{}, dir)
	if err != nil || len(firsts) < 4 {
		t.Fatalf("%d segments (%v), want several", len(firsts), err)
	}
	var total int64
	for _, f := range firsts {
		total += int64(len(readFile(t, filepath.Join(dir, segName(f)))))
	}
	fsys := &countingFS{}
	got := 0
	w, err := Resume(dir, SegWALOptions{SegmentBytes: 256, FS: fsys}, 150, 64, func(recs []Record, _ []graph.Update) error {
		got += len(recs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if read := fsys.read.Load(); got != 150 || read != total || w.NextIndex() != 300 {
		t.Fatalf("replayed %d records reading %d bytes, resuming at %d; want 150 records, %d bytes, 300",
			got, read, w.NextIndex(), total)
	}
	all, err := w.ReadFrom(0, 0)
	if err != nil || len(all) != 300 {
		t.Fatalf("ReadFrom(0): %d records (%v)", len(all), err)
	}
	if read := fsys.read.Load() - total; read > total {
		t.Fatalf("reading the log back read %d bytes, more than its %d", read, total)
	}
}

// TestReplayGroupsMatchCollector: the replay's groups, joined, are exactly
// the collector's records, each group holds at most max updates unless it is
// one record, a group ends only where the next record would overflow it, and
// ups is the group's updates back to back.
func TestReplayGroupsMatchCollector(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	seededLog(t, dir, rand.New(rand.NewSource(3)), 200, 120)
	for _, from := range []uint64{0, 37, 119, 200} {
		want, err := ReplaySegmentedFS(OsFS{}, dir, from)
		if err != nil {
			t.Fatal(err)
		}
		for _, max := range []int{0, 1, 2, 5, 1 << 20} {
			var got []Record
			var groupEnd []int // len(got) after each group
			_, err := replay(OsFS{}, dir, from, max, func(recs []Record, ups []graph.Update) error {
				var joined []graph.Update
				for _, rec := range recs {
					joined = append(joined, rec.Batch...)
					rec.Batch = append([]graph.Update{}, rec.Batch...)
					got = append(got, rec)
				}
				if len(recs) > 1 && len(ups) > max {
					t.Fatalf("from %d, max %d: a group of %d records holds %d updates", from, max, len(recs), len(ups))
				}
				if !reflect.DeepEqual(joined, ups) && len(ups) > 0 {
					t.Fatalf("from %d, max %d: ups %v, batches %v", from, max, ups, joined)
				}
				groupEnd = append(groupEnd, len(got))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for g, end := range groupEnd {
				start := 0
				if g > 0 {
					start = groupEnd[g-1]
				}
				n := 0
				for _, rec := range got[start:end] {
					n += len(rec.Batch)
				}
				if end < len(got) && n+len(got[end].Batch) <= max {
					t.Fatalf("from %d, max %d: a group of %d updates ended before a record of %d", from, max, n, len(got[end].Batch))
				}
			}
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("from %d, max %d: groups give %d records, the collector %d", from, max, len(got), len(want))
			}
		}
	}
}

// TestReadFromBesideAppends: tail readers share the active segment's offset
// index with the appender, which extends it (and rolls segments) while they
// read; every read returns a contiguous run of exactly the records appended.
func TestReadFromBesideAppends(t *testing.T) {
	w, err := CreateSegmentedWAL(filepath.Join(t.TempDir(), "log"), SegWALOptions{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const n = 3000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i += 10 {
			recs := make([]Record, 10)
			for k := range recs {
				recs[k].Batch = segBatch(i + k)
			}
			if _, err := w.AppendRecords(recs); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for from := uint64(r); ; from = (from*7 + 13) % n {
				select {
				case <-done:
					return
				default:
				}
				got, err := w.ReadFrom(from, 4<<10)
				if err != nil {
					t.Error(err)
					return
				}
				for k, rec := range got {
					if rec.Index != from+uint64(k) || !reflect.DeepEqual(rec.Batch, segBatch(int(rec.Index))) {
						t.Errorf("ReadFrom(%d)[%d] = %+v", from, k, rec)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if got, err := w.ReadFrom(0, 0); err != nil || len(got) != n {
		t.Fatalf("ReadFrom(0) after the appends: %d records (%v), want %d", len(got), err, n)
	}
}
