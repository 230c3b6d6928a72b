package resilience

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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
		batch, sid, seq, ok := DecodeRecordPayload(payload)
		if !ok {
			break
		}
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
