package resilience

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"cisgraph/internal/graph"
)

// The one log reader. Every read of the log goes through segScan: replaying
// it (Resume, ReplaySegmentedFS), opening it (OpenSegmentedWAL) and each
// tail read (ReadFrom). It reads a segment through the FS seam into one bounded
// buffer, gives every record every check, and decodes only the records at
// or after its from, into a reused arena.

// indexStride spaces a segment's offset index: one 8-byte entry per 64
// records. A record is at least 20 bytes (header and count), so the index
// is at most 8/(64·20) = 0.625 % of the segment bytes it covers, and a read
// that seeks through it re-reads at most 63 records before the first one it
// wants.
const indexStride = 64

// readChunk is what one read through the FS seam asks for: the buffer holds
// this much of a segment, or one record when a record is larger, and never
// more than the bytes left to scan.
const readChunk = 64 << 10

// segScan reads the records of one segment file, one at a time. Every record
// gets every check — header, torn tail, CRC, payload shape and index
// contiguity with the record before it (last/seen carry that context from
// one segment to the next) — but only one at or after from is decoded.
type segScan struct {
	from   uint64 // records below it are validated, not decoded
	f      File
	end    int64  // file offset the scan stops at: the file's size, or a durable length
	off    int64  // file offset of the next record
	buf    []byte // read buffer, reused; buf[lo:hi] holds the file's bytes from off
	lo, hi int
	err    error // a failed read: the scan stops at it
	last   uint64
	seen   bool
	count  int     // valid records scanned in the current segment
	index  bool    // fill offs: offs[j] is the offset of the segment's record j·indexStride
	offs   []int64 // (segMeta.offs)
	arena  []graph.Update
}

// open points the scan at the segment file at path, from file offset off
// up to end (end < 0: the file's size). It keeps the contiguity context and
// the arena, whose owner decides how long the batches decoded into it live.
func (s *segScan) open(fsys FS, path string, off, end int64) error {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if end < 0 {
		if end, err = f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
	}
	s.f, s.end, s.off, s.lo, s.hi, s.err = f, end, off, 0, 0, nil
	s.count, s.offs = 0, nil
	return nil
}

func (s *segScan) close() {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

// fill makes buf[lo:hi] hold at least n bytes of the file from off. It
// reports false when the scan's end comes first (a torn tail) or a read
// fails (s.err).
func (s *segScan) fill(n int) bool {
	if s.hi-s.lo >= n {
		return true
	}
	if int64(n) > s.end-s.off || s.err != nil {
		return false
	}
	want := int(min(s.end-s.off, int64(max(n, readChunk))))
	if want > cap(s.buf) {
		s.buf = append(make([]byte, 0, want), s.buf[s.lo:s.hi]...)
	} else {
		s.buf = s.buf[:copy(s.buf[:cap(s.buf)], s.buf[s.lo:s.hi])]
	}
	s.hi -= s.lo
	s.lo = 0
	k, err := s.f.ReadAt(s.buf[s.hi:want], s.off+int64(s.hi))
	if s.hi += k; s.hi < n {
		if err != io.EOF {
			s.err = err
		}
		return false
	}
	return true
}

// next validates the next record and advances past it. It returns the
// record — its batch decoded into the arena only when its index is at or
// after s.from — and false at the end of the valid prefix: a torn tail, a
// checksum failure, a malformed payload, an index that does not follow the
// previous record's, or a failed read (s.err).
func (s *segScan) next() (Record, bool) {
	if !s.fill(recHeaderLen) {
		return Record{}, false
	}
	h, ok := parseRecHeader(s.buf[s.lo:s.hi])
	size := recHeaderLen + int(h.plen)
	if !ok || !s.fill(size) {
		return Record{}, false // torn tail
	}
	payload := s.buf[s.lo+recHeaderLen : s.lo+size]
	n, sid, seq, ok := h.check(payload)
	if !ok || (s.seen && h.index != s.last+1) {
		return Record{}, false // bit flip, malformed, or a non-contiguous index
	}
	idx := h.index
	rec := Record{Index: idx, SID: sid, Seq: seq}
	if idx >= s.from {
		if s.arena == nil { // an empty batch is an empty slice, never nil
			s.arena = make([]graph.Update, 0, n)
		}
		k := len(s.arena)
		s.arena = appendBatch(s.arena, payload, n)
		rec.Batch = s.arena[k:len(s.arena):len(s.arena)]
	}
	if s.index && s.count%indexStride == 0 {
		s.offs = append(s.offs, s.off)
	}
	s.last, s.seen = idx, true
	s.count++
	s.lo += size
	s.off += int64(size)
	return rec, true
}

// scanSegment reads the segment file at path whole with s, validating every
// record, filling the segment's offset index and handing each record to fn
// (when set, and until the segment proves bad), and returns what a reader
// needs of the segment. A foreign header or a first record that disagrees
// with the name is kept in the result's err; the error returned is a
// failed read, or fn's.
func scanSegment(fsys FS, path string, first uint64, s *segScan, fn func(Record) error) (segMeta, error) {
	if err := s.open(fsys, path, 0, -1); err != nil {
		return segMeta{}, err
	}
	defer s.close()
	s.index = true
	meta := segMeta{first: first, size: s.end, next: first}
	n := int(min(s.end, segHeaderLen))
	if !s.fill(n) {
		return meta, fmt.Errorf("wal: %s: %w", path, cmp.Or(s.err, io.ErrUnexpectedEOF))
	}
	if meta.epoch, meta.torn, meta.err = segEpoch(path, s.buf[:n]); meta.err != nil || meta.torn {
		return meta, nil
	}
	s.lo, s.off = segHeaderLen, segHeaderLen
	for rec, ok := s.next(); ok; rec, ok = s.next() {
		if s.count == 1 && rec.Index != first {
			meta.err = fmt.Errorf("wal: segment %s disagrees with its contents (first record %d)", segName(first), rec.Index)
		}
		if fn != nil && meta.err == nil {
			if err := fn(rec); err != nil {
				return meta, err
			}
		}
	}
	if s.err != nil {
		return meta, fmt.Errorf("wal: %w", s.err)
	}
	meta.good, meta.offs = s.off, s.offs
	if s.count > 0 {
		meta.next = s.last + 1
	}
	return meta, nil
}

// replay reads the log at dir once, oldest segment first, and hands fn the
// records at or after from in groups: at least one record, and as many more
// as fit in max updates in all (a record that would overflow a group starts
// the next one), with ups, the group's updates back to back. A group lives
// in reused memory: it is valid until fn returns. A torn or checksum-failing
// record in the newest segment ends the log silently (the crash-recovery
// contract). Anything else — a missing middle segment, a torn record inside
// a sealed segment, a name that disagrees with its contents — is not a
// crash artefact but lost acknowledged data, and replaying past it would
// silently serve a shorter history than was acked: the replay fails with
// the gap range instead. It returns what each segment's scan found, the
// newest last (none for a missing or empty log).
func replay(fsys FS, dir string, from uint64, max int, fn func(recs []Record, ups []graph.Update) error) ([]segMeta, error) {
	st, err := fsys.Stat(dir)
	switch {
	case os.IsNotExist(err):
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("wal: %w", err)
	case !st.IsDir():
		return nil, fmt.Errorf("wal: %s is not a WAL directory", dir)
	}
	firsts, err := listSegments(fsys, dir)
	if err != nil {
		return nil, err
	}
	var (
		segs []segMeta
		recs []Record
		n    int
		s    = segScan{from: from}
	)
	// add puts a decoded record in the group. Its batch is the last one
	// decoded into the arena: when it overflows the group, the group goes to
	// fn and the batch moves to the front of the arena the next group reuses.
	add := func(rec Record) error {
		if rec.Index < from {
			return nil
		}
		if len(recs) > 0 && n+len(rec.Batch) > max {
			if err := fn(recs, s.arena[:n]); err != nil {
				return err
			}
			recs, n, s.arena = recs[:0], 0, append(s.arena[:0], rec.Batch...)
			rec.Batch = s.arena[:len(s.arena):len(s.arena)]
		}
		if cap(recs) == 0 {
			// Size the group once, from the bytes of log left: a record with
			// updates takes at least 37 bytes and an update 17, and a group
			// holds at most max updates.
			left := s.end - s.off
			for _, first := range firsts[len(segs)+1:] {
				if st, err := fsys.Stat(filepath.Join(dir, segName(first))); err == nil {
					left += st.Size()
				}
			}
			recs = make([]Record, 0, min(int64(max), left/37)+1)
			s.arena = append(make([]graph.Update, 0, min(int64(max), left/17)+int64(len(rec.Batch))), rec.Batch...)
			rec.Batch = s.arena[:len(s.arena):len(s.arena)]
		}
		recs, n = append(recs, rec), n+len(rec.Batch)
		return nil
	}
	for i, first := range firsts {
		if i > 0 {
			prev := segs[i-1]
			if prev.good < prev.size {
				return nil, fmt.Errorf("wal: sealed segment %s corrupt mid-log: records from %d lost (next segment %s still present)",
					segName(prev.first), prev.next, segName(first))
			}
			if first != prev.next {
				return nil, fmt.Errorf("wal: missing segment(s): records [%d,%d) lost between %s and %s",
					prev.next, first, segName(prev.first), segName(first))
			}
		}
		meta, err := scanSegment(fsys, filepath.Join(dir, segName(first)), first, &s, add)
		if err == nil {
			err = meta.err
		}
		if err != nil {
			return nil, err
		}
		segs = append(segs, meta)
	}
	if len(recs) > 0 {
		return segs, fn(recs, s.arena[:n])
	}
	return segs, nil
}

// Resume reads the log at dir once by the replay rules, handing fn the
// records at or after from in groups of at most max updates — each group,
// and ups, its updates back to back, valid until fn returns; an error from
// fn ends the replay — and then opens the log for appends where that read
// ended, reading nothing again: the newest segment's torn tail is truncated
// at the good length the replay found, appends resume after its last
// record, and every segment keeps the offset index the replay filled. An
// empty log is created as OpenSegmentedWAL creates one.
func Resume(dir string, opt SegWALOptions, from uint64, max int, fn func(recs []Record, ups []graph.Update) error) (*SegmentedWAL, error) {
	opt = opt.withDefaults()
	segs, err := replay(opt.FS, dir, from, max, fn)
	if err != nil {
		return nil, err
	}
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return openWAL(dir, opt, segs)
}

// ReplaySegmented reads every valid record from the segmented WAL at dir,
// in index order across segments, by the replay rules of Resume. A missing
// path yields no records; anything at the path that is not a directory of
// CGWALOG3 segments is an error.
func ReplaySegmented(dir string) ([]Record, error) {
	return ReplaySegmentedFS(OsFS{}, dir, 0)
}

// ReplaySegmentedFS is ReplaySegmented through an explicit filesystem seam,
// returning only the records at or after from. Every record is validated,
// but only the returned ones are decoded. They come as one group, so the
// arena is never reused and every batch stays valid.
func ReplaySegmentedFS(fsys FS, dir string, from uint64) ([]Record, error) {
	var out []Record
	_, err := replay(fsys, dir, from, math.MaxInt, func(recs []Record, _ []graph.Update) error {
		out = recs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReadFrom returns durable records with index >= from, reading the segment
// files through the log's filesystem seam while appends continue. It reads
// the active segment only up to its durable length, and seeks every
// segment through its offset index, so a tail read costs what it returns
// plus at most indexStride-1 records: each segment was validated whole
// once, by its appender or the scan that opened the log, and what that
// found (its index, its valid length, an error) serves every read. The
// records read are checked again as they are read. maxBytes bounds the summed
// payload size of the result (0 = unbounded); the cut lands on a record
// boundary. Returns ErrCompacted when `from` predates the oldest retained
// segment, including the race where retention deletes a segment between
// the snapshot and the file read.
func (w *SegmentedWAL) ReadFrom(from uint64, maxBytes int64) ([]Record, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, fmt.Errorf("wal: closed")
	}
	if from >= w.next || (len(w.sealed) == 0 && w.active == nil) {
		w.mu.Unlock()
		return nil, nil
	}
	segs := w.segmentsFromLocked(from)
	w.mu.Unlock()
	if from < segs[0].first {
		return nil, ErrCompacted
	}
	var (
		out   []Record
		total int64
		s     = segScan{from: from}
	)
	defer s.close()
	for i, seg := range segs {
		if i > 0 && seg.first != segs[i-1].next {
			return nil, fmt.Errorf("wal: segment gap: records [%d,%d) missing before %s",
				segs[i-1].next, seg.first, segName(seg.first))
		}
		if seg.err != nil {
			return nil, seg.err
		}
		if len(seg.offs) > 0 && from < seg.next {
			j := min(int((max(from, seg.first)-seg.first)/indexStride), len(seg.offs)-1)
			s.close()
			if err := s.open(w.fs, filepath.Join(w.dir, segName(seg.first)), seg.offs[j], seg.good); err != nil {
				return nil, compacted(err)
			}
			s.seen = false
			for rec, ok := s.next(); ok; rec, ok = s.next() {
				if rec.Index < from {
					continue
				}
				out = append(out, rec)
				total += int64(17*len(rec.Batch)) + 20
				if maxBytes > 0 && total >= maxBytes {
					return out, nil
				}
			}
			if s.err != nil {
				return nil, fmt.Errorf("wal: %w", s.err)
			}
		}
		if seg.good < seg.size {
			break // torn tail: later bytes (an in-flight append) are not yet durable
		}
	}
	return out, nil
}

// compacted maps a failed segment read: a missing file is the retention
// race (the segment was deleted under the reader).
func compacted(err error) error {
	if errors.Is(err, os.ErrNotExist) {
		return ErrCompacted
	}
	return err
}
