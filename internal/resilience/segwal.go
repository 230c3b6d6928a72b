package resilience

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrCompacted reports that the requested records were deleted by
// checkpoint-coordinated retention (or are mid-deletion — the retention
// race). Replication tail readers map it to HTTP 410 and the follower
// re-bootstraps from the leader's checkpoint instead of the log.
var ErrCompacted = errors.New("wal: records compacted by retention")

// Segmented write-ahead log: a directory of fixed-size segment files, each
// named by the index of the first record it holds. Records use the format
// in wal.go (uint64 index | uint32 length | uint32 CRC-32 | payload).
//
// Why segments: a single unbounded file grows forever and recovery replays
// it from byte 0. With segments, checkpoint-coordinated retention
// (TruncateThrough) deletes every segment whose batches are wholly covered
// by the latest checkpoint, bounding both disk usage and the crash-recovery
// replay length to roughly one checkpoint interval.
//
// Layout:
//
//	<dir>/seg-00000000000000000000.wal   records [0, 17)
//	<dir>/seg-00000000000000000017.wal   records [17, 31)
//	<dir>/seg-00000000000000000031.wal   active segment (appends go here)
//
// Each segment starts with the 16-byte header "CGWALOG3" | uint64 epoch, the
// leadership epoch (DESIGN.md §17) it was written under; epoch 0 is an
// ordinary value. Only a file shorter than the header whose bytes are a
// prefix of one is a torn create; any other header (a foreign file, or a
// retired CGWALOG1/CGWALOG2 log) is an error naming the file, and its bytes
// are never touched.
//
// Crash anatomy, the redo-log rule: a torn or bit-flipped record ends the
// trustworthy log. Only the *last* segment can legally carry a torn tail
// (appends only ever run there); OpenSegmentedWAL truncates it away before
// appending. A failed append additionally marks
// the segment dirty, and the next append (or Probe) truncates back to the
// last durable record before writing — a half-written record from a sick
// disk can never be followed by a good one.

var segMagic = []byte("CGWALOG3")

const segHeaderLen = 16 // 8-byte magic + uint64 epoch

const segPrefix = "seg-"
const segSuffix = ".wal"

// segHeader renders the header a new segment gets.
func segHeader(epoch uint64) []byte {
	hdr := make([]byte, segHeaderLen)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], epoch)
	return hdr
}

// segEpoch parses the header of the segment file at path. torn reports a
// crash mid-create: fewer bytes than a header, all of them a prefix of one.
// Anything else that is not a header is an error naming the file.
func segEpoch(path string, data []byte) (epoch uint64, torn bool, err error) {
	if len(data) >= segHeaderLen && bytes.Equal(data[:len(segMagic)], segMagic) {
		return binary.LittleEndian.Uint64(data[len(segMagic):segHeaderLen]), false, nil
	}
	if len(data) < segHeaderLen && bytes.HasPrefix(segMagic, data[:min(len(data), len(segMagic))]) {
		return 0, true, nil
	}
	return 0, false, fmt.Errorf("wal: %s: not a %s segment (foreign file or retired log format)", path, segMagic)
}

// segName renders the file name of the segment whose first record is idx.
func segName(idx uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, idx, segSuffix)
}

// parseSegName extracts the first-record index from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if len(name) != len(segPrefix)+20+len(segSuffix) ||
		name[:len(segPrefix)] != segPrefix || name[len(name)-len(segSuffix):] != segSuffix {
		return 0, false
	}
	var idx uint64
	for _, c := range name[len(segPrefix) : len(segPrefix)+20] {
		if c < '0' || c > '9' {
			return 0, false
		}
		idx = idx*10 + uint64(c-'0')
	}
	return idx, true
}

// SegWALOptions tunes a segmented WAL. The zero value is usable.
type SegWALOptions struct {
	// SegmentBytes rolls to a new segment once the active one reaches this
	// size (default 4 MiB, minimum 64; a record never spans segments, so a
	// segment can exceed the limit by up to one record).
	SegmentBytes int64
	// Epoch stamps newly created logs with this leadership epoch (see
	// BumpEpoch). Ignored by OpenSegmentedWAL when the directory already
	// holds segments — the active segment's header wins.
	Epoch uint64
	// StartIndex makes a freshly created log start at this record index
	// instead of 0 — a promoted follower's WAL begins at the batch index
	// its bootstrap checkpoint covers.
	StartIndex uint64
	// FS is the filesystem seam (default OsFS{}); tests inject a FaultFS.
	FS FS
}

func (o SegWALOptions) withDefaults() SegWALOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SegmentBytes < 64 {
		o.SegmentBytes = 64
	}
	if o.FS == nil {
		o.FS = OsFS{}
	}
	return o
}

// segMeta describes one segment, as one full validation of it found it: by
// the appender, for a segment this log wrote, else by the scan that opened
// or replayed the log.
type segMeta struct {
	first uint64 // index of the first record
	size  int64
	good  int64   // file offset where the valid record prefix ends
	next  uint64  // index after its last valid record
	offs  []int64 // offs[j]: file offset of record first + j·indexStride
	err   error   // what every read of the segment fails with
	epoch uint64  // its header's
	torn  bool    // a torn header: a crash mid-create
}

// SegmentedWAL is an append-only write-ahead log split across fixed-size
// segment files with checkpoint-coordinated retention. Safe for one writer;
// methods are internally locked, and the metrics reads (Segments/Bytes) take
// no lock at all, so they never wait out an append's fsync.
type SegmentedWAL struct {
	dir string
	opt SegWALOptions
	fs  FS

	mu     sync.Mutex
	sealed []segMeta // ascending by first
	active File      // nil when the last roll/create failed; retried on append
	first  uint64    // first index of the active segment
	size   int64     // bytes written to the active segment (incl. torn tail)
	good   int64     // bytes up to the last durable record (truncation target)
	dirty  bool      // a failed append may have left torn bytes past good
	next   uint64    // index the next appended record gets
	epoch  uint64    // leadership epoch stamped into new segments
	closed bool      // Close was called; AppendRecords/Probe refuse
	buf    []byte    // AppendRecords' encode buffer, reused across groups
	offs   []int64   // the active segment's offset index (segMeta.offs)
	actErr error     // what every read of the active segment fails with

	// liveSegs and liveBytes mirror the live segment count and total size for
	// Segments/Bytes; every mutator republishes them before unlocking.
	liveSegs  atomic.Int64
	liveBytes atomic.Int64
}

// OpenSegmentedWAL opens (or creates) the segmented WAL at dir, resuming
// after a crash: the last segment's torn tail is truncated, and the next
// index is recovered from the surviving records. Every segment is read and
// validated once, here; what that found (offset index, valid length, an
// error) serves every later read of it.
func OpenSegmentedWAL(dir string, opt SegWALOptions) (*SegmentedWAL, error) {
	opt = opt.withDefaults()
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	firsts, err := listSegments(opt.FS, dir)
	if err != nil {
		return nil, err
	}
	var (
		segs []segMeta
		s    segScan
	)
	for _, first := range firsts {
		s = segScan{from: math.MaxUint64, buf: s.buf} // each segment on its own
		meta, err := scanSegment(opt.FS, filepath.Join(dir, segName(first)), first, &s, nil)
		if err != nil {
			return nil, err
		}
		segs = append(segs, meta)
	}
	if n := len(segs); n > 0 && segs[n-1].err != nil && segs[n-1].good == 0 {
		return nil, segs[n-1].err // not a segment header
	}
	return openWAL(dir, opt, segs)
}

// openWAL opens the log at dir for appends over its segments, each
// scanned whole. The newest becomes the active segment — its torn tail past
// the valid prefix truncated, appends resuming after its last record — or,
// when its header never made it to disk (crash during roll), is rebuilt
// empty under its own name, at the newest epoch still on disk (the last
// sealed segment's; a lower epoch must never follow a higher one in the
// same log). Without segments, the log's first one is created.
func openWAL(dir string, opt SegWALOptions, segs []segMeta) (*SegmentedWAL, error) {
	w := &SegmentedWAL{dir: dir, opt: opt, fs: opt.FS, epoch: opt.Epoch}
	var err error
	if len(segs) == 0 {
		err = w.createSegment(opt.StartIndex)
	} else if w.sealed = segs[:len(segs)-1]; segs[len(segs)-1].torn {
		if n := len(w.sealed); n > 0 {
			if prev := w.sealed[n-1]; prev.err != nil && prev.good == 0 {
				return nil, prev.err // not a segment header: no epoch to take
			}
			w.epoch = w.sealed[n-1].epoch
		}
		err = w.createSegment(segs[len(segs)-1].first)
	} else {
		err = w.resume(segs[len(segs)-1])
	}
	if err != nil {
		return nil, err
	}
	w.publish()
	return w, nil
}

// resume makes the segment seg describes the active one: its torn tail
// truncated, appends resuming after its last valid record.
func (w *SegmentedWAL) resume(seg segMeta) error {
	f, err := w.fs.OpenFile(filepath.Join(w.dir, segName(seg.first)), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Truncate(seg.good); err != nil {
		f.Close()
		return fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(seg.good, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	w.active, w.first, w.size, w.good = f, seg.first, seg.good, seg.good
	w.epoch, w.next, w.offs, w.actErr = seg.epoch, seg.next, seg.offs, seg.err
	return nil
}

// CreateSegmentedWAL starts a fresh segmented WAL at dir, removing any
// previous segments (truncate-on-create).
func CreateSegmentedWAL(dir string, opt SegWALOptions) (*SegmentedWAL, error) {
	opt = opt.withDefaults()
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	w := &SegmentedWAL{dir: dir, opt: opt, fs: opt.FS}
	if err := w.ResetTo(opt.StartIndex, opt.Epoch); err != nil {
		return nil, err
	}
	return w, nil
}

// listSegments returns the first-record indices of every segment in dir,
// ascending.
func listSegments(fsys FS, dir string) ([]uint64, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var firsts []uint64
	for _, ent := range ents {
		if first, ok := parseSegName(ent.Name()); ok {
			firsts = append(firsts, first)
		}
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	return firsts, nil
}

// createSegment starts a new active segment whose first record will be idx,
// stamped with the log's current epoch.
func (w *SegmentedWAL) createSegment(idx uint64) error {
	f, err := w.fs.OpenFile(filepath.Join(w.dir, segName(idx)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write(segHeader(w.epoch)); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment sync: %w", err)
	}
	w.active, w.first = f, idx
	w.size, w.good = segHeaderLen, segHeaderLen
	w.dirty = false
	w.next = idx
	w.offs, w.actErr = nil, nil
	return nil
}

// roll seals the active segment and starts a new one at w.next. Called with
// w.mu held.
func (w *SegmentedWAL) roll() error {
	if w.active != nil {
		if w.dirty {
			if err := w.repairLocked(); err != nil {
				return err
			}
		}
		if err := w.active.Sync(); err != nil {
			return fmt.Errorf("wal: seal sync: %w", err)
		}
		if err := w.active.Close(); err != nil {
			return fmt.Errorf("wal: seal close: %w", err)
		}
		w.sealed = append(w.sealed, w.activeMeta())
		w.active = nil
	}
	next := w.next
	if err := w.createSegment(next); err != nil {
		return err
	}
	w.next = next
	return nil
}

// repairLocked truncates torn bytes a failed append left past the last
// durable record. Called with w.mu held.
func (w *SegmentedWAL) repairLocked() error {
	if err := w.active.Truncate(w.good); err != nil {
		return fmt.Errorf("wal: repair torn append: %w", err)
	}
	if _, err := w.active.Seek(w.good, io.SeekStart); err != nil {
		return fmt.Errorf("wal: repair torn append: %w", err)
	}
	w.size = w.good
	w.dirty = false
	return nil
}

// AppendRecords encodes each record — batch and session tag (SID/Seq) — as
// its own consecutive record, on disk and over replication indistinguishable
// from one append per record, but pays ONE write and ONE fsync for the
// whole group: every stream position stays individually addressable while
// the fsync cost amortizes across the group (DESIGN.md §14). Record indices
// are assigned by the log (rec.Index inputs are ignored). It returns the
// first record's index; the group occupies [first, first+len(recs)).
//
// On any error no record of the group is counted: the log is positionally
// unchanged, and torn bytes are truncated away before the next write (or by
// Probe), so a failed group can never corrupt a later good one. The roll
// decision is taken once, before the group, which keeps a group's records
// contiguous in one segment (segments may overshoot SegmentBytes by up to
// one group).
func (w *SegmentedWAL) AppendRecords(recs []Record) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer w.publish()
	if w.closed {
		return 0, fmt.Errorf("wal: closed")
	}
	if len(recs) == 0 {
		return w.next, nil
	}
	if w.active == nil || (w.good >= w.opt.SegmentBytes && w.good > segHeaderLen) {
		if err := w.roll(); err != nil {
			return 0, err
		}
	}
	if w.dirty {
		if err := w.repairLocked(); err != nil {
			return 0, err
		}
	}
	first := w.next
	buf := w.buf[:0]
	// The group's records join the offset index only once they are durable.
	indexed := len(w.offs)
	for i, rec := range recs {
		if (first+uint64(i)-w.first)%indexStride == 0 {
			w.offs = append(w.offs, w.size+int64(len(buf)))
		}
		rec.Index = first + uint64(i)
		buf = AppendRecord(buf, rec)
	}
	w.buf = buf
	if n, err := w.active.Write(buf); err != nil {
		w.size += int64(n)
		w.dirty = true
		w.offs = w.offs[:indexed]
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	w.size += int64(len(buf))
	if err := w.active.Sync(); err != nil {
		// Durability of the whole group is unknown; treat it as not appended
		// and truncate it on the next write.
		w.dirty = true
		w.offs = w.offs[:indexed]
		return 0, fmt.Errorf("wal: sync: %w", err)
	}
	w.good = w.size
	w.next = first + uint64(len(recs))
	return first, nil
}

// Epoch returns the leadership epoch stamped into the active segment.
func (w *SegmentedWAL) Epoch() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

// BumpEpoch fences the log to a strictly higher leadership epoch: the
// active segment is sealed and a fresh one opens stamped with the new
// epoch, so every record the new leadership appends is attributable to it
// and a deposed writer's log is distinguishable on disk. No-op records are
// not written — an empty new segment is the fence.
func (w *SegmentedWAL) BumpEpoch(epoch uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer w.publish()
	if w.closed {
		return fmt.Errorf("wal: closed")
	}
	if epoch <= w.epoch {
		return fmt.Errorf("wal: epoch %d does not advance current epoch %d", epoch, w.epoch)
	}
	w.epoch = epoch
	if w.active != nil && w.next == w.first && !w.dirty {
		// The active segment holds no records: rewrite it in place under the
		// new epoch instead of sealing an empty file (roll would recreate the
		// same segment name and double-book it).
		if err := w.active.Close(); err != nil {
			w.active = nil
			return fmt.Errorf("wal: epoch reseal: %w", err)
		}
		w.active = nil
		return w.createSegment(w.first)
	}
	return w.roll()
}

// ResetTo discards every record and restarts the log at startIndex under
// epoch — the promotable follower's re-bootstrap path: after a retention
// race its local log no longer extends the leader's, so it is rebuilt at
// the new bootstrap position. The receiver stays valid (same pointer, same
// filesystem seam), which matters because the serving layer hands the WAL
// to its replication source once, at route time.
func (w *SegmentedWAL) ResetTo(startIndex, epoch uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer w.publish()
	if w.closed {
		return fmt.Errorf("wal: closed")
	}
	if w.active != nil {
		w.active.Close()
		w.active = nil
	}
	firsts, err := listSegments(w.fs, w.dir)
	if err != nil {
		return err
	}
	for _, first := range firsts {
		if err := w.fs.Remove(filepath.Join(w.dir, segName(first))); err != nil {
			return fmt.Errorf("wal: reset: %w", err)
		}
	}
	w.sealed = nil
	w.dirty = false
	w.epoch = epoch
	return w.createSegment(startIndex)
}

// NextIndex returns the index the next Append will use.
func (w *SegmentedWAL) NextIndex() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.next
}

// OldestIndex returns the first record index still covered by a live
// segment — the oldest position a tail reader can resume from without a
// checkpoint re-bootstrap.
func (w *SegmentedWAL) OldestIndex() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.sealed) > 0 {
		return w.sealed[0].first
	}
	return w.first
}

// SegmentInfo describes one live segment for observability and the
// replication /v1/repl/segments endpoint.
type SegmentInfo struct {
	First  uint64 `json:"first"` // index of the segment's first record
	Bytes  int64  `json:"bytes"`
	Sealed bool   `json:"sealed"`
}

// SegmentInfos lists the live segments, ascending by first record index.
func (w *SegmentedWAL) SegmentInfos() []SegmentInfo {
	w.mu.Lock()
	defer w.mu.Unlock()
	infos := make([]SegmentInfo, 0, len(w.sealed)+1)
	for _, s := range w.sealed {
		infos = append(infos, SegmentInfo{First: s.first, Bytes: s.size, Sealed: true})
	}
	if w.active != nil {
		infos = append(infos, SegmentInfo{First: w.first, Bytes: w.good})
	}
	return infos
}

// activeMeta describes the active segment as a reader sees it: validated,
// up to its durable length. Called with w.mu held.
func (w *SegmentedWAL) activeMeta() segMeta {
	return segMeta{first: w.first, size: w.good, good: w.good, next: w.next, offs: w.offs, err: w.actErr, epoch: w.epoch}
}

// segmentsFromLocked returns the live segments a read from `from` touches:
// the last one whose first record is at or below from (the oldest when
// none is), and every later one, the active last. Called with w.mu held.
func (w *SegmentedWAL) segmentsFromLocked(from uint64) []segMeta {
	start := 0
	for i := range w.sealed {
		if w.sealed[i].first > from {
			break
		}
		start = i
	}
	if w.active != nil && w.first <= from {
		start = len(w.sealed)
	}
	segs := append(make([]segMeta, 0, len(w.sealed)-start+1), w.sealed[start:]...)
	if w.active != nil {
		segs = append(segs, w.activeMeta())
	}
	return segs
}

// Dir returns the log's directory path.
func (w *SegmentedWAL) Dir() string { return w.dir }

// Segments returns the number of live segment files (sealed + active).
func (w *SegmentedWAL) Segments() int { return int(w.liveSegs.Load()) }

// Bytes returns the total size of all live segment files.
func (w *SegmentedWAL) Bytes() int64 { return w.liveBytes.Load() }

// publish stores the live segment count and total size for Segments and
// Bytes. Called with w.mu held (or before the log is shared).
func (w *SegmentedWAL) publish() {
	n := int64(len(w.sealed))
	if w.active != nil {
		n++
	}
	total := w.good
	for _, s := range w.sealed {
		total += s.size
	}
	w.liveSegs.Store(n)
	w.liveBytes.Store(total)
}

// TruncateThrough deletes every sealed segment whose records are all
// covered by a checkpoint through `through` batches (record indices are all
// < through): retention keeps exactly what the checkpoint does not cover.
// The active segment is never deleted. Returns how many segments were
// removed.
func (w *SegmentedWAL) TruncateThrough(through uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer w.publish()
	deletable := 0
	for i := range w.sealed {
		end := w.first // active segment's first index bounds the last sealed one
		if i+1 < len(w.sealed) {
			end = w.sealed[i+1].first
		}
		if end > through {
			break
		}
		deletable++
	}
	removed := 0
	for removed < deletable {
		s := w.sealed[removed]
		if err := w.fs.Remove(filepath.Join(w.dir, segName(s.first))); err != nil {
			w.sealed = w.sealed[removed:]
			return removed, fmt.Errorf("wal: retention: %w", err)
		}
		removed++
	}
	w.sealed = append([]segMeta(nil), w.sealed[removed:]...)
	return removed, nil
}

// Probe verifies the log can take writes again after a disk fault: repair
// any torn append, re-create the active segment if a roll died, and fsync.
// A nil return means the next Append starts from a clean, durable position.
func (w *SegmentedWAL) Probe() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer w.publish()
	if w.closed {
		return fmt.Errorf("wal: closed")
	}
	if w.active == nil {
		return w.roll()
	}
	if w.dirty {
		if err := w.repairLocked(); err != nil {
			return err
		}
	}
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("wal: probe sync: %w", err)
	}
	return nil
}

// Close flushes and closes the active segment.
func (w *SegmentedWAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer w.publish()
	w.closed = true
	if w.active == nil {
		return nil
	}
	var err error
	if w.dirty {
		err = w.repairLocked()
	}
	if serr := w.active.Sync(); err == nil {
		err = serr
	}
	if cerr := w.active.Close(); err == nil {
		err = cerr
	}
	w.active = nil
	return err
}
