package resilience

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"cisgraph/internal/graph"
)

// Write-ahead log records. Appending a batch before applying it makes the
// stream durable: after a crash, the surviving state is the latest
// checkpoint plus the WAL suffix, and replaying that suffix reproduces the
// exact pre-crash engine. The log itself is the segmented one (segwal.go);
// this file holds the one record codec — AppendRecord to write a record,
// parseRecHeader and recHeader.check to read one — that the log's appender,
// its scan and the replication tail share, and the checkpoint envelope.
//
// Record layout (all integers little-endian):
//
//	record  uint64 index | uint32 payload length | uint32 CRC-32 (IEEE, of
//	        the payload) | payload
//	payload uint32 count, then count updates in graph's 17-byte layout
//	        (uint8 op, 0 add, 1 del | uint32 from | uint32 to | uint64
//	        weight bits), then the optional 20-byte session trailer
//
// Records carry consecutive indices — one per stream position. A torn,
// bit-flipped or malformed record (an op byte other than 0 or 1, a count
// that disagrees with the length) fails its checks; readers treat the first
// bad record as the end of the log (the standard redo-log recovery rule).

// maxWALRecord bounds a single record's payload (17 bytes per update plus
// the count; 1<<28 ≈ 15.8M updates) so a corrupt length field cannot drive
// a huge allocation.
const maxWALRecord = 1 << 28

// Record is one WAL entry: a batch and its position in the stream. SID/Seq
// carry the optional ingest-session tag (DESIGN.md §17): when SID is
// nonzero, the record's payload ends with a 20-byte "CGSS" trailer binding
// the batch to a client session id and per-session sequence number, so the
// exactly-once dedup window can be rebuilt from the log after a crash or a
// leader failover. SID == 0 means untagged (HTTP batch path).
type Record struct {
	Index uint64
	Batch []graph.Update
	SID   uint64
	Seq   uint64
}

// Session trailer: an optional 20-byte suffix on a record payload binding
// the batch to an ingest session — magic "CGSS" | uint64 session id |
// uint64 sequence. The count disambiguates: a payload is either exactly
// 4+17n bytes (untagged) or 4+17n+20 with the trailer magic.
var sessTrailerMagic = []byte("CGSS")

const sessTrailerSize = 20

// recHeaderLen is a record's header: index, payload length and CRC.
const recHeaderLen = 16

// AppendRecord appends rec's record — header and payload, the bytes the log
// holds and the replication tail ships — to buf. It is the one encoder of
// the record layout.
func AppendRecord(buf []byte, rec Record) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, recHeaderLen)...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Batch)))
	buf = graph.AppendUpdates(buf, rec.Batch)
	if rec.SID != 0 {
		buf = append(buf, sessTrailerMagic...)
		buf = binary.LittleEndian.AppendUint64(buf, rec.SID)
		buf = binary.LittleEndian.AppendUint64(buf, rec.Seq)
	}
	payload := buf[start+recHeaderLen:]
	binary.LittleEndian.PutUint64(buf[start:], rec.Index)
	binary.LittleEndian.PutUint32(buf[start+8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+12:], crc32.ChecksumIEEE(payload))
	return buf
}

// recHeader is a record's parsed header.
type recHeader struct {
	index     uint64
	plen, crc uint32
}

// parseRecHeader parses the header in the first recHeaderLen bytes of b; ok
// is false when it declares a payload over maxWALRecord.
func parseRecHeader(b []byte) (h recHeader, ok bool) {
	h = recHeader{
		index: binary.LittleEndian.Uint64(b[0:8]),
		plen:  binary.LittleEndian.Uint32(b[8:12]),
		crc:   binary.LittleEndian.Uint32(b[12:16]),
	}
	return h, h.plen <= maxWALRecord
}

// check verifies the payload h announced without decoding it: its CRC,
// then its shape — the count, exactly that many updates with valid op bytes
// and, optionally, a session trailer with a nonzero id. It returns the
// update count and the session tag. With parseRecHeader it is the one check
// of a record, for the log scan and the tail reader alike.
func (h recHeader) check(payload []byte) (n uint32, sid, seq uint64, ok bool) {
	if len(payload) < 4 || crc32.ChecksumIEEE(payload) != h.crc {
		return 0, 0, 0, false
	}
	n = binary.LittleEndian.Uint32(payload)
	base := 4 + graph.UpdateSize*uint64(n)
	switch uint64(len(payload)) {
	case base:
	case base + sessTrailerSize:
		tr := payload[base:]
		if !bytes.Equal(tr[0:4], sessTrailerMagic) {
			return 0, 0, 0, false
		}
		sid = binary.LittleEndian.Uint64(tr[4:12])
		seq = binary.LittleEndian.Uint64(tr[12:20])
		if sid == 0 {
			return 0, 0, 0, false // tagged trailer with the untagged sentinel id
		}
	default:
		return 0, 0, 0, false
	}
	if !graph.ValidUpdates(payload[4:base]) {
		return 0, 0, 0, false
	}
	return n, sid, seq, true
}

// appendBatch appends the n updates of a payload recHeader.check accepted
// to batch.
func appendBatch(batch []graph.Update, payload []byte, n uint32) []graph.Update {
	batch, _ = graph.DecodeUpdates(batch, payload[4:4+graph.UpdateSize*int(n)])
	return batch
}

// ErrBadRecord reports a record that fails its checks: a length over the
// bound, a checksum mismatch or a malformed payload.
var ErrBadRecord = errors.New("wal: record fails its checks")

// ReadRecord reads one record from r — the replication tail's stream — and
// checks it as the log scan does. io.EOF marks a clean end between records,
// io.ErrUnexpectedEOF a record cut short, and ErrBadRecord one that fails
// a check. The payload is read through ReadPayload into buf's memory when
// it has room; ReadRecord returns the buffer for the next call, and the
// record's batch never aliases it.
func ReadRecord(r io.Reader, buf []byte) (Record, []byte, error) {
	var hb [recHeaderLen]byte
	if _, err := io.ReadFull(r, hb[:]); err != nil {
		return Record{}, buf, err
	}
	h, ok := parseRecHeader(hb[:])
	if !ok {
		return Record{}, buf, fmt.Errorf("%w: record %d declares a %d-byte payload", ErrBadRecord, h.index, h.plen)
	}
	payload, err := ReadPayload(r, buf, int(h.plen))
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return Record{}, buf, err
	}
	n, sid, seq, ok := h.check(payload)
	if !ok {
		return Record{}, payload, fmt.Errorf("%w: record %d", ErrBadRecord, h.index)
	}
	return Record{Index: h.index, Batch: appendBatch(make([]graph.Update, 0, n), payload, n), SID: sid, Seq: seq}, payload, nil
}

// PayloadChunk is the most ReadPayload allocates before any payload byte
// has arrived.
const PayloadChunk = 64 << 10

// ReadPayload reads an n-byte payload from r into buf's memory when it has
// room for it, else into memory allocated as the bytes arrive: the buffer
// starts at PayloadChunk and at most doubles per refill, so a header that
// claims more than the stream holds costs at most twice what arrived plus
// one chunk, not the claimed length. Every decoder of a length-prefixed wire
// payload reads through it: tail records, CGBIN/2 frames and the
// checkpoint a follower fetches.
func ReadPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	if cap(buf) >= n {
		buf = buf[:n]
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf = make([]byte, 0, min(n, PayloadChunk))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), len(buf)))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+k]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Checkpoint files pair a snapshot with the WAL position it covers and the
// leadership epoch (DESIGN.md §17) it was written under, in a checksummed
// envelope:
//
//	magic "CGRC" | uint32 version=2 | uint64 through (stream positions the
//	snapshot includes — recovery replays WAL records with index ≥ through) |
//	uint64 epoch | uint32 payload length | uint32 CRC-32 of the payload |
//	payload
const ckptVersion = 2

var ckptMagic = []byte("CGRC")

const ckptHeaderLen = 32

// MaxCheckpointPayload bounds a checkpoint's payload at 1 GiB:
// WriteCheckpointMetaFS refuses to write a larger one, and ReadCheckpoint
// refuses a header that declares one before reading any of it.
const MaxCheckpointPayload = 1 << 30

// WriteCheckpointMetaFS atomically persists a snapshot covering the first
// `through` stream positions, stamped with the writer's epoch: the envelope
// goes to <path>.tmp, is fsynced, and renamed over path, so a crash
// mid-write never destroys the previous good checkpoint. Single-writer: the
// callers serialize checkpoints.
func WriteCheckpointMetaFS(fsys FS, path string, through, epoch uint64, payload []byte) error {
	if len(payload) > MaxCheckpointPayload {
		return fmt.Errorf("checkpoint: payload of %d bytes is over the %d-byte bound", len(payload), MaxCheckpointPayload)
	}
	buf := make([]byte, ckptHeaderLen, ckptHeaderLen+len(payload))
	copy(buf, ckptMagic)
	binary.LittleEndian.PutUint32(buf[4:8], ckptVersion)
	binary.LittleEndian.PutUint64(buf[8:16], through)
	binary.LittleEndian.PutUint64(buf[16:24], epoch)
	binary.LittleEndian.PutUint32(buf[24:28], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[28:32], crc32.ChecksumIEEE(payload))
	buf = append(buf, payload...)

	tmpPath := path + ".tmp"
	tmp, err := fsys.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		fsys.Remove(tmpPath)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fsys.Remove(tmpPath)
		return fmt.Errorf("checkpoint: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmpPath)
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := fsys.Rename(tmpPath, path); err != nil {
		fsys.Remove(tmpPath)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpointMeta loads a checkpoint file and returns its position, the
// leadership epoch it was written under, and the snapshot bytes. Any
// truncation or bit flip is a clean error.
func ReadCheckpointMeta(path string) (through, epoch uint64, payload []byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, nil, err
	}
	return ReadCheckpoint(f, make([]byte, 0, max(st.Size()-ckptHeaderLen, 0)))
}

// ReadCheckpoint reads one checkpoint envelope, the whole of what r holds —
// a file, or the body of the leader's checkpoint a follower bootstraps
// from — and verifies it, CRC and all, before trusting a byte. It reads the
// header first and refuses a declared payload over MaxCheckpointPayload,
// then reads the payload into buf by the ReadPayload rule, so a header that
// claims more than r holds fails having allocated about what arrived.
func ReadCheckpoint(r io.Reader, buf []byte) (through, epoch uint64, payload []byte, err error) {
	var hdr [ckptHeaderLen]byte
	n, _ := io.ReadFull(r, hdr[:])
	switch {
	case n < 8 || !bytes.Equal(hdr[:4], ckptMagic):
		return 0, 0, nil, fmt.Errorf("checkpoint: bad header")
	case binary.LittleEndian.Uint32(hdr[4:8]) != ckptVersion:
		return 0, 0, nil, fmt.Errorf("checkpoint: unsupported version %d (want %d)", binary.LittleEndian.Uint32(hdr[4:8]), ckptVersion)
	case n < ckptHeaderLen:
		return 0, 0, nil, fmt.Errorf("checkpoint: truncated header")
	}
	through = binary.LittleEndian.Uint64(hdr[8:16])
	epoch = binary.LittleEndian.Uint64(hdr[16:24])
	plen := binary.LittleEndian.Uint32(hdr[24:28])
	if plen > MaxCheckpointPayload {
		return 0, 0, nil, fmt.Errorf("checkpoint: header declares a %d-byte payload, over the %d-byte bound", plen, MaxCheckpointPayload)
	}
	if payload, err = ReadPayload(r, buf, int(plen)); err != nil {
		return 0, 0, nil, fmt.Errorf("checkpoint: truncated (header says %d payload bytes)", plen)
	}
	if n, _ := io.ReadFull(r, hdr[:1]); n > 0 {
		return 0, 0, nil, fmt.Errorf("checkpoint: bytes past the %d-byte payload its header declares", plen)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(hdr[28:32]); got != want {
		return 0, 0, nil, fmt.Errorf("checkpoint: payload checksum mismatch (got %08x, want %08x)", got, want)
	}
	return through, epoch, payload, nil
}
