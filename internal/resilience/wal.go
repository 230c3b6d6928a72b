package resilience

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"

	"cisgraph/internal/graph"
)

// Write-ahead log records. Appending a batch before applying it makes the
// stream durable: after a crash, the surviving state is the latest
// checkpoint plus the WAL suffix, and replaying that suffix reproduces the
// exact pre-crash engine. The log itself is the segmented one (segwal.go);
// this file holds the record codec it, the replication wire and the
// checkpoint envelope share.
//
// Record layout (all integers little-endian):
//
//	record  uint64 index | uint32 payload length | uint32 CRC-32 (IEEE, of
//	        the payload) | payload
//	payload uint32 count, then per update: uint8 op (0 add, 1 del) |
//	        uint32 from | uint32 to | uint64 weight bits (IEEE-754), then the
//	        optional 20-byte session trailer
//
// Records carry consecutive indices — one per stream position. A torn or
// bit-flipped record fails its checksum; readers treat the first bad record
// as the end of the log (the standard redo-log recovery rule).

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

// EncodeRecordPayload encodes a record's payload including its session
// trailer (when tagged), so replication frames stay byte-identical to the
// on-disk record and followers inherit the dedup tags the leader fsynced.
func EncodeRecordPayload(rec Record) []byte { return appendRecordPayload(nil, rec) }

// Session trailer: an optional 20-byte suffix on a record payload binding
// the batch to an ingest session — magic "CGSS" | uint64 session id |
// uint64 sequence. The count disambiguates: a payload is either exactly
// 4+17n bytes (untagged) or 4+17n+20 with the trailer magic.
var sessTrailerMagic = []byte("CGSS")

const sessTrailerSize = 20

// appendRecordPayload appends rec's payload to buf — the one encoder, so a
// group append encodes straight into the log's reused write buffer.
func appendRecordPayload(buf []byte, rec Record) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Batch)))
	for _, up := range rec.Batch {
		op := byte(0)
		if up.Del {
			op = 1
		}
		buf = append(buf, op)
		buf = binary.LittleEndian.AppendUint32(buf, up.From)
		buf = binary.LittleEndian.AppendUint32(buf, up.To)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(up.W))
	}
	if rec.SID != 0 {
		buf = append(buf, sessTrailerMagic...)
		buf = binary.LittleEndian.AppendUint64(buf, rec.SID)
		buf = binary.LittleEndian.AppendUint64(buf, rec.Seq)
	}
	return buf
}

// DecodeRecordPayload is the inverse of EncodeRecordPayload; ok is false
// when the payload is malformed.
func DecodeRecordPayload(payload []byte) (batch []graph.Update, sid, seq uint64, ok bool) {
	n, sid, seq, ok := payloadShape(payload)
	if !ok {
		return nil, 0, 0, false
	}
	return appendBatch(make([]graph.Update, 0, n), payload, n), sid, seq, true
}

// payloadShape checks a record payload's shape without decoding it: the
// count, then exactly that many updates and, optionally, a session trailer
// with a nonzero id. It returns the update count and the session tag.
func payloadShape(payload []byte) (n uint32, sid, seq uint64, ok bool) {
	if len(payload) < 4 {
		return 0, 0, 0, false
	}
	n = binary.LittleEndian.Uint32(payload)
	base := 4 + 17*uint64(n)
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
	return n, sid, seq, true
}

// appendBatch appends the n updates of a payload payloadShape accepted to
// batch.
func appendBatch(batch []graph.Update, payload []byte, n uint32) []graph.Update {
	batch = slices.Grow(batch, int(n))
	rest := payload[4:]
	for i := uint32(0); i < n; i++ {
		rec := rest[17*i : 17*i+17]
		up := graph.Update{Del: rec[0] == 1}
		up.From = binary.LittleEndian.Uint32(rec[1:5])
		up.To = binary.LittleEndian.Uint32(rec[5:9])
		up.W = math.Float64frombits(binary.LittleEndian.Uint64(rec[9:17]))
		batch = append(batch, up)
	}
	return batch
}

// PayloadChunk is the most ReadPayload allocates before any payload byte
// has arrived.
const PayloadChunk = 64 << 10

// ReadPayload reads an n-byte payload from r into buf's memory when it has
// room for it, else into memory allocated as the bytes arrive: the buffer
// starts at PayloadChunk and at most doubles per refill, so a header that
// claims more than the stream holds costs at most twice what arrived plus
// one chunk, not the claimed length. Every decoder of a length-prefixed wire
// payload reads through it: replication frames, CGBIN/2 frames and the
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
