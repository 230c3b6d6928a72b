package server

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
)

// Binary framed ingest protocol, CGBIN/2 (DESIGN.md §14, §17). A persistent
// TCP connection carries updates to the per-update fast path without the
// JSON/HTTP tax:
//
//	client → server   hello: the 8 bytes "CGBIN/2\n"
//	client → server   frames: uint32 payloadLen | uint32 crc32(payload) | payload
//	server → client   one ack per frame, in frame order:
//	                  uint64 position | uint32 accepted | uint32 dropped | uint32 status
//
// A frame payload is the client's session identity followed by the updates:
//
//	uint64 session id (nonzero) | uint64 seq of the frame's FIRST update |
//	n × 17-byte update records
//
// and each update record is graph's one update layout (graph.AppendUpdates
// writes it, graph.DecodeUpdates reads it, refusing an op byte other than 0
// or 1), the layout WAL record payloads hold too:
//
//	op(1: 0=add, 1=del) | src(4) | dst(4) | weight(8, IEEE-754 bits)
//
// Updates in a frame are consecutively numbered seq, seq+1, …; each becomes
// one WAL record carrying its (sid, seq), so a client that replays un-acked
// updates against the same — or a newly promoted — leader can never
// double-apply one: already-accepted (sid, seq) pairs are skipped (counted
// in srv_dedup_hits) and acked as accepted, because they are durable.
//
// Acks stream back as each group commits: position is the global stream
// position after this frame's accepted updates were applied AND made
// durable — receiving the ack means the updates are visible to /v1/answers
// readers. Pipelining is the client's choice: it may keep many frames in
// flight; acks always arrive in frame order.
//
// All integers are little-endian, matching the WAL. A malformed frame
// (oversized, torn length, CRC mismatch, session id 0, a bad op byte)
// desynchronizes the stream, so the server acks it with BinStatusBadFrame
// and closes the connection; any other hello (including the retired
// "CGBIN/1\n") closes it at once.

// BinHello2 is the connection preamble.
const BinHello2 = "CGBIN/2\n"

// BinUpdateSize is the wire size of one update record, graph's update layout.
const BinUpdateSize = graph.UpdateSize

// BinSessionOverhead is the per-frame session prefix (sid + seq).
const BinSessionOverhead = 16

// BinMaxFramePayload bounds one frame's update records (64k updates ≈ 1.1
// MiB) — the binary counterpart of MaxBodyBytes; with BinSessionOverhead on
// top it is the allocation bound a wire-controlled length field can never
// exceed.
const BinMaxFramePayload = 65536 * BinUpdateSize

// Ack status codes.
const (
	BinStatusOK        = 0 // accepted updates are durable and visible
	BinStatusDraining  = 1 // server shutting down; nothing applied
	BinStatusDegraded  = 2 // durable writes failing; nothing applied, retry later
	BinStatusBadFrame  = 3 // malformed frame; connection closes after this ack
	BinStatusNotLeader = 4 // node is a follower; nothing applied, find the leader
)

// BinAckSize is the wire size of one ack.
const BinAckSize = 20

// BinAck is one per-frame acknowledgement.
type BinAck struct {
	Pos      uint64 // global stream position after this frame's commit
	Accepted uint32 // updates applied (and made durable)
	Dropped  uint32 // updates refused by the sanitizer
	Status   uint32 // BinStatus*
}

// AppendBinFrameSession appends the framed encoding of ups — tagged with the
// client session id and the first update's sequence number — to buf and
// returns the extended slice.
func AppendBinFrameSession(buf []byte, sid, seq uint64, ups []graph.Update) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, 8)...)
	buf = binary.LittleEndian.AppendUint64(buf, sid)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = graph.AppendUpdates(buf, ups)
	payload := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:start+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:start+8], crc32.ChecksumIEEE(payload))
	return buf
}

// readBinPayload reads and CRC-verifies one frame payload of plen bytes,
// bounding the allocation: plen comes off the wire, so it is validated by
// the caller against the protocol maximum, and a payloadBuf too small for it
// grows as the bytes arrive (resilience.ReadPayload). The reusable
// payloadBuf caps steady-state allocation at one frame.
func readBinPayload(r io.Reader, payloadBuf []byte, plen, wantCRC uint32) ([]byte, error) {
	payload, err := resilience.ReadPayload(r, payloadBuf, int(plen))
	if err != nil {
		return payloadBuf, fmt.Errorf("binproto: torn frame payload: %w", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return payloadBuf, fmt.Errorf("binproto: frame CRC mismatch (got %08x, want %08x)", got, wantCRC)
	}
	return payload, nil
}

// readBinHeader reads the 8-byte frame header. A clean EOF before any byte
// returns io.EOF; a partial header is a torn-read protocol error.
func readBinHeader(r io.Reader) (plen, wantCRC uint32, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("binproto: torn frame header: %w", err)
		}
		return 0, 0, err
	}
	return binary.LittleEndian.Uint32(hdr[0:4]), binary.LittleEndian.Uint32(hdr[4:8]), nil
}

// ReadBinFrameSession reads one frame — the session prefix (sid, first seq)
// plus the update records — verifying length and CRC, and appends the
// decoded updates to ups (pass reused slices to avoid allocation). A clean
// EOF before any header byte returns io.EOF; every other failure is a
// protocol error the caller must treat as fatal for the connection. An
// oversized or misaligned length field is rejected before any buffer is
// sized from it; a zero session id (the untagged sentinel) is refused.
func ReadBinFrameSession(r io.Reader, ups []graph.Update, payloadBuf []byte) ([]graph.Update, []byte, uint64, uint64, error) {
	plen, wantCRC, err := readBinHeader(r)
	if err != nil {
		return ups, payloadBuf, 0, 0, err
	}
	if plen < BinSessionOverhead+BinUpdateSize || plen > BinMaxFramePayload+BinSessionOverhead ||
		(plen-BinSessionOverhead)%BinUpdateSize != 0 {
		return ups, payloadBuf, 0, 0, fmt.Errorf("binproto: bad session frame payload length %d", plen)
	}
	payload, err := readBinPayload(r, payloadBuf, plen, wantCRC)
	if err != nil {
		return ups, payload, 0, 0, err
	}
	payloadBuf = payload[:cap(payload)]
	sid := binary.LittleEndian.Uint64(payload[0:8])
	seq := binary.LittleEndian.Uint64(payload[8:16])
	if sid == 0 {
		return ups, payloadBuf, 0, 0, fmt.Errorf("binproto: session id 0 is reserved")
	}
	ups, ok := graph.DecodeUpdates(ups, payload[BinSessionOverhead:])
	if !ok {
		return ups, payloadBuf, 0, 0, fmt.Errorf("binproto: bad op byte (an update's op is 0 or 1)")
	}
	return ups, payloadBuf, sid, seq, nil
}

// AppendBinAck appends a's wire encoding to buf.
func AppendBinAck(buf []byte, a BinAck) []byte {
	var rec [BinAckSize]byte
	binary.LittleEndian.PutUint64(rec[0:8], a.Pos)
	binary.LittleEndian.PutUint32(rec[8:12], a.Accepted)
	binary.LittleEndian.PutUint32(rec[12:16], a.Dropped)
	binary.LittleEndian.PutUint32(rec[16:20], a.Status)
	return append(buf, rec[:]...)
}

// ReadBinAck reads one ack from r.
func ReadBinAck(r io.Reader) (BinAck, error) {
	var rec [BinAckSize]byte
	if _, err := io.ReadFull(r, rec[:]); err != nil {
		return BinAck{}, err
	}
	return BinAck{
		Pos:      binary.LittleEndian.Uint64(rec[0:8]),
		Accepted: binary.LittleEndian.Uint32(rec[8:12]),
		Dropped:  binary.LittleEndian.Uint32(rec[12:16]),
		Status:   binary.LittleEndian.Uint32(rec[16:20]),
	}, nil
}
