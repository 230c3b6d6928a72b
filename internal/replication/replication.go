// Package replication implements WAL-shipping read replication for
// cisgraphd (DESIGN.md §13). The engine is a deterministic state machine —
// sanitize → segmented WAL → apply, keyed by batch index — so a follower
// that replays the leader's durable log byte for byte converges on exactly
// the leader's answers; divergence is impossible by construction.
//
// The leader ships its segmented WAL over HTTP:
//
//	GET /v1/repl/segments            live segment listing + next/oldest index
//	GET /v1/repl/tail?from=N         long-poll stream of CRC32-framed records
//	GET /v1/repl/checkpoint          latest checkpoint envelope (bootstrap)
//
// Followers bootstrap from the checkpoint, tail the log with jittered
// exponential backoff across leader restarts and partitions, re-verify every
// record's CRC (a torn or truncated response costs only a re-fetch of the
// unverified suffix), and re-bootstrap automatically when retention has
// deleted a segment they still need (HTTP 410).
//
// A record frame on the wire is byte-identical to the on-disk WAL record:
//
//	uint64 index | uint32 payload length | uint32 CRC-32 (IEEE, of the
//	payload) | payload
//
// so the CRC the follower verifies is the CRC the leader fsynced.
package replication

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"cisgraph/internal/resilience"
)

// Replication endpoint paths (mounted by the serving layer on leaders).
const (
	PathSegments   = "/v1/repl/segments"
	PathTail       = "/v1/repl/tail"
	PathCheckpoint = "/v1/repl/checkpoint"
)

// Replication HTTP headers.
const (
	// HeaderNext carries the leader's next WAL index on every tail and
	// checkpoint response — the follower's lag denominator, present even on
	// empty long-poll returns.
	HeaderNext = "X-CISGraph-Repl-Next"
	// HeaderStaleness stamps follower read responses with the seconds since
	// the follower last confirmed it was caught up with the leader.
	HeaderStaleness = "X-CISGraph-Staleness"
	// HeaderMaxStaleness is the client-side staleness bound: a follower
	// whose staleness exceeds it answers 503 instead of a stale read.
	HeaderMaxStaleness = "X-CISGraph-Max-Staleness"
	// HeaderRole identifies the responding node's role (leader/follower).
	HeaderRole = "X-CISGraph-Role"
	// HeaderEpoch carries a node's leadership epoch — the fencing token of
	// DESIGN.md §17. Sources stamp it on every replication response;
	// tailers send their own epoch on every request, so both sides can
	// detect a deposed peer and refuse to serve or apply across the fence.
	HeaderEpoch = "X-CISGraph-Epoch"
)

// maxFramePayload mirrors the WAL's record bound so a corrupt or hostile
// length field cannot drive a huge allocation on the follower.
const maxFramePayload = 1 << 28

// ErrTornFrame reports a frame cut off mid-record (truncated response,
// dropped connection). The already-verified prefix is trustworthy; the
// tailer re-fetches from the first unverified record.
var ErrTornFrame = errors.New("repl: torn frame (truncated response)")

// ErrCorruptFrame reports a frame that failed CRC or payload verification —
// bit rot or a corrupting middlebox, never trusted.
var ErrCorruptFrame = errors.New("repl: frame failed verification")

// AppendFrame appends rec's wire frame to buf and returns the extended
// slice. The bytes are identical to the record's on-disk form.
func AppendFrame(buf []byte, rec resilience.Record) []byte {
	payload := resilience.EncodeRecordPayload(rec)
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], rec.Index)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// ReadFrame decodes and verifies one frame from br. io.EOF marks a clean
// end of stream (between frames); a partial header or payload yields
// ErrTornFrame, and a checksum or decode failure yields ErrCorruptFrame.
func ReadFrame(br *bufio.Reader) (resilience.Record, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return resilience.Record{}, io.EOF
		}
		return resilience.Record{}, ErrTornFrame
	}
	idx := binary.LittleEndian.Uint64(hdr[0:8])
	plen := binary.LittleEndian.Uint32(hdr[8:12])
	want := binary.LittleEndian.Uint32(hdr[12:16])
	if plen > maxFramePayload {
		return resilience.Record{}, fmt.Errorf("%w: payload length %d", ErrCorruptFrame, plen)
	}
	payload, err := resilience.ReadPayload(br, nil, int(plen))
	if err != nil {
		return resilience.Record{}, ErrTornFrame
	}
	if crc32.ChecksumIEEE(payload) != want {
		return resilience.Record{}, fmt.Errorf("%w: record %d checksum mismatch", ErrCorruptFrame, idx)
	}
	batch, sid, seq, ok := resilience.DecodeRecordPayload(payload)
	if !ok {
		return resilience.Record{}, fmt.Errorf("%w: record %d payload undecodable", ErrCorruptFrame, idx)
	}
	return resilience.Record{Index: idx, Batch: batch, SID: sid, Seq: seq}, nil
}
