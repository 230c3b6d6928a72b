package replication

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"cisgraph/internal/resilience"
)

// allocatedBy returns the bytes the heap handed out while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// frameAllocSlack is the constant in FuzzReadFrame's allocation bound: one
// resilience.PayloadChunk before any payload byte arrives, plus the
// decoder's fixed costs.
const frameAllocSlack = resilience.PayloadChunk + 16<<10

// hugeClaim is the largest payload a record header may declare (the WAL's
// record bound, 256 MiB).
const hugeClaim = 1 << 28

// FuzzReadFrame: no input panics the tail's record reader
// (resilience.ReadRecord), and reading a stream of records allocates at
// most 8 bytes per input byte plus frameAllocSlack — whatever lengths its
// headers claim.
func FuzzReadFrame(f *testing.F) {
	var good []byte
	for i := 0; i < 3; i++ {
		good = resilience.AppendRecord(good, resilience.Record{Index: uint64(i), Batch: frameBatch(i)})
	}
	f.Add(good)
	f.Add(good[:len(good)-5])
	huge := make([]byte, 16) // a bare header claiming a 256 MiB payload
	binary.LittleEndian.PutUint64(huge[0:8], 7)
	binary.LittleEndian.PutUint32(huge[8:12], hugeClaim)
	f.Add(huge)
	f.Add(append(huge[:16:16], good...))
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var (
			buf []byte
			err error
		)
		got := allocatedBy(func() {
			for err == nil {
				_, buf, err = resilience.ReadRecord(br, buf)
			}
		})
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, resilience.ErrBadRecord) {
			t.Fatalf("ReadRecord: unexpected error %v", err)
		}
		if limit := 8*uint64(len(data)) + frameAllocSlack; got > limit {
			t.Fatalf("%d input bytes allocated %d bytes, over %d", len(data), got, limit)
		}
	})
}

// A 16-byte header that claims 256 MiB fails as a torn record after
// allocating one chunk, not the claimed length.
func TestReadFrameHugeClaimAllocatesLittle(t *testing.T) {
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[8:12], hugeClaim)
	br := bufio.NewReader(bytes.NewReader(hdr))
	var err error
	got := allocatedBy(func() { _, _, err = resilience.ReadRecord(br, nil) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadRecord: %v, want io.ErrUnexpectedEOF", err)
	}
	if got >= 1<<20 {
		t.Fatalf("a 256 MiB claim allocated %d bytes, want < 1 MiB", got)
	}
}
