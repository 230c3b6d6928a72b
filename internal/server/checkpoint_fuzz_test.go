package server

import (
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"cisgraph/internal/core"
	"cisgraph/internal/graph"
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

// emptyPayload is the 28-byte checkpoint payload of an edgeless, query-
// and session-free topology that names n vertices.
func emptyPayload(n uint32) []byte {
	p := append([]byte(nil), srvStateHeader...)
	p = binary.LittleEndian.AppendUint32(p, n)
	p = binary.LittleEndian.AppendUint64(p, 0) // edges
	p = binary.LittleEndian.AppendUint32(p, 0) // queries
	return binary.LittleEndian.AppendUint32(p, 0)
}

// checkpointAllocBound is FuzzDecodeCheckpoint's allocation bound for a
// payload of l bytes: ~56 B per vertex the freeVertices rule admits, at
// most 64 B per payload byte for edges, queries and sessions, and a fixed
// 64 KiB for the decoder itself.
func checkpointAllocBound(l int) uint64 {
	return 56*uint64(freeVertices) + 64*uint64(l) + 64<<10
}

// FuzzDecodeCheckpoint: no payload panics decodeState, and none makes it
// allocate beyond checkpointAllocBound, whatever counts its header claims.
func FuzzDecodeCheckpoint(f *testing.F) {
	g := graph.NewDynamic(6)
	g.AddEdge(0, 1, 1.5)
	g.AddEdge(4, 5, 9)
	f.Add(encodeState(g, []core.Query{{S: 0, D: 1}}, []dedupSession{{SID: 3, Seq: 9}}))
	f.Add(emptyPayload(1 << 22))
	f.Add(emptyPayload(^uint32(0)))
	f.Add(emptyPayload(3))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var err error
		got := allocatedBy(func() { _, _, _, err = decodeState(payload) })
		if limit := checkpointAllocBound(len(payload)); got > limit {
			t.Fatalf("%d-byte payload (err %v) allocated %d bytes, over %d", len(payload), err, got, limit)
		}
	})
}

// The 28-byte payload naming 2^22 vertices is refused before the topology
// build, and the freeVertices rule admits exactly freeVertices + len(payload)
// vertices.
func TestDecodeCheckpointRefusesUnpaidVertices(t *testing.T) {
	payload := emptyPayload(1 << 22)
	if len(payload) != 28 {
		t.Fatalf("payload is %d bytes, want 28", len(payload))
	}
	var err error
	got := allocatedBy(func() { _, _, _, err = decodeState(payload) })
	if err == nil {
		t.Fatal("a 28-byte payload naming 2^22 vertices decoded")
	}
	if got >= 1<<20 {
		t.Fatalf("refusing it allocated %d bytes, want < 1 MiB", got)
	}
	if err := checkVertexCount(freeVertices+28, 28); err != nil {
		t.Fatalf("the rule refuses its own limit: %v", err)
	}
	if err := checkVertexCount(freeVertices+29, 28); err == nil {
		t.Fatal("the rule admits one vertex past its limit")
	}
}

// A follower reads the leader's checkpoint through the envelope's bounds: a
// header that claims a 1 GiB payload (the bound itself) but sends a few
// bytes fails with < 1 MiB allocated, and one that claims more than the
// bound is refused before any payload byte is read.
func TestFetchCheckpointReadsThroughLimit(t *testing.T) {
	for _, tc := range []struct {
		name string
		plen uint32
		want string
	}{
		{"claims the bound", resilience.MaxCheckpointPayload, "truncated"},
		{"claims past the bound", resilience.MaxCheckpointPayload + 1, "bound"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := append([]byte("CGRC"), 2, 0, 0, 0)
			body = binary.LittleEndian.AppendUint64(body, 7) // through
			body = binary.LittleEndian.AppendUint64(body, 0) // epoch
			body = binary.LittleEndian.AppendUint32(body, tc.plen)
			body = binary.LittleEndian.AppendUint32(body, 0) // CRC
			body = append(body, make([]byte, 100)...)
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write(body) }))
			defer ts.Close()
			client := ts.Client()
			var err error
			got := allocatedBy(func() { _, _, _, _, _, err = fetchCheckpoint(client, ts.URL) })
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("fetchCheckpoint: %v, want an error saying %q", err, tc.want)
			}
			if got >= 1<<20 {
				t.Fatalf("fetching it allocated %d bytes, want < 1 MiB", got)
			}
			t.Logf("%v, %d bytes allocated", err, got)
		})
	}
}
