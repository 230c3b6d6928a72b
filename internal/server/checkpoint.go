package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"cisgraph/internal/core"
	"cisgraph/internal/graph"
)

// Server checkpoint payload: the authoritative topology (the pool's), the
// registered queries and the exactly-once session table (DESIGN.md §17). It
// rides inside the resilience checkpoint envelope (WriteCheckpointMetaFS:
// atomic temp-file+rename, CRC, covered stream position, epoch). Answers are
// deliberately *not* persisted: on restore every query recomputes from the
// topology, which is always answer-identical (the engines' cross-agreement
// guarantee) and keeps the payload small and version-stable.
//
// Layout (little-endian):
//
//	header  "CGSRVS2\n" (8 bytes)
//	uint32  vertex count N
//	uint64  edge count M
//	M ×     uint32 from | uint32 to | uint64 weight bits (IEEE-754)
//	uint32  query count Q
//	Q ×     uint32 source | uint32 destination
//	uint32  session count S (0 when no CGBIN/2 client was ever seen)
//	S ×     uint64 session id | uint64 highest accepted seq
//
// Sessions are written least-recently-advanced first, making the restored
// table's eviction order identical to the live one, so a restored or
// promoted node refuses the same replayed updates the pre-crash leader
// would have.

var srvStateHeader = []byte("CGSRVS2\n")

// freeVertices is how many vertices a checkpoint may name without paying
// for them in payload bytes. Every vertex beyond it costs one byte: a
// payload of L bytes may name at most freeVertices + L vertices
// (checkVertexCount). Building the topology costs ~56 B a vertex, so a
// payload can make decodeState allocate at most ~56·(2^20 + L) bytes — not
// 240 GB on a 28-byte payload that names 2^32−1 vertices. Any topology with
// at least one edge per 16 vertices passes, since an edge is 16 payload
// bytes.
const freeVertices = 1 << 20

// checkVertexCount applies the freeVertices rule to a vertex count n named
// by a payload of payloadLen bytes. decodeState refuses a payload that
// breaks it, and writeCheckpointLocked refuses to write one, so every
// checkpoint the daemon writes restores.
func checkVertexCount(n, payloadLen int) error {
	if n > freeVertices+payloadLen {
		return fmt.Errorf("server: checkpoint payload: vertex count %d exceeds %d + payload length %d", n, freeVertices, payloadLen)
	}
	return nil
}

// encodeState serializes the topology, query set, and exactly-once session
// table.
func encodeState(g *graph.Dynamic, queries []core.Query, sessions []dedupSession) []byte {
	buf := make([]byte, 0, len(srvStateHeader)+12+graph.ArcSize*g.NumEdges()+4+8*len(queries)+4+16*len(sessions))
	buf = append(buf, srvStateHeader...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g.NumVertices()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.NumEdges()))
	for u := 0; u < g.NumVertices(); u++ {
		for _, e := range g.Out(graph.VertexID(u)) {
			buf = graph.AppendArc(buf, graph.Arc{From: graph.VertexID(u), To: e.To, W: e.W})
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(queries)))
	for _, q := range queries {
		buf = binary.LittleEndian.AppendUint32(buf, q.S)
		buf = binary.LittleEndian.AppendUint32(buf, q.D)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sessions)))
	for _, s := range sessions {
		buf = binary.LittleEndian.AppendUint64(buf, s.SID)
		buf = binary.LittleEndian.AppendUint64(buf, s.Seq)
	}
	return buf
}

// DecodeCheckpointState parses a server checkpoint payload (the bytes inside
// the resilience checkpoint envelope) back into the topology and query set.
// Exported for offline verification tooling: the chaos harness and
// loadgen -verify-durable rebuild the durable state independently of a
// running server and compare answers against what the server acknowledged.
func DecodeCheckpointState(payload []byte) (*graph.Dynamic, []core.Query, error) {
	g, queries, _, err := decodeState(payload)
	return g, queries, err
}

// decodeState parses a payload written by encodeState.
func decodeState(payload []byte) (*graph.Dynamic, []core.Query, []dedupSession, error) {
	r := bytes.NewReader(payload)
	header := make([]byte, len(srvStateHeader))
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, nil, nil, fmt.Errorf("server: checkpoint payload: bad header")
	}
	if !bytes.Equal(header, srvStateHeader) {
		return nil, nil, nil, fmt.Errorf("server: checkpoint payload: bad header %q (want %q)", header, srvStateHeader)
	}
	var scratch [16]byte
	if _, err := io.ReadFull(r, scratch[:4]); err != nil {
		return nil, nil, nil, fmt.Errorf("server: checkpoint payload: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(scratch[:4]))
	if err := checkVertexCount(n, len(payload)); err != nil {
		return nil, nil, nil, err
	}
	if _, err := io.ReadFull(r, scratch[:8]); err != nil {
		return nil, nil, nil, fmt.Errorf("server: checkpoint payload: %w", err)
	}
	m := binary.LittleEndian.Uint64(scratch[:8])
	if m > uint64(r.Len())/16 {
		return nil, nil, nil, fmt.Errorf("server: checkpoint payload: edge count %d exceeds payload", m)
	}
	arcs := make([]graph.Arc, m)
	for i := range arcs {
		if _, err := io.ReadFull(r, scratch[:graph.ArcSize]); err != nil {
			return nil, nil, nil, fmt.Errorf("server: checkpoint payload: edge %d: %w", i, err)
		}
		a := graph.DecodeArc(scratch[:])
		if int(a.From) >= n || int(a.To) >= n {
			return nil, nil, nil, fmt.Errorf("server: checkpoint payload: edge %d (%d->%d) out of range N=%d", i, a.From, a.To, n)
		}
		arcs[i] = a
	}
	g := graph.FromEdgeList(&graph.EdgeList{N: n, Arcs: arcs})
	if _, err := io.ReadFull(r, scratch[:4]); err != nil {
		return nil, nil, nil, fmt.Errorf("server: checkpoint payload: %w", err)
	}
	nq := int(binary.LittleEndian.Uint32(scratch[:4]))
	if nq > r.Len()/8 {
		return nil, nil, nil, fmt.Errorf("server: checkpoint payload: query count %d exceeds payload", nq)
	}
	queries := make([]core.Query, 0, nq)
	for i := 0; i < nq; i++ {
		if _, err := io.ReadFull(r, scratch[:8]); err != nil {
			return nil, nil, nil, fmt.Errorf("server: checkpoint payload: query %d: %w", i, err)
		}
		q := core.Query{
			S: binary.LittleEndian.Uint32(scratch[0:4]),
			D: binary.LittleEndian.Uint32(scratch[4:8]),
		}
		if int(q.S) >= n || int(q.D) >= n {
			return nil, nil, nil, fmt.Errorf("server: checkpoint payload: query %d (%d->%d) out of range N=%d", i, q.S, q.D, n)
		}
		queries = append(queries, q)
	}
	if _, err := io.ReadFull(r, scratch[:4]); err != nil {
		return nil, nil, nil, fmt.Errorf("server: checkpoint payload: %w", err)
	}
	ns := int(binary.LittleEndian.Uint32(scratch[:4]))
	if ns > r.Len()/16 {
		return nil, nil, nil, fmt.Errorf("server: checkpoint payload: session count %d exceeds payload", ns)
	}
	sessions := make([]dedupSession, 0, ns)
	for i := 0; i < ns; i++ {
		if _, err := io.ReadFull(r, scratch[:16]); err != nil {
			return nil, nil, nil, fmt.Errorf("server: checkpoint payload: session %d: %w", i, err)
		}
		sessions = append(sessions, dedupSession{
			SID: binary.LittleEndian.Uint64(scratch[0:8]),
			Seq: binary.LittleEndian.Uint64(scratch[8:16]),
		})
	}
	return g, queries, sessions, nil
}
