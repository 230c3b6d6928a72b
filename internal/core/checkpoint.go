package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
)

// Checkpointing captures a CISO engine mid-stream — the exact topology and
// the converged per-vertex state — so a long-running query can be persisted
// and resumed without replaying every batch. The on-disk format is a
// checksummed envelope around a gob payload:
//
//	magic "CGCK" | uint32 version | uint64 payload length | uint32 CRC-32
//	(IEEE, of the payload) | payload (gob-encoded checkpointDTO)
//
// all integers little-endian. The checksum turns truncation and bit flips
// into clean load errors instead of gob decode confusion or silently wrong
// state; LoadCISO additionally re-verifies the dependency-tree invariant.

// checkpointVersion guards against format drift. Version 2 added the
// checksummed envelope.
const checkpointVersion = 2

var checkpointMagic = [4]byte{'C', 'G', 'C', 'K'}

// checkpointDTO is the serialised form. All fields exported for gob.
type checkpointDTO struct {
	Version int
	Algo    string
	Query   Query
	Graph   *graph.EdgeList
	Val     []algo.Value
	Parent  []graph.VertexID
}

// Save writes the engine's full state (topology, converged values,
// dependency tree, query binding) to w. The engine must be between
// ApplyBatch calls (it always is from the caller's perspective).
func (c *CISO) Save(w io.Writer) error {
	if c.st == nil {
		return fmt.Errorf("checkpoint: engine not armed (call Reset first)")
	}
	dto := checkpointDTO{
		Version: checkpointVersion,
		Algo:    c.st.a.Name(),
		Query:   Query{S: c.st.src, D: c.st.dests[0]},
		Graph:   c.st.g.EdgeList("checkpoint"),
		Val:     c.st.val,
		Parent:  c.st.parent,
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&dto); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	if _, err := w.Write(checkpointMagic[:]); err != nil {
		return err
	}
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:4], checkpointVersion)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// SaveFile writes the checkpoint to path atomically: the bytes go to a
// temporary file in the same directory which is fsynced and renamed over
// path, so a crash mid-write never leaves a truncated checkpoint where a
// good one (or nothing) used to be.
func (c *CISO) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := c.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	return os.Rename(tmp.Name(), path)
}

// LoadCISO reconstructs a CISO engine from a checkpoint written by Save.
// The restored engine answers identically to the original and continues
// the stream from the checkpointed snapshot. Counters start fresh.
// Truncated or bit-flipped files fail the envelope checksum; files that
// pass it are still re-verified against the dependency-tree invariant.
func LoadCISO(r io.Reader, opts ...CISOOption) (*CISO, error) {
	hdr := make([]byte, 20)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("checkpoint: truncated header: %w", err)
	}
	if !bytes.Equal(hdr[:4], checkpointMagic[:]) {
		return nil, fmt.Errorf("checkpoint: bad magic %q (want %q)", hdr[:4], checkpointMagic[:])
	}
	if version := binary.LittleEndian.Uint32(hdr[4:8]); version != checkpointVersion {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", version)
	}
	plen := binary.LittleEndian.Uint64(hdr[8:16])
	want := binary.LittleEndian.Uint32(hdr[16:20])
	const maxPayload = 1 << 32
	if plen > maxPayload {
		return nil, fmt.Errorf("checkpoint: implausible payload length %d", plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("checkpoint: truncated payload: %w", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("checkpoint: payload checksum mismatch (got %08x, want %08x): file corrupt", got, want)
	}
	var dto checkpointDTO
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&dto); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if dto.Version != checkpointVersion {
		return nil, fmt.Errorf("checkpoint: envelope/payload version mismatch (%d)", dto.Version)
	}
	a, err := algo.ByName(dto.Algo)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if dto.Graph == nil {
		return nil, fmt.Errorf("checkpoint: missing graph")
	}
	if err := dto.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	n := dto.Graph.N
	if len(dto.Val) != n || len(dto.Parent) != n {
		return nil, fmt.Errorf("checkpoint: state arrays (%d/%d values) do not match %d vertices",
			len(dto.Val), len(dto.Parent), n)
	}
	if int(dto.Query.S) >= n || int(dto.Query.D) >= n {
		return nil, fmt.Errorf("checkpoint: query %v out of range N=%d", dto.Query, n)
	}
	g := graph.FromEdgeList(dto.Graph)
	c := NewCISO(opts...)
	c.st = newState(g, a, dto.Query, c.cnt)
	c.st.val, c.st.parent = dto.Val, dto.Parent
	// Restore must be internally consistent: every parent edge must exist
	// and supply its child's value (the invariant every recovery relies on).
	if err := c.st.verifyInvariant(); err != nil {
		return nil, fmt.Errorf("checkpoint: corrupt state: %w", err)
	}
	return c, nil
}

// LoadCISOFile reads a checkpoint file written by SaveFile (or Save).
func LoadCISOFile(path string, opts ...CISOOption) (*CISO, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadCISO(f, opts...)
}

// CheckInvariants implements InvariantChecker: it audits the dependency-tree
// invariant over the engine's whole state. A non-nil error means the state
// is corrupt and answers can no longer be trusted.
func (c *CISO) CheckInvariants() error {
	if c.st == nil {
		return fmt.Errorf("ciso: engine not armed")
	}
	return c.st.verifyInvariant()
}

// CheckInvariants implements InvariantChecker for the Incremental engine,
// which maintains the same dependency-tree invariant.
func (e *Incremental) CheckInvariants() error {
	if e.st == nil {
		return fmt.Errorf("incremental: engine not armed")
	}
	return e.st.verifyInvariant()
}

// verifyInvariant checks the dependency-tree invariant over the whole state
// (used by checkpoint restore and the guard audit; tests use their own
// checker).
func (st *state) verifyInvariant() error {
	if st.val[st.src] != st.a.Source() {
		return fmt.Errorf("source state %v != %v", st.val[st.src], st.a.Source())
	}
	n := len(st.val)
	for v, p := range st.parent {
		if p == graph.NoVertex {
			continue
		}
		if int(p) >= n {
			return fmt.Errorf("vertex %d: parent %d out of range", v, p)
		}
		w, ok := st.g.HasEdge(p, graph.VertexID(v))
		if !ok {
			return fmt.Errorf("vertex %d: parent edge %d->%d missing", v, p, v)
		}
		if got := st.a.Propagate(st.val[p], st.a.Weight(w)); got != st.val[v] {
			return fmt.Errorf("vertex %d: value %v unsupported by parent %d (edge gives %v)",
				v, st.val[v], p, got)
		}
	}
	return nil
}
