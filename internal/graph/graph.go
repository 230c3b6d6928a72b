// Package graph provides the streaming-graph substrate shared by every
// CISGraph engine and by the hardware model: a mutable adjacency structure
// (Dynamic) that absorbs batched edge additions and deletions,
// deterministic synthetic dataset generators standing in for the paper's
// Orkut / LiveJournal / UK-2002 crawls, simple edge-list I/O, and the one
// byte layout of an arc and of an update that every file and wire format
// shares.
package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// VertexID identifies a vertex. Graphs are dense: vertices are 0..N-1.
type VertexID = uint32

// NoVertex is a sentinel "no such vertex" value (used e.g. for absent
// dependency-tree parents).
const NoVertex VertexID = ^VertexID(0)

// Edge is an out-edge as stored in adjacency lists: the target vertex and
// the raw (dataset) weight. Algorithms map raw weights into their own weight
// domain, so a single stored weight serves PPSP, PPWP, PPNP, Viterbi and
// Reach alike.
type Edge struct {
	To VertexID
	W  float64
}

// Arc is a fully specified directed edge, used by edge lists, generators and
// update batches.
type Arc struct {
	From, To VertexID
	W        float64
}

// Update is one streaming graph mutation: an edge addition or deletion.
// Vertex additions/deletions are expressed as a series of edge updates, as
// in the paper (§II-A).
type Update struct {
	Arc
	Del bool // false = addition, true = deletion
}

// Add returns an addition update for u→v with weight w.
func Add(u, v VertexID, w float64) Update {
	return Update{Arc: Arc{From: u, To: v, W: w}}
}

// Del returns a deletion update for u→v with weight w.
func Del(u, v VertexID, w float64) Update {
	return Update{Arc: Arc{From: u, To: v, W: w}, Del: true}
}

func (u Update) String() string {
	op := "+"
	if u.Del {
		op = "-"
	}
	return fmt.Sprintf("%s%d->%d(%g)", op, u.From, u.To, u.W)
}

// The byte layouts of an Arc and an Update, little-endian, shared by every
// format that carries one: the .bel snapshot and the checkpoint hold arcs,
// the WAL, the replication tail and CGBIN/2 frames hold updates.
//
//	arc     uint32 from | uint32 to | uint64 weight bits (IEEE-754)
//	update  uint8 op (0 add, 1 del) | arc
const (
	ArcSize    = 16
	UpdateSize = 1 + ArcSize
)

// AppendArc appends a's encoding to buf.
func AppendArc(buf []byte, a Arc) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, a.From)
	buf = binary.LittleEndian.AppendUint32(buf, a.To)
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.W))
}

// DecodeArc decodes the arc encoded in the first ArcSize bytes of b.
func DecodeArc(b []byte) Arc {
	_ = b[ArcSize-1]
	return Arc{
		From: binary.LittleEndian.Uint32(b[0:4]),
		To:   binary.LittleEndian.Uint32(b[4:8]),
		W:    math.Float64frombits(binary.LittleEndian.Uint64(b[8:16])),
	}
}

// AppendUpdates appends the encodings of ups to buf, back to back.
func AppendUpdates(buf []byte, ups []Update) []byte {
	for _, u := range ups {
		op := byte(0)
		if u.Del {
			op = 1
		}
		buf = AppendArc(append(buf, op), u.Arc)
	}
	return buf
}

// ValidUpdates reports whether b is whole updates back to back, every op
// byte 0 or 1 — what DecodeUpdates accepts.
func ValidUpdates(b []byte) bool {
	if len(b)%UpdateSize != 0 {
		return false
	}
	for off := 0; off < len(b); off += UpdateSize {
		if b[off] > 1 {
			return false
		}
	}
	return true
}

// DecodeUpdates appends the updates encoded back to back in b to ups. It
// appends nothing and reports false unless ValidUpdates(b).
func DecodeUpdates(ups []Update, b []byte) ([]Update, bool) {
	if !ValidUpdates(b) {
		return ups, false
	}
	ups = slices.Grow(ups, len(b)/UpdateSize)
	for off := 0; off < len(b); off += UpdateSize {
		ups = append(ups, Update{Arc: DecodeArc(b[off+1:]), Del: b[off] == 1})
	}
	return ups, true
}

// EdgeList is a dataset: a vertex count and a list of directed weighted
// edges. It is the interchange form between generators, files and engines.
type EdgeList struct {
	Name string
	N    int // number of vertices (IDs are 0..N-1)
	Arcs []Arc
}

// Validate checks that every endpoint is in range and that no self-loops are
// present. Generators and loaders produce valid lists; Validate is the guard
// for hand-built ones.
func (e *EdgeList) Validate() error {
	if e.N < 0 {
		return fmt.Errorf("graph %q: negative vertex count %d", e.Name, e.N)
	}
	for i, a := range e.Arcs {
		if int(a.From) >= e.N || int(a.To) >= e.N {
			return fmt.Errorf("graph %q: arc %d (%d->%d) out of range N=%d", e.Name, i, a.From, a.To, e.N)
		}
		if a.From == a.To {
			return fmt.Errorf("graph %q: arc %d is a self-loop at %d", e.Name, i, a.From)
		}
	}
	return nil
}

// AvgDegree returns the average out-degree |E|/|V| (0 for an empty graph).
func (e *EdgeList) AvgDegree() float64 {
	if e.N == 0 {
		return 0
	}
	return float64(len(e.Arcs)) / float64(e.N)
}

// key packs a (from, to) pair into a single comparable value for dedup maps.
func key(u, v VertexID) uint64 { return uint64(u)<<32 | uint64(v) }
