package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
)

// Edge-list file formats.
//
// Text (".el"): a human-readable format compatible with the usual
// SNAP-style listing plus an explicit header so isolated vertices survive a
// round trip:
//
//	# cisgraph <name> <numVertices> <numArcs>
//	<from> <to> <weight>
//	...
//
// Binary (".bel"): little-endian, magic "CISG", u32 version, u32 name
// length + bytes, u64 N, u64 M, then M records of (u32 from, u32 to,
// f64 weight). Binary is ~4× faster to load and is what cmd/datagen emits
// by default.

const (
	textMagic   = "# cisgraph"
	binMagic    = "CISG"
	binVersion  = 1
	maxSaneSize = 1 << 32 // guards corrupted headers from huge counts
	// maxPrealloc caps slice preallocation from untrusted headers; larger
	// lists still load, they just grow incrementally.
	maxPrealloc = 1 << 20
)

// WriteText writes the edge list in the text format.
func WriteText(w io.Writer, e *EdgeList) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s %s %d %d\n", textMagic, nameOrDefault(e), e.N, len(e.Arcs)); err != nil {
		return err
	}
	for _, a := range e.Arcs {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", a.From, a.To, a.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format.
func ReadText(r io.Reader) (*EdgeList, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("read header: %w", err)
	}
	if !strings.HasPrefix(header, textMagic) {
		return nil, fmt.Errorf("not a cisgraph edge list (header %q)", strings.TrimSpace(header))
	}
	var name string
	var n, m int
	if _, err := fmt.Sscanf(strings.TrimPrefix(header, textMagic), "%s %d %d", &name, &n, &m); err != nil {
		return nil, fmt.Errorf("malformed header %q: %w", strings.TrimSpace(header), err)
	}
	if n < 0 || m < 0 || m > maxSaneSize {
		return nil, fmt.Errorf("implausible header counts N=%d M=%d", n, m)
	}
	pre := m
	if pre > maxPrealloc {
		pre = maxPrealloc
	}
	el := &EdgeList{Name: name, N: n, Arcs: make([]Arc, 0, pre)}
	for i := 0; i < m; i++ {
		var a Arc
		if _, err := fmt.Fscan(br, &a.From, &a.To, &a.W); err != nil {
			return nil, fmt.Errorf("arc %d: %w", i, err)
		}
		el.Arcs = append(el.Arcs, a)
	}
	return el, el.Validate()
}

// WriteBinary writes the edge list in the binary format.
func WriteBinary(w io.Writer, e *EdgeList) error {
	name := nameOrDefault(e)
	buf := make([]byte, 0, min(len(binMagic)+8+len(name)+16+ArcSize*len(e.Arcs), 64<<10))
	buf = append(buf, binMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, binVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.N))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(e.Arcs)))
	for _, a := range e.Arcs {
		if len(buf)+ArcSize > cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = AppendArc(buf, a)
	}
	_, err := w.Write(buf)
	return err
}

// ReadBinary parses the binary format.
func ReadBinary(r io.Reader) (*EdgeList, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:len(binMagic)]); err != nil {
		return nil, fmt.Errorf("read magic: %w", err)
	}
	if magic := hdr[:len(binMagic)]; string(magic) != binMagic {
		return nil, fmt.Errorf("not a cisgraph binary edge list (magic %q)", magic)
	}
	if _, err := io.ReadFull(br, hdr[:4]); err != nil {
		return nil, err
	}
	if version := binary.LittleEndian.Uint32(hdr[:4]); version != binVersion {
		return nil, fmt.Errorf("unsupported version %d", version)
	}
	if _, err := io.ReadFull(br, hdr[:4]); err != nil {
		return nil, err
	}
	nameLen := binary.LittleEndian.Uint32(hdr[:4])
	if nameLen > 4096 {
		return nil, fmt.Errorf("implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(br, hdr[:16]); err != nil {
		return nil, err
	}
	n, m := binary.LittleEndian.Uint64(hdr[0:8]), binary.LittleEndian.Uint64(hdr[8:16])
	if n > maxSaneSize || m > maxSaneSize {
		return nil, fmt.Errorf("implausible counts N=%d M=%d", n, m)
	}
	el := &EdgeList{Name: string(name), N: int(n), Arcs: make([]Arc, 0, min(m, maxPrealloc))}
	chunk := make([]byte, min(m, 4096)*ArcSize)
	for i := uint64(0); i < m; {
		k := min(m-i, 4096) * ArcSize
		if got, err := io.ReadFull(br, chunk[:k]); err != nil {
			return nil, fmt.Errorf("arc %d: %w", i+uint64(got/ArcSize), err)
		}
		for off := uint64(0); off < k; off += ArcSize {
			el.Arcs = append(el.Arcs, DecodeArc(chunk[off:]))
		}
		i += k / ArcSize
	}
	return el, el.Validate()
}

// SaveFile writes e to path, choosing the format by extension: ".el" text,
// anything else binary.
func SaveFile(path string, e *EdgeList) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".el") {
		if err := WriteText(f, e); err != nil {
			return err
		}
	} else if err := WriteBinary(f, e); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads an edge list from path, choosing the format by extension.
func LoadFile(path string) (*EdgeList, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".el") {
		return ReadText(f)
	}
	return ReadBinary(f)
}

func nameOrDefault(e *EdgeList) string {
	if e.Name == "" {
		return "graph"
	}
	return strings.ReplaceAll(e.Name, " ", "_")
}
