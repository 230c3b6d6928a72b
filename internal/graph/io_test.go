package graph

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func sameEdgeList(t *testing.T, a, b *EdgeList) {
	t.Helper()
	if a.Name != b.Name || a.N != b.N || len(a.Arcs) != len(b.Arcs) {
		t.Fatalf("shape mismatch: %q N=%d M=%d vs %q N=%d M=%d",
			a.Name, a.N, len(a.Arcs), b.Name, b.N, len(b.Arcs))
	}
	for i := range a.Arcs {
		if a.Arcs[i] != b.Arcs[i] {
			t.Fatalf("arc %d: %v vs %v", i, a.Arcs[i], b.Arcs[i])
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	el := RMAT("text-rt", 6, 300, DefaultRMAT, 16, 21)
	var buf bytes.Buffer
	if err := WriteText(&buf, el); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameEdgeList(t, el, got)
}

func TestBinaryRoundTrip(t *testing.T) {
	el := RMAT("bin-rt", 6, 300, DefaultRMAT, 16, 22)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, el); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameEdgeList(t, el, got)
}

func TestRoundTripPreservesIsolatedVertices(t *testing.T) {
	el := &EdgeList{Name: "iso", N: 10, Arcs: []Arc{{From: 0, To: 1, W: 2}}}
	var buf bytes.Buffer
	if err := WriteText(&buf, el); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 10 {
		t.Fatalf("isolated vertices lost: N=%d", got.N)
	}
}

func TestReadTextRejectsGarbage(t *testing.T) {
	if _, err := ReadText(strings.NewReader("0 1 2\n")); err == nil {
		t.Fatal("headerless input accepted")
	}
	if _, err := ReadText(strings.NewReader("# cisgraph g 2 5\n0 1 1\n")); err == nil {
		t.Fatal("truncated arc list accepted")
	}
	if _, err := ReadText(strings.NewReader("# cisgraph g 2 1\n0 9 1\n")); err == nil {
		t.Fatal("out-of-range arc accepted")
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("NOPE00000000"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	var buf bytes.Buffer
	el := &EdgeList{Name: "x", N: 2, Arcs: []Arc{{From: 0, To: 1, W: 1}}}
	if err := WriteBinary(&buf, el); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated binary accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	el := Grid("file-rt", 4, 4, 5, 3)
	for _, name := range []string{"g.el", "g.bel"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, el); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameEdgeList(t, el, got)
	}
}

func TestNameWithSpacesSanitised(t *testing.T) {
	el := &EdgeList{Name: "two words", N: 2, Arcs: []Arc{{From: 0, To: 1, W: 1}}}
	var buf bytes.Buffer
	if err := WriteText(&buf, el); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "two_words" {
		t.Fatalf("name = %q", got.Name)
	}
}

func TestSaveFileErrors(t *testing.T) {
	el := &EdgeList{Name: "e", N: 2, Arcs: []Arc{{From: 0, To: 1, W: 1}}}
	if err := SaveFile("/nonexistent-dir/x.bel", el); err == nil {
		t.Fatal("save into a missing directory must fail")
	}
	if _, err := LoadFile("/nonexistent-dir/x.bel"); err == nil {
		t.Fatal("loading a missing file must fail")
	}
}

func TestDefaultNameOnEmpty(t *testing.T) {
	el := &EdgeList{N: 2, Arcs: []Arc{{From: 0, To: 1, W: 1}}}
	var buf bytes.Buffer
	if err := WriteText(&buf, el); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "graph" {
		t.Fatalf("default name = %q", got.Name)
	}
}

func TestReadBinaryVersionAndNameGuards(t *testing.T) {
	// Build a valid stream then corrupt the version field (offset 4..8).
	el := &EdgeList{Name: "v", N: 2, Arcs: []Arc{{From: 0, To: 1, W: 1}}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, el); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 0xFF
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Fatal("bad version accepted")
	}
}

// The update codec round-trips every op and weight bit pattern, and refuses
// an op byte other than 0 (add) or 1 (delete), or a partial update, having
// decoded nothing.
func TestUpdateCodec(t *testing.T) {
	ups := []Update{Add(0, 1, 0.5), Del(math.MaxUint32, 7, math.Inf(-1)), Add(3, 4, math.Float64frombits(0x7ff8_0000_dead_beef))}
	b := AppendUpdates(nil, ups)
	if len(b) != len(ups)*UpdateSize || !ValidUpdates(b) {
		t.Fatalf("%d bytes for %d updates, valid %v", len(b), len(ups), ValidUpdates(b))
	}
	back, ok := DecodeUpdates(nil, b)
	if !ok || !bytes.Equal(AppendUpdates(nil, back), b) {
		t.Fatalf("round trip: %v, %v", back, ok)
	}
	b[UpdateSize] = 2
	if got, ok := DecodeUpdates(ups[:1], b); ok || len(got) != 1 || ValidUpdates(b) {
		t.Fatalf("op byte 2 decoded: %v, %v", got, ok)
	}
	if _, ok := DecodeUpdates(nil, b[:UpdateSize-1]); ok {
		t.Fatal("a partial update decoded")
	}
}
