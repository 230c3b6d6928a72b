package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/stream"
)

func TestCheckpointRoundTrip(t *testing.T) {
	for _, a := range algo.All() {
		ds := graph.RMAT("ckpt", 7, 800, graph.DefaultRMAT, 16, 19)
		w, _ := stream.New(ds, stream.Config{
			LoadFraction: 0.5, AddsPerBatch: 30, DelsPerBatch: 30, Seed: 19,
		})
		p := w.QueryPairs(1)[0]
		q := Query{S: p[0], D: p[1]}
		orig := NewCISO()
		orig.Reset(w.Initial(), a, q)
		// Advance two batches, checkpoint, advance two more on both copies.
		orig.ApplyBatch(w.NextBatch())
		orig.ApplyBatch(w.NextBatch())
		var buf bytes.Buffer
		if err := orig.Save(&buf); err != nil {
			t.Fatalf("%s: save: %v", a.Name(), err)
		}
		restored, err := LoadCISO(&buf)
		if err != nil {
			t.Fatalf("%s: load: %v", a.Name(), err)
		}
		if restored.Answer() != orig.Answer() {
			t.Fatalf("%s: restored answer %v, want %v", a.Name(), restored.Answer(), orig.Answer())
		}
		for i := 0; i < 2; i++ {
			batch := w.NextBatch()
			ro := orig.ApplyBatch(batch)
			rr := restored.ApplyBatch(batch)
			if ro.Answer != rr.Answer {
				t.Fatalf("%s batch %d after restore: %v vs %v", a.Name(), i, rr.Answer, ro.Answer)
			}
		}
		checkInvariant(t, restored.st)
	}
}

// TestStoreCopyLoadRoundTrip pushes a converged engine state through
// checkpoint save and restore and requires bit-identical values and parents
// back, including after the restored engine has moved on by a batch.
func TestStoreCopyLoadRoundTrip(t *testing.T) {
	ds := graph.RMAT("roundtrip", 7, 900, graph.DefaultRMAT, 16, 5)
	w, err := stream.New(ds, stream.Config{
		LoadFraction: 0.5, AddsPerBatch: 40, DelsPerBatch: 40, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := w.QueryPairs(1)[0]
	e := NewCISO()
	e.Reset(w.Initial(), algo.PPSP{}, Query{S: p[0], D: p[1]})
	e.ApplyBatch(w.NextBatch())
	roundTrip := func(label string, c *CISO) *CISO {
		t.Helper()
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := LoadCISO(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for v := range c.st.val {
			if r.st.val[v] != c.st.val[v] || r.st.parent[v] != c.st.parent[v] {
				t.Fatalf("%s: vertex %d diverges after restore", label, v)
			}
		}
		return r
	}
	r := roundTrip("first", e)
	r.ApplyBatch(w.NextBatch())
	roundTrip("second", r)
}

func TestCheckpointUnarmedEngine(t *testing.T) {
	var buf bytes.Buffer
	if err := NewCISO().Save(&buf); err == nil {
		t.Fatal("saving an unarmed engine must fail")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	if _, err := LoadCISO(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCheckpointRejectsCorruptState(t *testing.T) {
	g := graph.NewDynamic(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	c := NewCISO()
	c.Reset(g, algo.PPSP{}, Query{S: 0, D: 2})
	// Corrupt a value so the invariant check must fire on load.
	c.st.val[2] = 99
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCISO(&buf); err == nil {
		t.Fatal("corrupt state accepted")
	}
}

// armedCISO returns a small armed engine plus its serialised checkpoint.
func armedCISO(t *testing.T) (*CISO, []byte) {
	t.Helper()
	g := graph.NewDynamic(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 4)
	c := NewCISO()
	c.Reset(g, algo.PPSP{}, Query{S: 0, D: 3})
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return c, buf.Bytes()
}

// TestCheckpointRejectsTruncation cuts the envelope at every plausible
// boundary: all must fail with an error, never a panic or a silent success.
func TestCheckpointRejectsTruncation(t *testing.T) {
	_, data := armedCISO(t)
	for _, cut := range []int{0, 2, 4, 10, 19, 20, len(data) / 2, len(data) - 1} {
		if cut >= len(data) {
			continue
		}
		if _, err := LoadCISO(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d/%d accepted", cut, len(data))
		}
	}
}

// TestCheckpointRejectsBitFlips flips a byte at several payload offsets; the
// CRC must catch every one with a clear corruption error.
func TestCheckpointRejectsBitFlips(t *testing.T) {
	_, data := armedCISO(t)
	for _, off := range []int{20, 21, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x10
		if _, err := LoadCISO(bytes.NewReader(bad)); err == nil {
			t.Errorf("bit flip at offset %d accepted", off)
		}
	}
}

func TestCheckpointRejectsBadVersion(t *testing.T) {
	_, data := armedCISO(t)
	bad := append([]byte(nil), data...)
	bad[4] = 99 // version field, little-endian low byte
	if _, err := LoadCISO(bytes.NewReader(bad)); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestSaveFileAtomic checks the temp-file + rename protocol: the target is
// either the complete new checkpoint or (on interrupted write) the old one,
// and no temp files leak.
func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "engine.ckpt")
	c, want := armedCISO(t)
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("SaveFile bytes differ from Save bytes")
	}
	if _, err := LoadCISOFile(path); err != nil {
		t.Fatalf("LoadCISOFile: %v", err)
	}
	// Overwrite in place must replace the old checkpoint completely.
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "engine.ckpt" {
		t.Fatalf("temp file leaked: %v", ents)
	}
}

func TestCheckpointPreservesOptions(t *testing.T) {
	g := graph.NewDynamic(2)
	g.AddEdge(0, 1, 1)
	c := NewCISO()
	c.Reset(g, algo.PPSP{}, Query{S: 0, D: 1})
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := LoadCISO(&buf, WithFIFO())
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "CISO-fifo" {
		t.Fatalf("options not applied: %s", r.Name())
	}
}
