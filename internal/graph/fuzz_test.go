package graph

import (
	"bytes"
	"testing"
)

// FuzzReadText hardens the text edge-list parser: arbitrary input must
// either parse into a valid list or return an error — never panic — and
// valid output must survive a write/read round trip.
func FuzzReadText(f *testing.F) {
	var seed bytes.Buffer
	el := RMAT("seed", 5, 60, DefaultRMAT, 8, 1)
	if err := WriteText(&seed, el); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("# cisgraph g 2 1\n0 1 3\n"))
	f.Add([]byte("# cisgraph g 0 0\n"))
	f.Add([]byte("garbage"))
	// Malformed-edge seeds matching the resilience sanitizer's taxonomy:
	// out-of-range endpoint, self-loop, NaN / infinite / negative weights.
	f.Add([]byte("# cisgraph g 2 1\n0 5 3\n"))
	f.Add([]byte("# cisgraph g 2 1\n1 1 3\n"))
	f.Add([]byte("# cisgraph g 2 1\n0 1 NaN\n"))
	f.Add([]byte("# cisgraph g 2 1\n0 1 +Inf\n"))
	f.Add([]byte("# cisgraph g 2 1\n0 1 -4\n"))
	f.Add([]byte("# cisgraph g 2 2\n0 1 3\n0 1 7\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		if vErr := got.Validate(); vErr != nil {
			t.Fatalf("parser returned invalid list: %v", vErr)
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, got); err != nil {
			t.Fatal(err)
		}
		again, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("round trip of accepted input failed: %v", err)
		}
		if again.N != got.N || len(again.Arcs) != len(got.Arcs) {
			t.Fatal("round trip changed shape")
		}
	})
}

// FuzzReadBinary hardens the binary parser the same way.
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	el := RMAT("seed", 5, 60, DefaultRMAT, 8, 2)
	if err := WriteBinary(&seed, el); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("CISG"))
	f.Add([]byte{})
	// Truncated-envelope seeds: a valid prefix cut mid-header and mid-record,
	// the shapes a crashed writer leaves behind.
	f.Add(seed.Bytes()[:8])
	f.Add(seed.Bytes()[:len(seed.Bytes())-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if vErr := got.Validate(); vErr != nil {
			t.Fatalf("parser returned invalid list: %v", vErr)
		}
	})
}

// FuzzDynamicOps decodes bytes into AddEdge/RemoveEdge/HasEdge calls on a
// small vertex range (two bytes an op: opcode and weight in the first,
// endpoints in the second) and checks after every op that the results
// agree with a Go-map model, that the index holds exactly NumEdges entries,
// and that every adjacency entry is indexed at its own slot.
func FuzzDynamicOps(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x01, 0x01, 0x02, 0x01, 0x00, 0x12, 0x01, 0x10})
	f.Add(bytes.Repeat([]byte{0x00, 0x12, 0x30, 0x21, 0x01, 0x12, 0x02, 0x21}, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 8
		g := NewDynamic(n)
		model := map[uint64]float64{}
		for i := 0; i+1 < len(data); i += 2 {
			op, w := data[i]%3, float64(data[i]>>2)
			u, v := VertexID(data[i+1]>>4)%n, VertexID(data[i+1]&0xf)%n
			k := key(u, v)
			mw, had := model[k]
			switch op {
			case 0:
				if g.AddEdge(u, v, w) == had {
					t.Fatalf("op %d: AddEdge(%d,%d) disagrees with the model (had %v)", i/2, u, v, had)
				}
				if !had {
					model[k] = w
				}
			case 1:
				gw, ok := g.RemoveEdge(u, v)
				if ok != had || gw != mw {
					t.Fatalf("op %d: RemoveEdge(%d,%d) = %v,%v, model %v,%v", i/2, u, v, gw, ok, mw, had)
				}
				delete(model, k)
			case 2:
				if gw, ok := g.HasEdge(u, v); ok != had || gw != mw {
					t.Fatalf("op %d: HasEdge(%d,%d) = %v,%v, model %v,%v", i/2, u, v, gw, ok, mw, had)
				}
			}
			if g.NumEdges() != len(model) || g.idx.n != g.NumEdges() {
				t.Fatalf("op %d: %d edges, %d index entries, model %d", i/2, g.NumEdges(), g.idx.n, len(model))
			}
			for x := VertexID(0); x < n; x++ {
				for s, e := range g.Out(x) {
					if p, ok := g.idx.Get(key(x, e.To)); !ok || int(p.out) != s {
						t.Fatalf("op %d: out-edge %d->%d at slot %d indexed at %v,%v", i/2, x, e.To, s, p, ok)
					}
				}
				for s, e := range g.In(x) {
					if p, ok := g.idx.Get(key(e.To, x)); !ok || int(p.in) != s {
						t.Fatalf("op %d: in-edge %d->%d at slot %d indexed at %v,%v", i/2, e.To, x, s, p, ok)
					}
				}
			}
		}
	})
}
