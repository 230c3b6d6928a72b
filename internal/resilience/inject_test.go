package resilience

import (
	"bytes"
	"reflect"
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/stream"
)

// faultWorkload builds a small deterministic stream: an initial snapshot and
// k clean batches.
func faultWorkload(t *testing.T, k int) (*graph.Dynamic, [][]graph.Update) {
	t.Helper()
	el := graph.Uniform("fault", 128, 900, 8, 21)
	w, err := stream.New(el, stream.Config{LoadFraction: 0.5, AddsPerBatch: 25, DelsPerBatch: 25, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return w.Initial(), w.Batches(k)
}

func TestInjectorDeterminism(t *testing.T) {
	batch := []graph.Update{
		graph.Add(1, 2, 3), graph.Del(4, 5, 6), graph.Add(7, 8, 9),
		graph.Add(2, 9, 1), graph.Del(0, 3, 2),
	}
	cfg := InjectorConfig{Seed: 7, CorruptP: 0.5, DupP: 0.5, ReorderP: 0.5, DropP: 0.2}
	a := NewInjector(cfg).Mangle(16, batch)
	b := NewInjector(cfg).Mangle(16, batch)
	// Compare via the update encoding: byte-exact, and NaN-safe (DeepEqual
	// treats NaN ≠ NaN).
	if !bytes.Equal(graph.AppendUpdates(nil, a), graph.AppendUpdates(nil, b)) {
		t.Fatalf("same seed, different streams:\n%v\n%v", a, b)
	}
	c := NewInjector(InjectorConfig{Seed: 8, CorruptP: 0.5, DupP: 0.5, ReorderP: 0.5, DropP: 0.2}).Mangle(16, batch)
	if bytes.Equal(graph.AppendUpdates(nil, a), graph.AppendUpdates(nil, c)) {
		t.Fatal("different seeds produced identical streams (suspicious)")
	}
}

func TestInjectorDoesNotMutateInput(t *testing.T) {
	batch := []graph.Update{graph.Add(1, 2, 3), graph.Del(4, 5, 6)}
	orig := append([]graph.Update(nil), batch...)
	NewInjector(InjectorConfig{Seed: 1, CorruptP: 1, DupP: 1, ReorderP: 1}).Mangle(16, batch)
	if !reflect.DeepEqual(batch, orig) {
		t.Fatalf("input batch mutated: %v", batch)
	}
}

// TestCorruptClonesAlwaysInvalid checks the injector's core contract: every
// corrupt clone is invalid regardless of topology, so the sanitizer removes
// it and the stream's semantics survive.
func TestCorruptClonesAlwaysInvalid(t *testing.T) {
	g := testGraph(t)
	_, abs := anEdge(t, g)
	in := NewInjector(InjectorConfig{Seed: 3})
	up := graph.Add(abs.From, abs.To, 2)
	for i := 0; i < 200; i++ {
		bad := in.corruptClone(g.NumVertices(), up)
		if s := NewSanitizer(PolicyDrop, nil); true {
			clean, _, _ := s.Sanitize(g, []graph.Update{bad})
			if len(clean) != 0 {
				t.Fatalf("iteration %d: corrupt clone %+v passed the sanitizer", i, bad)
			}
		}
	}
}

// TestMangledStreamIsNeutralAfterSanitize is the semantic core of the fault
// model: with DropP=0, sanitize(mangle(batch)) applied to a topology yields
// the same graph as the clean batch.
func TestMangledStreamIsNeutralAfterSanitize(t *testing.T) {
	init, batches := faultWorkload(t, 6)
	cleanG := init.Clone()
	faultyG := init.Clone()
	in := NewInjector(InjectorConfig{Seed: 11, CorruptP: 0.6, DupP: 0.5, ReorderP: 0.7})
	s := NewSanitizer(PolicyDrop, nil)
	for i, b := range batches {
		cleanG.Apply(b)
		mangled := in.Mangle(init.NumVertices(), b)
		clean, _, err := s.Sanitize(faultyG, mangled)
		if err != nil {
			t.Fatal(err)
		}
		faultyG.Apply(clean)
		if cleanG.NumEdges() != faultyG.NumEdges() {
			t.Fatalf("batch %d: edge counts diverged (%d vs %d)", i, cleanG.NumEdges(), faultyG.NumEdges())
		}
	}
	// Full topology equality, not just edge counts.
	for u := 0; u < cleanG.NumVertices(); u++ {
		for _, e := range cleanG.Out(graph.VertexID(u)) {
			w, ok := faultyG.HasEdge(graph.VertexID(u), e.To)
			if !ok || w != e.W {
				t.Fatalf("edge %d->%d diverged (want %v, got %v ok=%v)", u, e.To, e.W, w, ok)
			}
		}
	}
}

func TestPanicAlgorithm(t *testing.T) {
	pa := NewPanicAlgorithm(algo.PPSP{})
	if pa.Name() != (algo.PPSP{}).Name() {
		t.Fatalf("wrapper must report inner name, got %q", pa.Name())
	}
	// Unarmed: no panic.
	_ = pa.Propagate(1, 2)
	pa.Arm(3)
	_ = pa.Propagate(1, 2)
	_ = pa.Propagate(1, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("armed panic did not fire on call 3")
			}
		}()
		_ = pa.Propagate(1, 2)
	}()
	if pa.Fired() != 1 {
		t.Fatalf("fired=%d", pa.Fired())
	}
	// Disarmed after firing: safe again.
	_ = pa.Propagate(1, 2)
}
