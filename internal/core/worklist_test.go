package core

import (
	"math"
	"math/rand"
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
)

// genericMax is a plug-in the op table does not know: it embeds a MAX
// algebra, so its worklist compares through Better in the reverse direction
// of PPSP's.
type genericMax struct{ algo.PPWP }

// assertWorklistIndex checks the heap's index against its items: every
// queued vertex appears once, at the slot pos names, and no other vertex
// has a nonzero pos.
func assertWorklistIndex(t *testing.T, label string, w *worklist) {
	t.Helper()
	if w.fifo {
		if w.pos != nil {
			t.Fatalf("%s: the FIFO ring carries an index", label)
		}
		return
	}
	indexed := 0
	for v, p := range w.pos {
		if p == 0 {
			continue
		}
		indexed++
		if int(p) > len(w.items) || w.items[p-1].v != graph.VertexID(v) {
			t.Fatalf("%s: pos[%d] = %d does not hold it", label, v, p)
		}
	}
	if indexed != len(w.items) {
		t.Fatalf("%s: %d indexed vertices, %d queued (a vertex is queued twice)", label, indexed, len(w.items))
	}
}

// TestWorklistMatchesModel runs seeded push / re-push (better and worse) /
// pop / reset sequences against a reference model on every table algebra's
// heap and a generic plug-in's: pops come out best-first with the latest
// score pushed for the vertex, no vertex is queued twice, and the index is
// all zero once the heap is empty and after reset or a scratch clear.
func TestWorklistMatchesModel(t *testing.T) {
	const n = 48
	algs := []algo.Algorithm{algo.PPSP{}, algo.PPWP{}, algo.PPNP{}, algo.Viterbi{}, algo.MinHop{}, genericMax{}}
	for _, a := range algs {
		for seed := int64(1); seed <= 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			sc := newScratch(a, n)
			w := &sc.wl
			if _, plugin := a.(genericMax); w.fifo || w.generic != plugin {
				t.Fatalf("%s: armed fifo=%v generic=%v", a.Name(), w.fifo, w.generic)
			}
			model := map[graph.VertexID]algo.Value{}
			score := func() algo.Value {
				if rng.Intn(16) == 0 {
					return math.Inf(1 - 2*rng.Intn(2))
				}
				return float64(rng.Intn(30)) / 4
			}
			for op := 0; op < 400; op++ {
				label := a.Name()
				switch r := rng.Intn(20); {
				case r < 9: // push a fresh vertex, or re-push a queued one at any score
					v := graph.VertexID(rng.Intn(n))
					s := score()
					w.push(v, s)
					model[v] = s
				case r < 18:
					if w.len() != len(model) {
						t.Fatalf("%s seed %d op %d: len %d, model %d", label, seed, op, w.len(), len(model))
					}
					if len(model) == 0 {
						continue
					}
					v, s := w.pop()
					want, ok := model[v]
					if !ok || s != want {
						t.Fatalf("%s seed %d op %d: popped %d at %v, model has %v,%v", label, seed, op, v, s, want, ok)
					}
					for u, o := range model {
						if a.Better(o, s) {
							t.Fatalf("%s seed %d op %d: popped %v while %d holds better %v", label, seed, op, s, u, o)
						}
					}
					delete(model, v)
				case r == 18:
					w.reset()
					clear(model)
				default:
					sc.clear()
					clear(model)
				}
				assertWorklistIndex(t, label, w)
				if w.len() == 0 {
					for v, p := range w.pos {
						if p != 0 {
							t.Fatalf("%s seed %d op %d: empty heap, pos[%d] = %d", label, seed, op, v, p)
						}
					}
				}
			}
		}
	}
}

// The plateau ring is unchanged by the index: arrival order out, no index.
func TestWorklistFIFOMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var w worklist
	w.arm(algo.Reach{}, 32)
	var model []graph.VertexID
	for op := 0; op < 2000; op++ {
		switch r := rng.Intn(10); {
		case r < 5:
			v := graph.VertexID(rng.Intn(32))
			w.push(v, 1)
			model = append(model, v)
		case r < 9:
			if len(model) == 0 {
				continue
			}
			v, s := w.pop()
			if v != model[0] || s != 1 {
				t.Fatalf("op %d: popped %d at %v, want %d at 1", op, v, s, model[0])
			}
			model = model[1:]
		default:
			w.reset()
			model = model[:0]
		}
		if w.len() != len(model) {
			t.Fatalf("op %d: len %d, model %d", op, w.len(), len(model))
		}
		assertWorklistIndex(t, "Reach", &w)
	}
}
