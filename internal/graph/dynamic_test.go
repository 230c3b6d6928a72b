package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddRemoveEdge(t *testing.T) {
	g := NewDynamic(4)
	if !g.AddEdge(0, 1, 2.5) {
		t.Fatal("first AddEdge should insert")
	}
	if g.AddEdge(0, 1, 9) {
		t.Fatal("duplicate AddEdge should be rejected")
	}
	if w, ok := g.HasEdge(0, 1); !ok || w != 2.5 {
		t.Fatalf("HasEdge = %v,%v; want 2.5,true", w, ok)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if w, ok := g.RemoveEdge(0, 1); !ok || w != 2.5 {
		t.Fatalf("RemoveEdge = %v,%v", w, ok)
	}
	if _, ok := g.RemoveEdge(0, 1); ok {
		t.Fatal("double remove should fail")
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges after remove = %d", g.NumEdges())
	}
}

func TestInOutAdjacencyMirrored(t *testing.T) {
	g := NewDynamic(5)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 2, 3)
	g.AddEdge(2, 3, 7)
	if g.InDegree(2) != 2 || g.OutDegree(2) != 1 {
		t.Fatalf("degrees of 2: in=%d out=%d", g.InDegree(2), g.OutDegree(2))
	}
	srcs := map[VertexID]float64{}
	for _, e := range g.In(2) {
		srcs[e.To] = e.W
	}
	if srcs[0] != 1 || srcs[1] != 3 {
		t.Fatalf("in-adjacency of 2 = %v", srcs)
	}
	g.RemoveEdge(1, 2)
	if g.InDegree(2) != 1 || g.In(2)[0].To != 0 {
		t.Fatal("in-adjacency not updated by RemoveEdge")
	}
}

func TestApplyBatch(t *testing.T) {
	g := NewDynamic(4)
	g.AddEdge(0, 1, 1)
	batch := []Update{
		Add(1, 2, 5),
		Del(0, 1, 1),
		Add(1, 2, 5),  // duplicate: no-op
		Del(3, 2, 10), // absent: no-op
	}
	if changed := g.Apply(batch); changed != 2 {
		t.Fatalf("Apply changed = %d, want 2", changed)
	}
	if _, ok := g.HasEdge(0, 1); ok {
		t.Fatal("deleted edge still present")
	}
	if _, ok := g.HasEdge(1, 2); !ok {
		t.Fatal("added edge missing")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := NewDynamic(3)
	g.AddEdge(0, 1, 1)
	c := g.Clone()
	c.AddEdge(1, 2, 2)
	c.RemoveEdge(0, 1)
	if _, ok := g.HasEdge(0, 1); !ok {
		t.Fatal("clone mutation leaked into original")
	}
	if g.NumEdges() != 1 || c.NumEdges() != 1 {
		t.Fatalf("edge counts g=%d c=%d", g.NumEdges(), c.NumEdges())
	}
}

func TestEdgeListRoundTripThroughDynamic(t *testing.T) {
	el := RMAT("rt", 6, 200, DefaultRMAT, 8, 7)
	g := FromEdgeList(el)
	back := g.EdgeList("rt")
	if back.N != el.N || len(back.Arcs) != len(el.Arcs) {
		t.Fatalf("round trip size: N %d->%d, M %d->%d", el.N, back.N, len(el.Arcs), len(back.Arcs))
	}
	want := map[uint64]float64{}
	for _, a := range el.Arcs {
		want[key(a.From, a.To)] = a.W
	}
	for _, a := range back.Arcs {
		if want[key(a.From, a.To)] != a.W {
			t.Fatalf("arc %v weight mismatch", a)
		}
	}
}

func TestTopDegreeVertices(t *testing.T) {
	g := NewDynamic(5)
	// Vertex 2: degree 4 (2 out + 2 in); vertex 0: 2 out; others less.
	g.AddEdge(2, 0, 1)
	g.AddEdge(2, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 3, 1)
	top := g.TopDegreeVertices(2)
	if len(top) != 2 || top[0] != 2 {
		t.Fatalf("top = %v, want [2 0]", top)
	}
	if top[1] != 0 {
		t.Fatalf("second hub = %d, want 0", top[1])
	}
	if got := g.TopDegreeVertices(100); len(got) != 5 {
		t.Fatalf("k>n should clamp: got %d", len(got))
	}
}

// Property: after a random sequence of adds/removes, Dynamic matches a naive
// map-based reference for membership, weights and degree sums.
func TestDynamicMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 12
		g := NewDynamic(n)
		ref := map[uint64]float64{}
		for op := 0; op < 300; op++ {
			u := VertexID(rng.Intn(n))
			v := VertexID(rng.Intn(n))
			if u == v {
				continue
			}
			if rng.Intn(2) == 0 {
				w := float64(1 + rng.Intn(9))
				added := g.AddEdge(u, v, w)
				_, existed := ref[key(u, v)]
				if added == existed {
					return false
				}
				if !existed {
					ref[key(u, v)] = w
				}
			} else {
				w, removed := g.RemoveEdge(u, v)
				refW, existed := ref[key(u, v)]
				if removed != existed {
					return false
				}
				if existed {
					if w != refW {
						return false
					}
					delete(ref, key(u, v))
				}
			}
		}
		if g.NumEdges() != len(ref) {
			return false
		}
		outSum, inSum := 0, 0
		for v := 0; v < n; v++ {
			outSum += g.OutDegree(VertexID(v))
			inSum += g.InDegree(VertexID(v))
		}
		return outSum == len(ref) && inSum == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// naiveGraph is a reference implementation of the Dynamic contract backed by
// a plain map — no index, no swap-delete — used to differentially test the
// indexed topology.
type naiveGraph struct {
	n int
	m map[uint64]float64
}

func (ng *naiveGraph) addEdge(u, v VertexID, w float64) bool {
	if _, ok := ng.m[key(u, v)]; ok {
		return false
	}
	ng.m[key(u, v)] = w
	return true
}

func (ng *naiveGraph) removeEdge(u, v VertexID) (float64, bool) {
	w, ok := ng.m[key(u, v)]
	if ok {
		delete(ng.m, key(u, v))
	}
	return w, ok
}

// checkAgainstReference asserts that g and ref agree on membership, weights,
// degrees, and that g's adjacency lists are internally consistent (mirrored
// in/out, no duplicates) — the properties the swap-delete index repair must
// preserve.
func checkAgainstReference(t *testing.T, g *Dynamic, ref *naiveGraph) {
	t.Helper()
	if g.NumEdges() != len(ref.m) {
		t.Fatalf("edge count %d, reference %d", g.NumEdges(), len(ref.m))
	}
	seen := map[uint64]float64{}
	for u := 0; u < ref.n; u++ {
		for _, e := range g.Out(VertexID(u)) {
			k := key(VertexID(u), e.To)
			if _, dup := seen[k]; dup {
				t.Fatalf("duplicate out-edge %d->%d", u, e.To)
			}
			seen[k] = e.W
			if w, ok := g.HasEdge(VertexID(u), e.To); !ok || w != e.W {
				t.Fatalf("HasEdge(%d,%d) = %v,%v; adjacency says %v", u, e.To, w, ok, e.W)
			}
		}
	}
	for k, w := range ref.m {
		if seen[k] != w {
			t.Fatalf("edge %d->%d: weight %v, reference %v", k>>32, k&0xffffffff, seen[k], w)
		}
		delete(seen, k)
	}
	if len(seen) != 0 {
		t.Fatalf("%d edges present but absent from reference", len(seen))
	}
	inCount := map[uint64]int{}
	for v := 0; v < ref.n; v++ {
		for _, e := range g.In(VertexID(v)) {
			k := key(e.To, VertexID(v))
			inCount[k]++
			if w, ok := ref.m[k]; !ok || w != e.W {
				t.Fatalf("in-edge %d->%d (w=%v) disagrees with reference (%v,%v)", e.To, v, e.W, w, ok)
			}
		}
	}
	for k := range ref.m {
		if inCount[k] != 1 {
			t.Fatalf("edge %d->%d has %d in-adjacency entries", k>>32, k&0xffffffff, inCount[k])
		}
	}
}

// Property: the indexed Dynamic behaves identically to a naive reference
// under random add/remove/Apply/Clone sequences, including the swap-delete +
// index-repair interaction on high-degree vertices.
func TestDynamicDifferentialAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 10 // small: plenty of repeated (u,v) collisions
		g := NewDynamic(n)
		ref := &naiveGraph{n: n, m: map[uint64]float64{}}
		randPair := func() (VertexID, VertexID) {
			for {
				u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
				if u != v {
					return u, v
				}
			}
		}
		for op := 0; op < 400; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // single add
				u, v := randPair()
				w := float64(1 + rng.Intn(9))
				if g.AddEdge(u, v, w) != ref.addEdge(u, v, w) {
					t.Logf("seed %d op %d: AddEdge(%d,%d) disagreement", seed, op, u, v)
					return false
				}
			case 4, 5, 6, 7: // single remove
				u, v := randPair()
				gw, gok := g.RemoveEdge(u, v)
				rw, rok := ref.removeEdge(u, v)
				if gok != rok || (gok && gw != rw) {
					t.Logf("seed %d op %d: RemoveEdge(%d,%d) = %v,%v want %v,%v", seed, op, u, v, gw, gok, rw, rok)
					return false
				}
			case 8: // whole batch through Apply (duplicates and absents included)
				var batch []Update
				for i := 0; i < 1+rng.Intn(8); i++ {
					u, v := randPair()
					if rng.Intn(2) == 0 {
						batch = append(batch, Add(u, v, float64(1+rng.Intn(9))))
					} else {
						batch = append(batch, Del(u, v, 0))
					}
				}
				changed := 0
				for _, up := range batch {
					if up.Del {
						if _, ok := ref.removeEdge(up.From, up.To); ok {
							changed++
						}
					} else if ref.addEdge(up.From, up.To, up.W) {
						changed++
					}
				}
				if g.Apply(batch) != changed {
					t.Logf("seed %d op %d: Apply changed-count disagreement", seed, op)
					return false
				}
			case 9: // continue on a clone; the original must be untouched
				before := g.NumEdges()
				c := g.Clone()
				u, v := randPair()
				if _, ok := c.HasEdge(u, v); !ok {
					c.AddEdge(u, v, 1)
					c.RemoveEdge(u, v)
				}
				if g.NumEdges() != before {
					t.Logf("seed %d op %d: clone mutation leaked", seed, op)
					return false
				}
				g = c.Clone() // and the clone-of-clone must behave identically
			}
		}
		checkAgainstReference(t, g, ref)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The arena Clone's allocation count must not scale with the vertex count:
// every non-empty vertex used to cost two appends; now the whole topology is
// the struct, two adjacency-header slices, two edge arenas and the index's
// slot array.
func TestCloneAllocationIndependentOfVertexCount(t *testing.T) {
	const n = 2048
	g := NewDynamic(n)
	for v := 0; v < n-1; v++ {
		g.AddEdge(VertexID(v), VertexID(v+1), float64(v%7+1))
	}
	var c *Dynamic
	allocs := testing.AllocsPerRun(10, func() { c = g.Clone() })
	if allocs > 6 {
		t.Fatalf("Clone allocations = %v, want 6 (seed behaviour was ~%d)", allocs, 2*n)
	}
	if c.NumEdges() != g.NumEdges() {
		t.Fatalf("clone edge count %d, want %d", c.NumEdges(), g.NumEdges())
	}
	// Appending to a cloned vertex's adjacency must not clobber the arena
	// neighbor (capacity-clipped sub-slices).
	c.AddEdge(0, 5, 9)
	if w, ok := c.HasEdge(1, 2); !ok || w != 2 {
		t.Fatalf("arena neighbor corrupted by post-clone AddEdge: %v %v", w, ok)
	}
}

func TestTopDegreeTieBreakAndOrder(t *testing.T) {
	// All vertices degree 2 except 4 and 7 (degree 4): ties must resolve to
	// lower IDs, result ordered highest-degree-first.
	g := NewDynamic(8)
	for v := 0; v < 7; v++ {
		g.AddEdge(VertexID(v), VertexID(v+1), 1)
	}
	g.AddEdge(7, 0, 1)
	g.AddEdge(4, 1, 1)
	g.AddEdge(7, 2, 1)
	g.AddEdge(0, 4, 1)
	g.AddEdge(3, 7, 1)
	top := g.TopDegreeVertices(4)
	want := []VertexID{4, 7, 0, 1}
	if len(top) != 4 {
		t.Fatalf("top = %v", top)
	}
	for i, v := range want {
		if top[i] != v {
			t.Fatalf("top = %v, want %v", top, want)
		}
	}
	if got := g.TopDegreeVertices(0); got != nil {
		t.Fatalf("k=0 should be empty, got %v", got)
	}
}

// TopDegreeVertices must agree with a full-sort reference on random graphs.
func TestTopDegreeMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		g := NewDynamic(n)
		for i := 0; i < 3*n; i++ {
			u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
			if u != v {
				g.AddEdge(u, v, 1)
			}
		}
		k := 1 + rng.Intn(n)
		got := g.TopDegreeVertices(k)
		ids := make([]VertexID, n)
		for v := range ids {
			ids[v] = VertexID(v)
		}
		deg := func(v VertexID) int { return g.OutDegree(v) + g.InDegree(v) }
		sort.Slice(ids, func(i, j int) bool {
			di, dj := deg(ids[i]), deg(ids[j])
			return di > dj || (di == dj && ids[i] < ids[j])
		})
		for i := 0; i < k; i++ {
			if got[i] != ids[i] {
				t.Fatalf("trial %d k=%d: got %v, want prefix of %v", trial, k, got, ids[:k])
			}
		}
	}
}

func TestDynamicString(t *testing.T) {
	g := NewDynamic(3)
	g.AddEdge(0, 1, 1)
	if got := g.String(); got != "Dynamic{V=3 E=1}" {
		t.Fatalf("String = %q", got)
	}
}

// assertSameDynamic fails unless a and b hold the same adjacency lists in
// the same order, the same index entries and the same edge count.
func assertSameDynamic(t *testing.T, label string, a, b *Dynamic) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: %d vertices / %d edges, want %d / %d", label,
			a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		for dir, pair := range [2][2][]Edge{{a.out[v], b.out[v]}, {a.in[v], b.in[v]}} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("%s: vertex %d direction %d: %d edges, want %d", label, v, dir, len(pair[0]), len(pair[1]))
			}
			for i := range pair[0] {
				if pair[0][i] != pair[1][i] {
					t.Fatalf("%s: vertex %d direction %d slot %d: %v, want %v", label, v, dir, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
	// The tables differ in seed, so compare entries by key lookup.
	if a.idx.n != b.idx.n {
		t.Fatalf("%s: %d index entries, want %d", label, a.idx.n, b.idx.n)
	}
	for u := 0; u < b.NumVertices(); u++ {
		for _, e := range b.out[u] {
			k := key(VertexID(u), e.To)
			p, _ := b.idx.Get(k)
			if q, ok := a.idx.Get(k); !ok || q != p {
				t.Fatalf("%s: index entry %x = %v,%v, want %v", label, k, q, ok, p)
			}
		}
	}
}

// FromEdgeList's counting build must equal an AddEdge loop over the same
// arcs — adjacency order, index slots, edge count, first weight of a
// duplicate arc — and stay equal to it under seeded add/remove churn, which
// grows the carved (capacity-clipped) adjacencies past their arena windows.
func TestFromEdgeListMatchesAddEdgeBuild(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		el := &EdgeList{N: n}
		for i := rng.Intn(6 * n); i > 0; i-- {
			u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
			el.Arcs = append(el.Arcs, Arc{From: u, To: v, W: float64(1 + rng.Intn(9))})
			if rng.Intn(8) == 0 { // a duplicate pair with another weight
				el.Arcs = append(el.Arcs, Arc{From: u, To: v, W: float64(10 + rng.Intn(9))})
			}
		}
		got := FromEdgeList(el)
		want := NewDynamic(n)
		for _, a := range el.Arcs {
			want.AddEdge(a.From, a.To, a.W)
		}
		assertSameDynamic(t, "build", got, want)
		for op := 0; op < 300; op++ {
			u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
			if rng.Intn(2) == 0 {
				w := float64(1 + rng.Intn(9))
				if got.AddEdge(u, v, w) != want.AddEdge(u, v, w) {
					t.Fatalf("seed %d op %d: AddEdge(%d,%d) disagrees", seed, op, u, v)
				}
			} else {
				gw, gok := got.RemoveEdge(u, v)
				ww, wok := want.RemoveEdge(u, v)
				if gw != ww || gok != wok {
					t.Fatalf("seed %d op %d: RemoveEdge(%d,%d) = %v,%v, want %v,%v", seed, op, u, v, gw, gok, ww, wok)
				}
			}
		}
		assertSameDynamic(t, "after churn", got, want)
	}
}
