package graph

import "fmt"

// Dynamic is the mutable streaming graph: per-vertex out- and in-adjacency
// lists supporting single-edge additions and deletions, the operations a
// batch of updates is made of. At most one edge may exist per (u,v) pair —
// the paper's batch methodology (additions drawn from absent edges,
// deletions from present ones) never produces parallel edges.
//
// Both directions are maintained because deletion recovery must recompute a
// vertex's state from its *in*-neighbors (DESIGN.md §3.2), while propagation
// walks *out*-neighbors.
//
// A per-edge position index (idx) makes HasEdge, AddEdge and RemoveEdge
// O(1) amortized instead of O(degree): idx is an open-addressed table from
// the packed (u,v) pair to the edge's slot in out[u] and in[v] (Table).
// Deletion swap-deletes both adjacency slots and repairs, in place, the
// index entry of whichever edge was moved into the hole, so the index never
// needs a rebuild (DESIGN.md §9.1).
type Dynamic struct {
	out [][]Edge       // out[u] = edges u→·
	in  [][]Edge       // in[v]  = edges ·→v, stored as Edge{To: from, W: w}
	idx Table[edgePos] // key(u,v) → adjacency slots of edge u→v
	m   int            // current edge count
}

// edgePos locates one edge in both adjacency directions. int32 slots keep
// the entry at 8 bytes; a single vertex would need 2^31 incident edges to
// overflow, far beyond the dense-ID graphs the substrate targets.
type edgePos struct {
	out, in int32
}

// NewDynamic returns an empty graph with n vertices.
func NewDynamic(n int) *Dynamic {
	return &Dynamic{
		out: make([][]Edge, n),
		in:  make([][]Edge, n),
		idx: NewTable[edgePos](0),
	}
}

// FromEdgeList builds a Dynamic containing every arc of e. Duplicate
// (from,to) pairs keep the first weight. The result equals an AddEdge loop
// over e.Arcs — same adjacency order, index slots and edge count — built
// without regrowth: the index is presized to len(e.Arcs), a counting pass
// fills it and sizes every adjacency, and the adjacencies are carved from
// two arenas as in Clone.
func FromEdgeList(e *EdgeList) *Dynamic {
	n := e.N
	g := &Dynamic{
		out: make([][]Edge, n),
		in:  make([][]Edge, n),
		idx: NewTable[edgePos](len(e.Arcs)),
	}
	// Counting pass: index each pair's first arc at the slots AddEdge would
	// give it, and note the duplicates (in arc order) for the fill to skip.
	outDeg, inDeg := make([]int32, n), make([]int32, n)
	var dups []int
	for i, a := range e.Arcs {
		if !g.idx.Insert(key(a.From, a.To), edgePos{out: outDeg[a.From], in: inDeg[a.To]}) {
			dups = append(dups, i)
			continue
		}
		outDeg[a.From]++
		inDeg[a.To]++
	}
	g.m = len(e.Arcs) - len(dups)
	carve(g.out, outDeg, g.m)
	carve(g.in, inDeg, g.m)
	for i, a := range e.Arcs {
		if len(dups) > 0 && dups[0] == i {
			dups = dups[1:]
			continue
		}
		g.out[a.From] = append(g.out[a.From], Edge{To: a.To, W: a.W})
		g.in[a.To] = append(g.in[a.To], Edge{To: a.From, W: a.W})
	}
	return g
}

// carve points adj[v] at an empty, capacity-clipped window of deg[v] slots
// in one arena of m edges, so appending deg[v] edges fills it in place and
// a later AddEdge re-allocates instead of growing into a neighbour.
func carve(adj [][]Edge, deg []int32, m int) {
	arena := make([]Edge, m)
	off := 0
	for v, d := range deg {
		if d > 0 {
			end := off + int(d)
			adj[v] = arena[off:off:end]
			off = end
		}
	}
}

// NumVertices returns the vertex count.
func (g *Dynamic) NumVertices() int { return len(g.out) }

// NumEdges returns the current edge count.
func (g *Dynamic) NumEdges() int { return g.m }

// Out returns the out-adjacency of u. The returned slice is owned by the
// graph and must not be mutated; it is invalidated by the next AddEdge or
// RemoveEdge touching u.
func (g *Dynamic) Out(u VertexID) []Edge { return g.out[u] }

// In returns the in-adjacency of v: Edge.To holds the *source* vertex of
// each in-edge. Same aliasing rules as Out.
func (g *Dynamic) In(v VertexID) []Edge { return g.in[v] }

// OutDegree returns len(Out(u)).
func (g *Dynamic) OutDegree(u VertexID) int { return len(g.out[u]) }

// InDegree returns len(In(v)).
func (g *Dynamic) InDegree(v VertexID) int { return len(g.in[v]) }

// HasEdge reports whether u→v exists and returns its weight.
func (g *Dynamic) HasEdge(u, v VertexID) (w float64, ok bool) {
	i, ok := g.idx.find(key(u, v))
	if !ok {
		return 0, false
	}
	return g.out[u][g.idx.slots[i].v.out].W, true
}

// AddEdge inserts u→v with weight w. It reports whether the edge was newly
// inserted; an existing edge is left untouched (and false returned), keeping
// the graph free of parallel edges.
func (g *Dynamic) AddEdge(u, v VertexID, w float64) bool {
	if !g.idx.Insert(key(u, v), edgePos{out: int32(len(g.out[u])), in: int32(len(g.in[v]))}) {
		return false
	}
	g.out[u] = append(g.out[u], Edge{To: v, W: w})
	g.in[v] = append(g.in[v], Edge{To: u, W: w})
	g.m++
	return true
}

// RemoveEdge deletes u→v, returning its weight and whether it existed. Both
// adjacency slots are filled by swapping in the last element; the moved
// edge's index entry is repaired in place.
func (g *Dynamic) RemoveEdge(u, v VertexID) (w float64, ok bool) {
	i, ok := g.idx.find(key(u, v))
	if !ok {
		return 0, false
	}
	pos := g.idx.slots[i].v
	outs := g.out[u]
	w = outs[pos.out].W
	if last := int32(len(outs) - 1); pos.out != last {
		moved := outs[last]
		outs[pos.out] = moved
		j, _ := g.idx.find(key(u, moved.To))
		g.idx.slots[j].v.out = pos.out
	}
	g.out[u] = outs[:len(outs)-1]

	ins := g.in[v]
	if last := int32(len(ins) - 1); pos.in != last {
		moved := ins[last] // moved.To is the source of the moved in-edge
		ins[pos.in] = moved
		j, _ := g.idx.find(key(moved.To, v))
		g.idx.slots[j].v.in = pos.in
	}
	g.in[v] = ins[:len(ins)-1]

	// The repairs above rewrote values only, so slot i still holds u→v.
	g.idx.deleteAt(i)
	g.m--
	return w, true
}

// Apply performs a whole batch of updates on the topology: additions insert,
// deletions remove. It returns the number of updates that actually changed
// the graph. This is the paper's "modify graph topology to generate a
// snapshot" step, which precedes classification.
func (g *Dynamic) Apply(batch []Update) int {
	changed := 0
	for _, up := range batch {
		if up.Del {
			if _, ok := g.RemoveEdge(up.From, up.To); ok {
				changed++
			}
		} else if g.AddEdge(up.From, up.To, up.W) {
			changed++
		}
	}
	return changed
}

// Clone returns a deep copy of the graph: engines that must not disturb a
// shared snapshot (the daemon's query pool at start-up, the offline
// experiments) clone before mutating.
//
// All edges are copied into two contiguous arenas (one per direction) and
// the per-vertex adjacencies are sub-sliced from them; the index is one
// slice copy, since slot positions carry over verbatim. The allocation count
// is therefore independent of the vertex and edge counts. The sub-slices are
// capacity-clipped: an AddEdge on the clone re-allocates that vertex's slice
// instead of growing into its arena neighbor.
func (g *Dynamic) Clone() *Dynamic {
	c := &Dynamic{
		out: make([][]Edge, len(g.out)),
		in:  make([][]Edge, len(g.in)),
		idx: g.idx.clone(),
		m:   g.m,
	}
	copyArena(c.out, g.out, g.m)
	copyArena(c.in, g.in, g.m)
	return c
}

// copyArena copies every adjacency of src into one arena of m edges and
// points dst at capacity-clipped windows of it.
func copyArena(dst, src [][]Edge, m int) {
	arena := make([]Edge, 0, m)
	for v, es := range src {
		if len(es) == 0 {
			continue
		}
		start := len(arena)
		arena = append(arena, es...)
		dst[v] = arena[start:len(arena):len(arena)]
	}
}

// EdgeList materialises the current topology as an edge list (arcs ordered
// by source vertex, then insertion order).
func (g *Dynamic) EdgeList(name string) *EdgeList {
	el := &EdgeList{Name: name, N: len(g.out), Arcs: make([]Arc, 0, g.m)}
	for u, es := range g.out {
		for _, e := range es {
			el.Arcs = append(el.Arcs, Arc{From: VertexID(u), To: e.To, W: e.W})
		}
	}
	return el
}

// TopDegreeVertices returns the k vertices with the highest out+in degree,
// highest first (ties broken by lower ID). SGraph uses the 16 highest-degree
// vertices as hubs.
//
// Selection is a single O(n log k) pass over a k-sized min-heap ordered
// worst-kept-first: a vertex displaces the heap root when it beats it under
// the (degree desc, ID asc) order. The heap is the only allocation.
func (g *Dynamic) TopDegreeVertices(k int) []VertexID {
	n := g.NumVertices()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	// beats reports that vertex a ranks ahead of vertex b in the result
	// order: higher degree first, lower ID on ties.
	deg := func(v int) int { return len(g.out[v]) + len(g.in[v]) }
	beats := func(a, b int) bool {
		da, db := deg(a), deg(b)
		return da > db || (da == db && a < b)
	}
	// h is a min-heap under beats: h[0] is the weakest kept vertex.
	h := make([]int, 0, k)
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(h) && beats(h[min], h[l]) {
				min = l
			}
			if r < len(h) && beats(h[min], h[r]) {
				min = r
			}
			if min == i {
				return
			}
			h[i], h[min] = h[min], h[i]
			i = min
		}
	}
	for v := 0; v < n; v++ {
		if len(h) < k {
			h = append(h, v)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if !beats(h[p], h[i]) {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
		} else if beats(v, h[0]) {
			h[0] = v
			down(0)
		}
	}
	// Drain weakest-first into the tail of the result.
	res := make([]VertexID, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		res[i] = VertexID(h[0])
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		down(0)
	}
	return res
}

func (g *Dynamic) String() string {
	return fmt.Sprintf("Dynamic{V=%d E=%d}", g.NumVertices(), g.NumEdges())
}
