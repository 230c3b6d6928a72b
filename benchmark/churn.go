package main

import (
	"fmt"
	"math/rand"

	"cisgraph/internal/core"
	"cisgraph/internal/graph"
)

// Churn is the benchmark's steady-state update generator. A dataset is split
// into a loaded half (the initial snapshot the daemon is started on) and a
// withheld half; every update either adds a withheld edge or deletes a loaded
// one, and — unlike internal/stream.Workload — a deleted edge rejoins the
// withheld pool, so the stream never dries up and the loaded share stays at
// 50 % for as long as the run lasts. Every update is valid against the state
// left by the updates before it (no duplicate adds, no absent deletes), so a
// daemon that acks in order drops nothing.
//
// Heat biases the stream: hotFrac of the updates toggle an edge into one of the
// given vertices (the rest is uniform over all edges). Pointed at the query
// destinations it makes answers move often enough for a watch subscriber to
// have deltas to time. The whole stream is a pure function of the seed.
type Churn struct {
	rng     *rand.Rand
	n       int
	hotFrac float64
	// pools[hot][loaded]: arcs never change temperature, only loadedness.
	pools  [2][2][]graph.Arc
	target int // loaded-edge count the generator steers back to
	loaded int
}

const (
	poolCold, poolHot          = 0, 1
	poolWithheld, poolIsLoaded = 0, 1
)

// NewChurn splits el into a loaded and a withheld half, deterministically in
// seed.
func NewChurn(el *graph.EdgeList, seed int64) *Churn {
	c := &Churn{rng: rand.New(rand.NewSource(seed)), n: el.N}
	c.target = len(el.Arcs) / 2
	for i, idx := range c.rng.Perm(len(el.Arcs)) {
		l := poolWithheld
		if i < c.target {
			l = poolIsLoaded
			c.loaded++
		}
		c.pools[poolCold][l] = append(c.pools[poolCold][l], el.Arcs[idx])
	}
	return c
}

// Heat makes every arc into one of dests hot. Call it before the first Next;
// hotFrac = 0 leaves the stream uniform.
func (c *Churn) Heat(dests []graph.VertexID, hotFrac float64) {
	if hotFrac <= 0 {
		return
	}
	c.hotFrac = hotFrac
	hot := make([]bool, c.n)
	for _, v := range dests {
		hot[v] = true
	}
	for l := range c.pools[poolCold] {
		cold := c.pools[poolCold][l][:0]
		for _, a := range c.pools[poolCold][l] {
			if hot[a.To] {
				c.pools[poolHot][l] = append(c.pools[poolHot][l], a)
			} else {
				cold = append(cold, a)
			}
		}
		c.pools[poolCold][l] = cold
	}
}

// Initial returns the loaded half as an edge list: the snapshot file the
// daemon starts from. Call it before the first Next.
func (c *Churn) Initial(name string) *graph.EdgeList {
	el := &graph.EdgeList{Name: name, N: c.n}
	el.Arcs = append(el.Arcs, c.pools[poolCold][poolIsLoaded]...)
	el.Arcs = append(el.Arcs, c.pools[poolHot][poolIsLoaded]...)
	return el
}

// Loaded returns the number of edges the stream has left loaded.
func (c *Churn) Loaded() int { return c.loaded }

// Next returns the next update. Above the 50 % target it deletes, below it
// adds, on it a coin decides: a 50/50 mix that never drifts.
func (c *Churn) Next() graph.Update {
	del := c.loaded > c.target || (c.loaded == c.target && c.rng.Intn(2) == 0)
	from := poolWithheld
	if del {
		from = poolIsLoaded
	}
	nHot, nCold := len(c.pools[poolHot][from]), len(c.pools[poolCold][from])
	h := poolCold
	switch {
	case nCold == 0:
		h = poolHot
	case nHot == 0:
	case c.hotFrac > 0 && c.rng.Float64() < c.hotFrac:
		h = poolHot
	case c.rng.Intn(nHot+nCold) < nHot:
		h = poolHot
	}
	src := c.pools[h][from]
	i := c.rng.Intn(len(src))
	a := src[i]
	src[i] = src[len(src)-1]
	c.pools[h][from] = src[:len(src)-1]
	c.pools[h][1-from] = append(c.pools[h][1-from], a)
	if del {
		c.loaded--
		return graph.Del(a.From, a.To, a.W)
	}
	c.loaded++
	return graph.Add(a.From, a.To, a.W)
}

// Fill appends n updates to ups and returns the extended slice.
func (c *Churn) Fill(ups []graph.Update, n int) []graph.Update {
	for i := 0; i < n; i++ {
		ups = append(ups, c.Next())
	}
	return ups
}

// inputs is everything a run derives from the seed: the update generator, the
// snapshot the daemon starts from, and the queries it serves.
type inputs struct {
	churn   *Churn
	initial *graph.EdgeList
	queries []core.Query
}

// genInputs builds a workload's inputs at the given dataset scale: RMAT with
// 16 arcs per vertex → 50 % split → connected queries.
func genInputs(w workload, scale int, seed int64) (inputs, error) {
	n := 1 << scale
	el := graph.RMAT("rmat", scale, 16*n, graph.DefaultRMAT, graph.MaxRawWeight, seed)
	in := inputs{churn: NewChurn(el, seed)}
	in.initial = in.churn.Initial("initial")
	pairs := pickQueries(graph.FromEdgeList(in.initial), w.q, w.sources, seed)
	if len(pairs) != w.q {
		return in, fmt.Errorf("seed %d: only %d of %d connected queries found", seed, len(pairs), w.q)
	}
	dests := make([]graph.VertexID, len(pairs))
	for i, p := range pairs {
		in.queries = append(in.queries, core.Query{S: p[0], D: p[1]})
		dests[i] = p[1]
	}
	in.churn.Heat(dests, w.hotFrac)
	return in, nil
}

// pickQueries chooses q pairwise queries over `sources` distinct source
// vertices (q/sources destinations each), every pair connected in g, as a
// pure function of seed. A source must reach at least a sixteenth of the
// graph so that its queries sit in the giant component, where churn can move
// their answers. A destination has two to four in-edges in g: enough that it
// usually stays reachable, few enough that toggling one often changes the
// shortest distance.
func pickQueries(g *graph.Dynamic, q, sources int, seed int64) [][2]graph.VertexID {
	rng := rand.New(rand.NewSource(seed ^ 0x51a7e))
	n := g.NumVertices()
	per := q / sources
	used := make(map[graph.VertexID]bool, sources)
	pairs := make([][2]graph.VertexID, 0, q)
	for attempts := 0; len(used) < sources && attempts < 200*sources; attempts++ {
		s := graph.VertexID(rng.Intn(n))
		if used[s] || g.OutDegree(s) == 0 {
			continue
		}
		var cands []graph.VertexID
		reach := 0
		for v, ok := range graph.ReachableFrom(g, s) {
			if !ok || graph.VertexID(v) == s {
				continue
			}
			reach++
			if d := g.InDegree(graph.VertexID(v)); d >= 2 && d <= 4 {
				cands = append(cands, graph.VertexID(v))
			}
		}
		if reach < n/16 || len(cands) < per {
			continue
		}
		used[s] = true
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		for _, d := range cands[:per] {
			pairs = append(pairs, [2]graph.VertexID{s, d})
		}
	}
	return pairs
}
