package core

import (
	"math"
	"sync"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
)

// DefaultHubCount is the paper's SGraph configuration: the 16 vertices with
// the highest degree act as hubs.
const DefaultHubCount = 16

// SGraph models the paper's state-of-the-art software comparator (§IV-A):
// it maintains, for every hub vertex, exact one-to-all states in both edge
// directions (the "boundary maintaining" cost the paper calls out), and
// answers each query with a goal-directed best-first search whose vertices
// are pruned against hub-derived bounds:
//
//   - an answer bound from the best via-hub witness walk
//     Join(score(s→h), score(h→d)) — a real walk, so the true answer can
//     never be worse than it;
//   - a per-vertex completion bound: a vertex whose optimistic completion
//     cannot beat the answer bound is pruned. For the additive PPSP the
//     completion uses landmark (ALT-style) lower bounds derived from the
//     hub distances; for the other algebras the optimistic completion is
//     the vertex's own prefix score (paths only degrade).
//
// The search also settles the destination early (label-setting), unlike the
// CS baseline which converges one-to-all. The hub maintenance runs on every
// batch whether or not it helps, which is exactly why SGraph's speedup is
// erratic in Table IV (it can lose to CS, e.g. on Reach).
type SGraph struct {
	cnt     *stats.Counters
	hPruned stats.Handle // per-popped-vertex increment in boundedSearch
	hubCnt  *stats.Counters
	a       algo.Algorithm
	q       Query
	g       *graph.Dynamic // owned forward topology
	rg      *graph.Dynamic // reversed mirror, for to-hub distances
	hubs    []graph.VertexID
	fwd     []*state // fwd[i].val[x] = score(hub_i → x)
	bwd     []*state // bwd[i].val[x] = score(x → hub_i)
	search  *state   // per-batch goal-directed search scratch
	numHubs int
	ans     algo.Value
}

// NewSGraph returns an unarmed SGraph engine with numHubs hub vertices
// (DefaultHubCount if numHubs <= 0).
func NewSGraph(numHubs int) *SGraph {
	if numHubs <= 0 {
		numHubs = DefaultHubCount
	}
	cnt := stats.NewCounters()
	return &SGraph{
		cnt:     cnt,
		hPruned: cnt.Handle(stats.CntPruned),
		hubCnt:  stats.NewCounters(),
		numHubs: numHubs,
	}
}

// Name implements Engine.
func (s *SGraph) Name() string { return "SGraph" }

// Reset implements Engine: build the reversed mirror, select hubs, fully
// compute every hub state, and answer the initial query.
func (s *SGraph) Reset(g *graph.Dynamic, a algo.Algorithm, q Query) {
	s.a, s.q, s.g = a, q, g
	s.rg = reverse(g)
	s.hubs = g.TopDegreeVertices(s.numHubs)
	s.fwd = make([]*state, len(s.hubs))
	s.bwd = make([]*state, len(s.hubs))
	for i, h := range s.hubs {
		s.fwd[i] = newState(s.g, a, Query{S: h, D: h}, s.hubCnt)
		s.fwd[i].fullCompute()
		s.bwd[i] = newState(s.rg, a, Query{S: h, D: h}, s.hubCnt)
		s.bwd[i].fullCompute()
	}
	s.search = newState(s.g, a, q, s.cnt)
	s.ans = s.boundedSearch()
}

// reverse builds the transposed copy of g.
func reverse(g *graph.Dynamic) *graph.Dynamic {
	r := graph.NewDynamic(g.NumVertices())
	for u := 0; u < g.NumVertices(); u++ {
		for _, e := range g.Out(graph.VertexID(u)) {
			r.AddEdge(e.To, graph.VertexID(u), e.W)
		}
	}
	return r
}

// ApplyBatch implements Engine: apply the batch to both topologies,
// incrementally maintain every hub state (additions relax, deletions
// repair), then run the pruned goal-directed search.
func (s *SGraph) ApplyBatch(batch []graph.Update) Result {
	before := s.cnt.DenseSnapshot(nil)
	d := timed(func() {
		hubBefore := s.hubCnt.Snapshot()
		nb := NormalizeBatch(s.g, batch)
		// Additions first (topology + hub maintenance), then deletions —
		// the same phase split as CISO, so each hub state's repairs run
		// against states converged for a snapshot that still holds the
		// edges about to be deleted. Re-weighted edges take their new
		// weight here (improvement half); their dethroning half joins the
		// deletion events below.
		// Topology first (both directions), then per-hub maintenance fans
		// out across goroutines: each hub state is independent and the
		// topology is read-only during the fan-out — the analog of the
		// paper's multi-core software platform.
		addEvents := nb.Adds
		for _, up := range nb.Adds {
			s.g.AddEdge(up.From, up.To, up.W)
			s.rg.AddEdge(up.To, up.From, up.W)
		}
		for _, rw := range nb.Reweights {
			s.g.RemoveEdge(rw.From, rw.To)
			s.g.AddEdge(rw.From, rw.To, rw.NewW)
			s.rg.RemoveEdge(rw.To, rw.From)
			s.rg.AddEdge(rw.To, rw.From, rw.NewW)
			addEvents = append(addEvents, graph.Add(rw.From, rw.To, rw.NewW))
		}
		s.forEachHub(func(i int) {
			for _, up := range addEvents {
				s.fwd[i].processAddition(up.From, up.To, up.W)
				s.bwd[i].processAddition(up.To, up.From, up.W)
			}
		})
		// Classify each deletion event against every hub state while the
		// states are exactly converged for the pre-deletion snapshot: only
		// supplier edges (parent hit — an O(1) check, SGraph's lazy
		// "update distances during execution") need repair; tie and
		// non-supplier edges cannot change any hub distance.
		delEvents := nb.Dels
		for _, rw := range nb.Reweights {
			delEvents = append(delEvents, graph.Del(rw.From, rw.To, rw.OldW))
		}
		repairFwd := make([][]graph.VertexID, len(s.hubs))
		repairBwd := make([][]graph.VertexID, len(s.hubs))
		s.forEachHub(func(i int) {
			for _, up := range delEvents {
				if s.fwd[i].parent[up.To] == up.From {
					repairFwd[i] = append(repairFwd[i], up.To)
				}
				if s.bwd[i].parent[up.From] == up.To {
					repairBwd[i] = append(repairBwd[i], up.From)
				}
			}
		})
		for _, up := range nb.Dels {
			if _, ok := s.g.RemoveEdge(up.From, up.To); ok {
				s.rg.RemoveEdge(up.To, up.From)
			}
		}
		s.forEachHub(func(i int) {
			for _, v := range repairFwd[i] {
				s.fwd[i].repairVertex(v)
			}
			for _, v := range repairBwd[i] {
				s.bwd[i].repairVertex(v)
			}
		})
		hubWork := s.hubCnt.Diff(hubBefore)
		s.cnt.Add(stats.CntHubRelax, hubWork[stats.CntRelax])
		s.ans = s.boundedSearch()
	})
	return batchResult(s.cnt, before, s.ans, d, d)
}

// witnessBound returns the best via-hub walk score for the query: an
// achievable answer, hence a bound the search only needs to beat.
func (s *SGraph) witnessBound() algo.Value {
	bound := s.a.Init()
	for i := range s.hubs {
		w := s.a.Join(s.bwd[i].val[s.q.S], s.fwd[i].val[s.q.D])
		bound = algo.Reduce(s.a, w, bound)
	}
	return bound
}

// boundedSearch runs the pruned, goal-directed best-first search from the
// query source on the current snapshot and returns the exact answer.
func (s *SGraph) boundedSearch() algo.Value {
	st := s.search
	st.resetAll()
	st.sc.wl.reset()
	bound := s.witnessBound()
	st.sc.wl.push(s.q.S, st.val[s.q.S])
	found := s.a.Init()
	for st.sc.wl.len() > 0 {
		v, score := st.sc.wl.pop()
		if st.val[v] != score {
			continue
		}
		if v == s.q.D {
			// Label-setting: the destination's score is final.
			found = score
			break
		}
		if s.pruned(v, bound) {
			s.hPruned.Inc()
			continue
		}
		for _, e := range s.g.Out(v) {
			st.relaxEdge(v, e.To, e.W)
		}
	}
	st.flush()
	// The witness walk is real, so the answer is the better of the two.
	return algo.Reduce(s.a, found, bound)
}

// pruned reports whether vertex v's optimistic completion cannot beat the
// current answer bound. Equal-to-bound completions are pruned because the
// witness already realises the bound.
func (s *SGraph) pruned(v graph.VertexID, bound algo.Value) bool {
	completion := s.search.val[v]
	if _, additive := s.a.(algo.PPSP); additive {
		completion += s.landmarkLB(v)
	}
	return !s.a.Better(completion, bound)
}

// landmarkLB is the ALT-style lower bound on the remaining v→d distance for
// the additive algebra: for any hub h, dist(v→d) ≥ dist(h→d) − dist(h→v)
// and dist(v→d) ≥ dist(v→h) − dist(d→h). Infinite hub distances contribute
// nothing.
func (s *SGraph) landmarkLB(v graph.VertexID) float64 {
	lb := 0.0
	d := s.q.D
	for i := range s.hubs {
		hd, hv := s.fwd[i].val[d], s.fwd[i].val[v]
		if !math.IsInf(hd, 1) && !math.IsInf(hv, 1) && hd-hv > lb {
			lb = hd - hv
		}
		vh, dh := s.bwd[i].val[v], s.bwd[i].val[d]
		if !math.IsInf(vh, 1) && !math.IsInf(dh, 1) && vh-dh > lb {
			lb = vh - dh
		}
	}
	return lb
}

// forEachHub fans f out across the hub indices on goroutines. Hub states
// are pairwise independent and the shared topology is read-only inside f.
func (s *SGraph) forEachHub(f func(i int)) {
	if len(s.hubs) <= 1 {
		for i := range s.hubs {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := range s.hubs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}

// Answer implements Engine.
func (s *SGraph) Answer() algo.Value { return s.ans }

// Counters implements Engine.
func (s *SGraph) Counters() *stats.Counters { return s.cnt }

// Hubs exposes the selected hub vertices (for tests and tooling).
func (s *SGraph) Hubs() []graph.VertexID { return s.hubs }
