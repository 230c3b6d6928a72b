package core

import (
	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
)

// PnP models the pruning-and-prediction baseline the paper discusses in
// §II-B (Xu et al., ASPLOS'19): a pairwise system that bounds the search
// with the best answer found so far and prunes every vertex that cannot
// beat it. Unlike SGraph it maintains no hub infrastructure — each batch
// re-answers the query with a goal-directed, pruned, best-first search:
//
//   - label-setting: the search stops the moment the destination settles;
//   - upper-bound pruning: a vertex whose own prefix score is already not
//     better than the current destination estimate is never expanded
//     (paths only degrade under monotone ⊕, so nothing beyond it can help).
//
// The answer is exact; the speedup over ColdStart is the goal-directedness,
// and the gap to the incremental engines is the lack of state reuse — the
// contrast the paper's classification approach is motivated by.
type PnP struct {
	cnt     *stats.Counters
	hPruned stats.Handle // per-popped-vertex increment on the search path
	a       algo.Algorithm
	q       Query
	g       *graph.Dynamic
	st      *state
	ans     algo.Value
}

// NewPnP returns an unarmed PnP engine; call Reset before use.
func NewPnP() *PnP {
	cnt := stats.NewCounters()
	return &PnP{cnt: cnt, hPruned: cnt.Handle(stats.CntPruned)}
}

// Name implements Engine.
func (p *PnP) Name() string { return "PnP" }

// Reset implements Engine.
func (p *PnP) Reset(g *graph.Dynamic, a algo.Algorithm, q Query) {
	p.a, p.q, p.g = a, q, g
	p.st = newState(g, a, q, p.cnt)
	p.ans = p.prunedSearch()
}

// ApplyBatch implements Engine: apply the topology and re-answer with the
// pruned search.
func (p *PnP) ApplyBatch(batch []graph.Update) Result {
	before := p.cnt.DenseSnapshot(nil)
	d := timed(func() {
		p.g.Apply(batch)
		p.ans = p.prunedSearch()
	})
	return batchResult(p.cnt, before, p.ans, d, d)
}

// prunedSearch runs the goal-directed best-first search with upper-bound
// pruning from the current answer estimate.
func (p *PnP) prunedSearch() algo.Value {
	st := p.st
	st.resetAll()
	st.sc.wl.reset()
	st.sc.wl.push(p.q.S, st.val[p.q.S])
	defer st.flush()
	for st.sc.wl.len() > 0 {
		v, score := st.sc.wl.pop()
		if st.val[v] != score {
			continue
		}
		if v == p.q.D {
			return score // label-setting: final
		}
		// Upper-bound pruning against the best destination estimate so far.
		if !p.a.Better(st.val[v], st.val[p.q.D]) {
			p.hPruned.Inc()
			continue
		}
		for _, e := range p.g.Out(v) {
			st.relaxEdge(v, e.To, e.W)
		}
	}
	return st.val[p.q.D]
}

// Answer implements Engine.
func (p *PnP) Answer() algo.Value { return p.ans }

// Counters implements Engine.
func (p *PnP) Counters() *stats.Counters { return p.cnt }
