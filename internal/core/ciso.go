package core

import (
	"slices"
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
)

// CISO is CISGraph-O: the paper's contribution-aware workflow in software
// (§III-A). Per batch it:
//
//  1. applies the whole batch to the topology (snapshot generation);
//  2. classifies every addition with the triangle-inequality test, processes
//     the valuable ones and drops the useless ones;
//  3. classifies every deletion into valuable (on the global key path),
//     delayed (supplies its head vertex but off the key path) or useless
//     (not a supplier, dropped);
//  4. processes valuable deletions first — re-deriving the key path after
//     each and *promoting* pending delayed deletions that the new key path
//     runs through (DESIGN.md §3.2) — at which point the query answer is
//     final and the response clock stops;
//  5. processes the delayed deletions to restore full convergence (in
//     hardware this phase overlaps the next batch's update gathering).
type CISO struct {
	st   *state
	cnt  *stats.Counters
	norm normalizer

	noDrop bool // ablation: process useless updates too
	fifo   bool // ablation: no priority scheduling, respond only when converged
}

// CISOOption configures ablation variants of the workflow.
type CISOOption func(*CISO)

// WithNoDrop disables useless-update dropping: every deletion pays the
// unconditional head-vertex re-derivation (ablation A1a).
func WithNoDrop() CISOOption { return func(c *CISO) { c.noDrop = true } }

// WithFIFO disables priority scheduling: deletions are processed in arrival
// order and the response is only available at convergence (ablation A1b).
func WithFIFO() CISOOption { return func(c *CISO) { c.fifo = true } }

// NewCISO returns an unarmed CISGraph-O engine; call Reset before use.
func NewCISO(opts ...CISOOption) *CISO {
	c := &CISO{cnt: stats.NewCounters()}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Name implements Engine.
func (c *CISO) Name() string {
	switch {
	case c.noDrop && c.fifo:
		return "CISO-nodrop-fifo"
	case c.noDrop:
		return "CISO-nodrop"
	case c.fifo:
		return "CISO-fifo"
	default:
		return "CISO"
	}
}

// Reset implements Engine.
func (c *CISO) Reset(g *graph.Dynamic, a algo.Algorithm, q Query) {
	c.st = newState(g, a, q, c.cnt)
	c.st.fullCompute()
}

// Phase-attributed activation counters (Fig. 5b): vertices activated while
// processing additions, non-delayed deletions (before the response), and
// delayed deletions (after the response).
const (
	CntActivationAdd     = "activation_add"
	CntActivationDel     = "activation_del"
	CntActivationDelayed = "activation_delayed"
)

// ApplyBatch implements Engine.
func (c *CISO) ApplyBatch(batch []graph.Update) Result {
	st := c.st
	before := c.cnt.DenseSnapshot(nil)
	t0 := time.Now()

	// Reduce the batch to net per-edge effects so the phase split below
	// cannot reorder a same-edge delete+add (a re-weighting) into an edge
	// loss; see NormalizeBatch.
	nb := c.norm.normalize(st.g, batch)

	// Phase A — additions: insert their edges and let the classifier's
	// ⊕+compare (which is the relaxation itself) feed valuable ones straight
	// into propagation. Additions complete before any deletion is touched,
	// as in the paper's methodology ("for fairness", §IV-A); this also keeps
	// the deletion equality test exact, because the states it reads are
	// converged for a snapshot the deleted edges still belong to.
	// A re-weighted edge takes its new weight now; its improvement half is
	// an addition event, its dethroning half a deletion event in phase B.
	hAct := st.h[tAct]
	actPhaseStart := hAct.Value()
	addition := func(u, v graph.VertexID, w float64) {
		if st.processAddition(u, v, w) {
			st.tally[tValuable]++
		} else {
			st.tally[tUseless]++
		}
	}
	for _, up := range nb.Adds {
		st.g.AddEdge(up.From, up.To, up.W)
		addition(up.From, up.To, up.W)
	}
	for _, rw := range nb.Reweights {
		st.g.RemoveEdge(rw.From, rw.To)
		st.g.AddEdge(rw.From, rw.To, rw.NewW)
		addition(rw.From, rw.To, rw.NewW)
	}
	c.cnt.Add(CntActivationAdd, hAct.Value()-actPhaseStart)

	// Phase B — apply the deletion topology, then classify every deletion
	// event against the post-addition converged states and the global key
	// path. Re-weighting deletion halves are classified with the OLD weight
	// (the equality test, or the head's parent naming the tail, fires when
	// the old weight still supplies the head vertex; classifyDeletion) but
	// repair re-derives from the live topology, which already carries the
	// new weight.
	for _, up := range nb.Dels {
		st.g.RemoveEdge(up.From, up.To)
	}
	delEvents := nb.Dels
	for _, rw := range nb.Reweights {
		delEvents = append(delEvents, graph.Del(rw.From, rw.To, rw.OldW))
	}
	st.classifyDeletions(delEvents, len(nb.Dels), !c.noDrop)

	// Phase C — valuable (non-delayed) deletions, highest priority, with
	// promotion of the delayed ones a rerouted key path runs through.
	actPhaseStart = hAct.Value()
	if c.fifo {
		// Ablation: arrival order, no early answer.
		for _, pd := range st.sc.valuable {
			st.repairVertex(pd.v)
		}
		st.repairDelayed()
		c.cnt.Add(CntActivationDel, hAct.Value()-actPhaseStart)
		total := time.Since(t0)
		return c.result(before, total, total)
	}
	st.repairValuable()
	c.cnt.Add(CntActivationDel, hAct.Value()-actPhaseStart)
	response := time.Since(t0)

	// Phase D — delayed deletions restore full convergence after the
	// response (overlapped with update gathering in hardware).
	actPhaseStart = hAct.Value()
	st.repairDelayed()
	c.cnt.Add(CntActivationDelayed, hAct.Value()-actPhaseStart)
	return c.result(before, response, time.Since(t0))
}

func (c *CISO) result(before []int64, response, converged time.Duration) Result {
	return batchResult(c.cnt, before, c.st.answer(), response, converged)
}

// Answer implements Engine.
func (c *CISO) Answer() algo.Value { return c.st.answer() }

// Counters implements Engine.
func (c *CISO) Counters() *stats.Counters { return c.cnt }

// KeyPath exposes the current global key path (source→…→destination), or
// nil when the destination is unreached. Examples use it to show the path
// behind the answer. The slice is the caller's.
func (c *CISO) KeyPath() []graph.VertexID {
	path := slices.Clone(c.st.keyPath())
	c.st.clearKeyPath()
	return path
}
