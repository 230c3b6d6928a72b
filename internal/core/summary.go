package core

import "cisgraph/internal/graph"

// changeSummaryCap bounds how many touched vertices one summary records
// before degrading to Overflow. Converged queries touch tens of vertices per
// batch (the stable-values observation, PAPERS.md), so the cap is generous
// for the common case while keeping the summary compact — an overflowed
// summary still proves "this region changed", it just stops enumerating
// where.
const changeSummaryCap = 512

// ChangeSummary is the compact dirty-set one batch leaves behind for one
// source's converged region (DESIGN.md §15): which vertices of the
// per-(source,epoch) state the batch actually wrote. A skipped source group
// gets an empty summary — the batch proved it could not touch the region at
// all. Summaries are rebuilt per batch; Epoch records the topology epoch the
// batch committed.
type ChangeSummary struct {
	Source graph.VertexID
	Epoch  uint64
	// Vertices lists the touched vertices, sorted and deduplicated as
	// returned by MultiCISO.ChangeSummaries (the engine's own record is the
	// raw write sequence). Empty with Overflow false means the region
	// provably did not change.
	Vertices []graph.VertexID
	// Overflow is set when the batch touched more than changeSummaryCap
	// vertices; Vertices then holds only a prefix of the dirty set.
	Overflow bool
}

// note records a vertex write. Called from the propagation hot path through
// a nil-checked pointer, so it must stay small; duplicates are tolerated
// here and squeezed out when the summary is read.
func (cs *ChangeSummary) note(v graph.VertexID) {
	if cs.Overflow {
		return
	}
	if len(cs.Vertices) >= changeSummaryCap {
		cs.Overflow = true
		return
	}
	cs.Vertices = append(cs.Vertices, v)
}

// noteAll marks the whole region dirty (a from-scratch recompute).
func (cs *ChangeSummary) noteAll() {
	cs.Overflow = true
	cs.Vertices = cs.Vertices[:0]
}
