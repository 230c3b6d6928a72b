package core

import (
	"slices"

	"cisgraph/internal/graph"
)

// NormalizedBatch is a batch reduced to its net per-edge effect against a
// concrete topology. Engines that process additions and deletions in
// separate phases (CISO, SGraph, the accelerator) must not naively reorder
// a batch: a deletion followed by an addition of the same edge is a
// re-weighting, and swapping the phases would first reject the addition as
// a duplicate and then remove the edge altogether.
//
// Normalization simulates each edge's update subsequence and emits:
//
//   - Adds: edges absent before the batch and present after (final weight);
//   - Dels: edges present before and absent after (original weight);
//   - Reweights: edges present before and after with a changed weight —
//     handled as an addition event at the new weight (phase A, catches
//     improvements) plus a deletion event at the old weight (phase B,
//     catches a dethroned supplier), both against the final topology.
//
// Batches produced by stream.Workload contain no same-edge sequences, so
// for them normalization is the identity (at O(batch) cost).
type NormalizedBatch struct {
	Adds []graph.Update
	Dels []graph.Update
	// Reweights records (From, To, W=new weight) with OldW the weight the
	// edge had before the batch.
	Reweights []Reweight
}

// Reweight is a present→present weight change.
type Reweight struct {
	From, To   graph.VertexID
	OldW, NewW float64
}

// NormalizeBatch computes the net effect of batch against g (which must be
// the pre-batch topology; it is not modified).
func NormalizeBatch(g *graph.Dynamic, batch []graph.Update) NormalizedBatch {
	return new(normalizer).normalize(g, batch)
}

// normalizer owns NormalizeBatch's working memory, so an engine that
// normalizes every batch allocates nothing for it at steady state. The
// batch normalize returns aliases the normalizer until its next call.
type normalizer struct {
	idx    graph.Table[int32] // edge key → index into tracks
	tracks []edgeTrack        // first-touch order
	out    NormalizedBatch
}

// edgeTrack simulates one edge's update subsequence.
type edgeTrack struct {
	u, v              graph.VertexID
	present0, present bool
	w0, w             float64
}

func (n *normalizer) normalize(g *graph.Dynamic, batch []graph.Update) NormalizedBatch {
	n.idx.Reset(len(batch))
	// Each buffer grows at most once per batch, to what the batch needs,
	// rather than doubling up to it from a fresh engine's empty slices (a
	// restore's first group is 65,536 updates).
	tracks := slices.Grow(n.tracks[:0], len(batch))
	for _, up := range batch {
		k := uint64(up.From)<<32 | uint64(up.To)
		i, ok := n.idx.Get(k)
		if !ok {
			w0, present0 := g.HasEdge(up.From, up.To)
			i = int32(len(tracks))
			n.idx.Insert(k, i)
			tracks = append(tracks, edgeTrack{u: up.From, v: up.To, present0: present0, present: present0, w0: w0, w: w0})
		}
		if tr := &tracks[i]; up.Del {
			tr.present = false
		} else if !tr.present {
			tr.present = true
			tr.w = up.W
		}
	}
	n.tracks = tracks
	adds, dels := 0, 0
	for i := range tracks {
		if tr := &tracks[i]; tr.present != tr.present0 {
			if tr.present {
				adds++
			} else {
				dels++
			}
		}
	}
	out := NormalizedBatch{
		Adds:      slices.Grow(n.out.Adds[:0], adds),
		Dels:      slices.Grow(n.out.Dels[:0], dels),
		Reweights: n.out.Reweights[:0],
	}
	for _, tr := range tracks {
		switch {
		case !tr.present0 && tr.present:
			out.Adds = append(out.Adds, graph.Add(tr.u, tr.v, tr.w))
		case tr.present0 && !tr.present:
			out.Dels = append(out.Dels, graph.Del(tr.u, tr.v, tr.w0))
		case tr.present0 && tr.present && tr.w != tr.w0:
			out.Reweights = append(out.Reweights, Reweight{From: tr.u, To: tr.v, OldW: tr.w0, NewW: tr.w})
		}
	}
	n.out = out
	return out
}

// Size returns the number of net update events the batch carries
// (a reweight counts as two: its addition and deletion halves).
func (n NormalizedBatch) Size() int {
	return len(n.Adds) + len(n.Dels) + 2*len(n.Reweights)
}
