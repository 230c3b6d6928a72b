package core

import (
	"errors"
	"slices"

	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
)

// Per-update fast path (DESIGN.md §14). ApplyUpdatesDelta ingests a group of
// updates one record at a time — each update is its own stream position —
// without paying the full batch machinery for updates that cannot change any
// converged state.
//
// An update is SAFE when Algorithm 1 classifies it useless for EVERY
// registered query: an addition u→v whose triangle check ⊕(state[u], w) does
// not improve state[v] for any query, or a deletion that supplies no query's
// state[v] (the triangle equality fails, or v is unreached). A safe update
// changes topology only — no state write, no key path, no scheduling — so it
// commits with a plain AddEdge/RemoveEdge. Everything else (including
// delayed deletions, which repair their head vertex after the response) is
// UNSAFE and serializes through the regular batch machinery.
//
// Routing is one forward pass: each update is normalized against the live
// topology and judged against the live converged values right before it
// commits, so it is classified at most twice and routing is O(group).
//
//   - No run pending: a safe update commits at once — it writes no state, so
//     the next update's judgement reads the same values — and an unsafe one
//     opens a pending run, which is NOT applied yet.
//   - Run pending: live topology and values are the pre-run ones. An update
//     on the same edge as a run member cannot be normalized (the run decides
//     what that edge will look like), so it joins the run, where the batch
//     path normalizes same-edge sequences correctly. Any other edge is
//     untouched by the run, so its live normal form is the one it will
//     commit against. Judged unsafe against the pre-run values, it joins the
//     run: the verdict may be stale, but an unsafe verdict is only ever
//     conservative — the batch machinery re-classifies per query and treats
//     a useless update as one. Judged safe, the verdict may be stale too and
//     is never acted on: the run is flushed through the batch machinery
//     first, and the update is judged once more against the fresh values.
//   - Consecutive unsafe updates therefore commit as ONE call into the batch
//     machinery. The engine's converged fixpoint is batch-split independent
//     (relied on throughout the test suite), so values after the group equal
//     the batch path's over the same updates applied one by one.

// FastStats reports how ApplyUpdatesDelta routed a group.
type FastStats struct {
	Safe   int // updates committed with a topology-only write
	Unsafe int // updates serialized through the batch machinery
}

// ApplyUpdatesDelta ingests ups as len(ups) single-update stream positions,
// routing each through the safe (topology-only) or unsafe (batch machinery)
// path. The converged answers after the call are identical to applying each
// update as its own batch via ApplyBatchDelta. Besides the routing stats it
// reports the queries whose ANSWER changed across the group (merged over
// every unsafe run — the last value wins), so serving layers pay O(changed)
// to refresh their snapshots; safe updates by definition change no answer.
// The returned error (also the BatchDelta's Err) joins any per-group errors
// surfaced by unsafe runs (recovered panics); the engine stays consistent
// either way.
func (m *MultiCISO) ApplyUpdatesDelta(ups []graph.Update) (FastStats, BatchDelta, error) {
	var fs FastStats
	var acc BatchDelta
	if len(ups) == 0 {
		return fs, acc, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var errs []error
	scans, runs := 0, 0
	run := 0 // ups[run:i] is the pending unsafe run
	flush := func(end int) {
		if run == end {
			return
		}
		d := m.applyBatchLocked(ups[run:end])
		acc.Skipped += d.Skipped
		acc.Processed += d.Processed
		acc.Changed = append(acc.Changed, d.Changed...)
		if d.Err != nil {
			errs = append(errs, d.Err)
		}
		fs.Unsafe += end - run
		runs++
	}
	for i, u := range ups {
		if touchesEdge(ups[run:i], u) {
			continue
		}
		safe := m.classifyLocked(u)
		scans++
		if safe && run < i {
			flush(i)
			run = i
			safe = m.classifyLocked(u)
			scans++
		}
		if !safe {
			continue // opens the run at i, or extends it
		}
		m.commitSafeLocked(u)
		fs.Safe++
		run = i + 1
	}
	flush(len(ups))
	m.cnt.Add(stats.CntUpdateSafe, int64(fs.Safe))
	m.cnt.Add(stats.CntUpdateUnsafe, int64(fs.Unsafe))
	m.cnt.Add(stats.CntUpdateClassifyScans, int64(scans))
	if runs > 1 {
		// Each run reported in index order; keep every query's last value.
		slices.SortStableFunc(acc.Changed, func(a, b ChangedAnswer) int { return a.Index - b.Index })
		last := acc.Changed[:0]
		for k, ca := range acc.Changed {
			if k+1 == len(acc.Changed) || acc.Changed[k+1].Index != ca.Index {
				last = append(last, ca)
			}
		}
		acc.Changed = last
	}
	acc.Err = errors.Join(errs...)
	return fs, acc, acc.Err
}

// touchesEdge reports whether u updates the same edge as a member of run.
func touchesEdge(run []graph.Update, u graph.Update) bool {
	for _, p := range run {
		if p.From == u.From && p.To == u.To {
			return true
		}
	}
	return false
}

// classifyLocked normalizes u against the live topology and judges it
// against the live converged values. Adding a present edge (at any weight —
// the first weight stays, as in NormalizeBatch and Dynamic.Apply) and
// deleting an absent one have no effect and are safe. A plugin panic during
// the scan routes the update unsafe, where the batch machinery's per-query
// recovery owns the failure.
func (m *MultiCISO) classifyLocked(u graph.Update) (safe bool) {
	defer func() {
		if recover() != nil {
			safe = false
		}
	}()
	w0, present := m.g.HasEdge(u.From, u.To)
	switch {
	case u.Del != present:
		return true
	case u.Del:
		return m.delUselessAllLocked(u.From, u.To, w0)
	default:
		return m.addUselessAllLocked(u.From, u.To, u.W)
	}
}

// addUselessAllLocked reports whether adding edge u→v with weight w is
// useless (ClassifyAddition) for every registered query, by scanning the
// source groups' states: one per source, since a group's members share its
// values (DESIGN.md §15), so the scan costs O(sources), not O(Q).
func (m *MultiCISO) addUselessAllLocked(u, v graph.VertexID, w float64) bool {
	for i := range m.groups {
		if !m.groups[i].st.addUseless(u, v, w) {
			return false
		}
	}
	return true
}

// delUselessAllLocked reports whether deleting edge u→v (stored weight w0)
// is useless (ClassifyDeletion) for every registered query: the edge
// supplies no query's state[v]. Delayed deletions count as unsafe — they
// repair v after the response, which is a state write.
func (m *MultiCISO) delUselessAllLocked(u, v graph.VertexID, w0 float64) bool {
	for i := range m.groups {
		if !m.groups[i].st.delUseless(u, v, w0) {
			return false
		}
	}
	return true
}

// commitSafeLocked commits one safe update with a topology write only (none
// for a duplicate add or an absent delete). No state, parent, counter or
// scratch touch — by the safety proof none would change. The epoch still
// advances: in-flight AddQuery computations snapshot topology, and a NEW
// source's converged state may depend on edges that are useless for every
// registered query.
func (m *MultiCISO) commitSafeLocked(u graph.Update) {
	changed := false
	if u.Del {
		_, changed = m.g.RemoveEdge(u.From, u.To)
	} else {
		changed = m.g.AddEdge(u.From, u.To, u.W)
	}
	if changed {
		m.epoch++
	}
}
