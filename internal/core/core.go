// Package core implements the paper's primary contribution — the
// contribution-aware incremental workflow (classification, priority
// scheduling, delayed processing, key-path tracking) — together with the
// pairwise streaming-graph query engines it is evaluated against:
//
//   - ColdStart (CS): full recomputation per snapshot — the normalisation
//     baseline of Table IV.
//   - Incremental: contribution-independent incremental processing with
//     dependency-tree (KickStarter-style) deletion recovery — the substrate
//     the paper's Fig. 2 redundancy measurement runs on.
//   - SGraph: the state-of-the-art software comparator — hub-vertex bound
//     maintenance plus goal-directed pruned search.
//   - CISO (CISGraph-O): the paper's contribution-aware workflow in
//     software — triangle-inequality classification (Algorithm 1), priority
//     scheduling of valuable updates, delayed processing of
//     possibly-valuable deletions, early query response.
//
// All engines are generic over algo.Algorithm and return answers that must
// agree with ColdStart after every batch; the cross-engine tests enforce it.
package core

import (
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
)

// Query is a pairwise query Q(s→d).
type Query struct {
	S, D graph.VertexID
}

// Result is a single-query Engine's report of one batch application.
// MultiCISO reports a BatchDelta instead.
type Result struct {
	// Answer is the query result on the new snapshot (state of d).
	Answer algo.Value
	// Response is the time until the engine could answer the query. CISO
	// and the accelerator model (hw/accel) exclude delayed-update processing
	// (the paper's response-time metric); the baselines (cold start,
	// incremental, SGraph, PnP) report Response == Converged.
	Response time.Duration
	// Converged is the time until the engine's state fully converged on
	// the new snapshot.
	Converged time.Duration

	// Lazy counter-delta backing: engines record the batch's movement as a
	// compact dense-id-ordered slice (cntSrc resolves ids to names); the
	// name-keyed map is only materialised when Counters() is first called.
	// The serving hot path never reads it, so it never pays a per-batch
	// per-query map allocation (DESIGN.md §11).
	cntSrc   *stats.Counters
	cntDelta []int64
	counters map[string]int64
}

// Counters returns this batch's counter deltas (relaxations, activations,
// classification outcomes, ...), materialising the name-keyed map on first
// call and caching it. A zero Result returns nil — reads through it still
// behave (indexing a nil map yields zero).
func (r *Result) Counters() map[string]int64 {
	if r.counters == nil && r.cntSrc != nil {
		r.counters = r.cntSrc.DeltaMap(r.cntDelta)
	}
	return r.counters
}

// SetCounters replaces the result's counter deltas with an explicit map.
// The accelerator model (hw/accel) uses it to attribute its own
// measurements.
func (r *Result) SetCounters(m map[string]int64) {
	r.counters = m
	r.cntSrc, r.cntDelta = nil, nil
}

// batchResult assembles a Result whose counter deltas are captured now (as a
// cheap dense slice against the pre-batch snapshot) but materialised as a
// map only on demand.
func batchResult(cnt *stats.Counters, before []int64, answer algo.Value, response, converged time.Duration) Result {
	return Result{
		Answer:    answer,
		Response:  response,
		Converged: converged,
		cntSrc:    cnt,
		cntDelta:  cnt.DenseDelta(before),
	}
}

// ChangedAnswer reports one query whose answer moved during a batch.
type ChangedAnswer struct {
	// Index is the query's registration index (Reset-then-AddQuery order).
	Index int
	// Value is the post-batch answer.
	Value algo.Value
}

// BatchDelta is MultiCISO's one per-batch report (ApplyBatchDelta): instead
// of one Result per registered query — O(Q) even when the batch touched
// three vertices — it enumerates only the queries whose ANSWER actually
// changed, so serving layers that fan answers out (the query pool, the
// watch hub) pay O(changed). Per-query work and timing are not reported:
// the engine's counters count each source group's work once
// (MultiCISO.Counters). Every member of a group whose processing panicked is
// reported as changed (its answer may have moved during recovery) and the
// panic is joined into Err.
type BatchDelta struct {
	// Changed lists the queries whose answer differs from before the batch,
	// in ascending Index order.
	Changed []ChangedAnswer
	// Skipped counts queries proven unaffected and never processed.
	Skipped int
	// Processed counts queries whose group's phases ran. The members of a
	// suspect group waiting for its next recovery attempt are in neither
	// count.
	Processed int
	// Err joins recovered per-group errors (nil when the batch was clean);
	// each names the panicking group's source.
	Err error
}

// Engine is a pairwise streaming query engine. Reset gives the engine
// ownership of g (engines mutate their graph when applying batches), runs
// the initial full computation, and arms the query; ApplyBatch ingests one
// batch of updates and returns the refreshed answer.
type Engine interface {
	Name() string
	Reset(g *graph.Dynamic, a algo.Algorithm, q Query)
	ApplyBatch(batch []graph.Update) Result
	// Answer returns the current query answer.
	Answer() algo.Value
	// Counters exposes the engine's cumulative counters.
	Counters() *stats.Counters
}

// timed runs f and returns its wall-clock duration.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}
