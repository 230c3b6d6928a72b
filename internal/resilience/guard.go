package resilience

import (
	"bytes"
	"fmt"
	"io"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
)

// Saver is implemented by engines that can snapshot their full state
// (core.CISO does, via its checkpoint Save).
type Saver interface {
	Save(w io.Writer) error
}

// Guard wraps a core.Engine with the full resilience envelope:
//
//   - every batch is sanitized against the guard's shadow topology before
//     the engine sees it (policy-configurable: drop, reject or strict);
//   - sanitized batches are appended (and fsynced) to an optional WAL
//     before being applied — the redo log a crashed run recovers from;
//   - a panic inside the engine's ApplyBatch is recovered, never crashing
//     the process, and the engine is rebuilt;
//   - every auditEvery batches the engine's invariants are checked (when it
//     implements core.InvariantChecker); detected corruption triggers the
//     same rebuild;
//   - rebuilds prefer restoring the last good checkpoint and replaying the
//     batches since; if no checkpoint exists (or the replay fails) the
//     guard falls back to a full recompute on its shadow topology — the
//     ColdStart degradation path. Every recovery event is counted.
//
// The shadow topology is the guard's own authoritative copy of the graph:
// it is maintained from sanitized batches only, outside the engine, so it
// stays correct even when the engine corrupts itself mid-batch.
//
// Guard implements core.Engine; errors and degradations are surfaced on
// Result.Err and via LastError, and counted in Counters.
type Guard struct {
	inner   core.Engine
	factory func() core.Engine
	restore func([]byte) (core.Engine, error)
	san     *Sanitizer
	cnt     *stats.Counters

	wal        *SegmentedWAL
	auditEvery int
	ckptEvery  int
	ckptPath   string

	shadow *graph.Dynamic
	a      algo.Algorithm
	q      core.Query

	batches uint64 // sanitized batches applied since Reset
	snap    []byte // last good engine snapshot (nil until first checkpoint)
	snapAt  uint64 // batch count the snapshot covers
	since   [][]graph.Update
	lastErr error
}

// GuardOption configures a Guard.
type GuardOption func(*Guard)

// WithPolicy sets the sanitize policy (default PolicyDrop). Sanitization
// itself cannot be disabled: the guard's shadow topology (and a WAL replay
// after a crash) must only ever see well-formed updates.
func WithPolicy(p Policy) GuardOption {
	return func(g *Guard) { g.san = NewSanitizer(p, g.cnt) }
}

// WithAuditEvery audits the engine's invariants every n batches (0, the
// default, disables the audit).
func WithAuditEvery(n int) GuardOption {
	return func(g *Guard) { g.auditEvery = n }
}

// WithCheckpointEvery snapshots the engine every n batches (0 disables).
// Snapshots are kept in memory for fast rebuilds; pair with
// WithCheckpointFile to also persist them.
func WithCheckpointEvery(n int) GuardOption {
	return func(g *Guard) { g.ckptEvery = n }
}

// WithCheckpointFile atomically persists each periodic snapshot to path
// (temp-file + rename), enabling crash recovery via Recover.
func WithCheckpointFile(path string) GuardOption {
	return func(g *Guard) { g.ckptPath = path }
}

// WithWAL appends every sanitized batch to w (fsynced) as one record before
// it is applied. The caller keeps ownership of w (and closes it).
func WithWAL(w *SegmentedWAL) GuardOption {
	return func(g *Guard) { g.wal = w }
}

// WithEngineFactory sets the constructor used for ColdStart rebuilds. It
// must produce the same engine type as the wrapped one; the default builds
// core.NewCISO().
func WithEngineFactory(f func() core.Engine) GuardOption {
	return func(g *Guard) { g.factory = f }
}

// WithRestore sets the snapshot-restore function used for checkpoint
// rebuilds. The default decodes core.CISO checkpoints (core.LoadCISO).
func WithRestore(f func([]byte) (core.Engine, error)) GuardOption {
	return func(g *Guard) { g.restore = f }
}

// NewGuard wraps inner. With no options the guard sanitizes with
// PolicyDrop, recovers panics with ColdStart rebuilds, and neither audits
// nor checkpoints nor logs.
func NewGuard(inner core.Engine, opts ...GuardOption) *Guard {
	g := &Guard{
		inner:   inner,
		cnt:     stats.NewCounters(),
		factory: func() core.Engine { return core.NewCISO() },
		restore: func(b []byte) (core.Engine, error) { return core.LoadCISO(bytes.NewReader(b)) },
	}
	g.san = NewSanitizer(PolicyDrop, g.cnt)
	for _, o := range opts {
		o(g)
	}
	return g
}

// Name implements Engine.
func (g *Guard) Name() string { return "Guard(" + g.inner.Name() + ")" }

// Inner returns the currently wrapped engine (it changes on rebuilds).
func (g *Guard) Inner() core.Engine { return g.inner }

// LastError returns the most recent degradation (nil after a clean batch).
func (g *Guard) LastError() error { return g.lastErr }

// Batches returns the number of sanitized batches applied since Reset.
func (g *Guard) Batches() uint64 { return g.batches }

// Reset implements Engine: the guard clones gr as its shadow topology, arms
// the inner engine, and (when periodic checkpoints are enabled) takes the
// initial snapshot so recovery always has a baseline. A panic during the
// inner Reset is recovered with a factory rebuild.
func (g *Guard) Reset(gr *graph.Dynamic, a algo.Algorithm, q core.Query) {
	g.shadow = gr.Clone()
	g.a, g.q = a, q
	g.batches, g.snap, g.snapAt, g.since, g.lastErr = 0, nil, 0, nil, nil
	if err := safely(func() { g.inner.Reset(gr, a, q) }); err != nil {
		g.cnt.Inc(stats.CntPanicRecovered)
		g.rebuild()
		g.lastErr = err
	}
	if g.ckptEvery > 0 {
		if err := g.takeCheckpoint(); err != nil {
			g.lastErr = err
		}
	}
}

// Resume arms the guard around an already-warm engine — typically one
// returned by Recover — without resetting it. The guard adopts shadow (the
// topology the engine's state reflects) and counts batches from absorbed, so
// checkpoint positions stay aligned with a WAL the pre-crash run was
// appending to. When periodic checkpoints are enabled an immediate snapshot
// is taken, re-establishing the recovery baseline.
func (g *Guard) Resume(shadow *graph.Dynamic, a algo.Algorithm, q core.Query, absorbed uint64) {
	g.shadow = shadow.Clone()
	g.a, g.q = a, q
	g.batches, g.snap, g.snapAt, g.since, g.lastErr = absorbed, nil, 0, nil, nil
	if g.ckptEvery > 0 {
		if err := g.takeCheckpoint(); err != nil {
			g.lastErr = err
		}
	}
}

// ApplyBatch implements Engine: sanitize → log → apply under recovery →
// audit → checkpoint. A rejected batch (reject/strict policies) leaves all
// state untouched and returns the current answer with the rejection on Err.
func (g *Guard) ApplyBatch(batch []graph.Update) core.Result {
	before := g.cnt.Snapshot()
	clean, _, err := g.san.Sanitize(g.shadow, batch)
	if err != nil {
		g.lastErr = err
		res := core.Result{Answer: g.safeAnswer(), Err: err}
		res.SetCounters(g.cnt.Diff(before))
		return res
	}
	var walErr error
	if g.wal != nil {
		if _, walErr = g.wal.AppendRecords([]Record{{Batch: clean}}); walErr != nil {
			// Durability is lost but availability is preserved: surface the
			// failure on the result and keep serving.
			walErr = fmt.Errorf("resilience: wal append failed (batch applied without durability): %w", walErr)
		}
	}
	g.shadow.Apply(clean)
	g.batches++
	g.since = append(g.since, clean)

	res, panicErr := g.safeApply(clean)
	if panicErr != nil {
		g.cnt.Inc(stats.CntPanicRecovered)
		g.rebuild()
		res = core.Result{Answer: g.safeAnswer(), Err: fmt.Errorf("resilience: recovered: %w", panicErr)}
	}
	if g.auditEvery > 0 && g.batches%uint64(g.auditEvery) == 0 {
		if auditErr := g.audit(); auditErr != nil {
			g.cnt.Inc(stats.CntAuditFailed)
			g.rebuild()
			res.Err = joinNonNil(res.Err, fmt.Errorf("resilience: audit failed (engine rebuilt): %w", auditErr))
			res.Answer = g.safeAnswer()
		}
	}
	if g.ckptEvery > 0 && g.batches%uint64(g.ckptEvery) == 0 {
		if ckptErr := g.takeCheckpoint(); ckptErr != nil {
			res.Err = joinNonNil(res.Err, ckptErr)
		}
	}
	res.Err = joinNonNil(res.Err, walErr)
	// Fold the guard's own counter deltas (drops, recoveries) into the
	// batch result. Materialising the inner result's map is intentional
	// here: the guard is the caller that reads counters.
	guardDelta := g.cnt.Diff(before)
	var merged map[string]int64
	for k, v := range guardDelta {
		if v == 0 {
			continue
		}
		if merged == nil {
			merged = res.Counters()
			if merged == nil {
				merged = make(map[string]int64)
			}
		}
		merged[k] += v
	}
	if merged != nil {
		res.SetCounters(merged)
	}
	g.lastErr = res.Err
	return res
}

// Answer implements Engine.
func (g *Guard) Answer() algo.Value { return g.safeAnswer() }

// Counters implements Engine: a merged snapshot of the guard's own events
// (drops, recoveries) and the inner engine's counters. The returned set is
// a fresh copy — inner counters reset when the engine is rebuilt, so a live
// merged view cannot be maintained.
func (g *Guard) Counters() *stats.Counters {
	merged := stats.NewCounters()
	merged.AddAll(g.cnt)
	if err := safely(func() { merged.AddAll(g.inner.Counters()) }); err != nil {
		// A corrupt engine that panics in Counters still yields guard counts.
		_ = err
	}
	return merged
}

// GuardCounters exposes only the guard's own counters (live view).
func (g *Guard) GuardCounters() *stats.Counters { return g.cnt }

// safeApply runs the inner engine's ApplyBatch, converting a panic into an
// error.
func (g *Guard) safeApply(batch []graph.Update) (res core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine %s panicked in ApplyBatch: %v", g.inner.Name(), r)
		}
	}()
	return g.inner.ApplyBatch(batch), nil
}

func (g *Guard) safeAnswer() (v algo.Value) {
	defer func() { _ = recover() }()
	return g.inner.Answer()
}

// audit checks the inner engine's invariants (when it can). The check
// itself runs under recovery: a panic while auditing corrupt state is
// itself an audit failure.
func (g *Guard) audit() error {
	ic, ok := g.inner.(core.InvariantChecker)
	if !ok {
		return nil
	}
	var err error
	if perr := safely(func() { err = ic.CheckInvariants() }); perr != nil {
		return perr
	}
	return err
}

// takeCheckpoint snapshots the inner engine (when it can) into memory and,
// when configured, to the checkpoint file (atomically). Batches recorded
// in `since` are dropped — the snapshot covers them.
func (g *Guard) takeCheckpoint() error {
	s, ok := g.inner.(Saver)
	if !ok {
		return nil
	}
	var buf bytes.Buffer
	var err error
	if perr := safely(func() { err = s.Save(&buf) }); perr != nil {
		return fmt.Errorf("resilience: checkpoint: %w", perr)
	}
	if err != nil {
		return fmt.Errorf("resilience: checkpoint: %w", err)
	}
	g.snap = buf.Bytes()
	g.snapAt = g.batches
	g.since = g.since[:0]
	if g.ckptPath != "" {
		if err := WriteCheckpointMetaFS(OsFS{}, g.ckptPath, g.batches, 0, g.snap); err != nil {
			return fmt.Errorf("resilience: %w", err)
		}
	}
	return nil
}

// rebuild replaces the inner engine after a recovered panic or a failed
// audit. It prefers the last good snapshot plus a replay of the batches
// since (cheap, incremental); when that is unavailable or fails it falls
// back to a fresh engine fully recomputed on the shadow topology — which is
// always correct, because the shadow only ever absorbed sanitized batches.
func (g *Guard) rebuild() {
	if g.snap != nil && g.restore != nil {
		if e, err := g.restore(g.snap); err == nil && g.replayInto(e) {
			g.inner = e
			g.cnt.Inc(stats.CntRecoverCheckpoint)
			return
		}
	}
	e := g.factory()
	if err := safely(func() { e.Reset(g.shadow.Clone(), g.a, g.q) }); err == nil {
		g.inner = e
		g.cnt.Inc(stats.CntRecoverColdStart)
	}
	// A factory engine that panics during Reset leaves the previous inner
	// in place; lastErr keeps the degradation visible.
}

// replayInto replays the batches since the last snapshot into a freshly
// restored engine. Any panic during the replay abandons the attempt.
func (g *Guard) replayInto(e core.Engine) bool {
	for _, b := range g.since {
		if err := safely(func() { e.ApplyBatch(b) }); err != nil {
			return false
		}
	}
	return true
}

// safely runs f, converting a panic into an error.
func safely(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recovered panic: %v", r)
		}
	}()
	f()
	return nil
}

// joinNonNil combines two possibly-nil errors.
func joinNonNil(a, b error) error {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	default:
		return fmt.Errorf("%w; %w", a, b)
	}
}
