package resilience

import (
	"os"
	"path/filepath"
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/stream"
)

// TestKillAndRecover is the resilience layer's end-to-end acceptance test:
//
//  1. run CISO under a Guard with WAL + periodic persistent checkpoints over
//     a FAULTY injected stream (corrupt/duplicate/reorder faults, plus one
//     injected engine panic mid-run);
//  2. "crash" mid-stream: abandon the guard without any graceful shutdown
//     and corrupt the WAL tail the way a torn write would;
//  3. recover from the latest checkpoint plus the WAL suffix;
//  4. continue the recovered run to the end of the stream and assert the
//     final answer is bit-identical to an unguarded CISO over the
//     equivalent clean stream.
func TestKillAndRecover(t *testing.T) {
	const (
		total   = 12 // batches in the whole stream
		crashAt = 7  // batches applied before the crash
	)
	el := graph.Uniform("recov", 160, 1100, 8, 33)
	w, err := stream.New(el, stream.Config{LoadFraction: 0.5, AddsPerBatch: 30, DelsPerBatch: 30, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	pairs := w.QueryPairsConnected(1)
	if len(pairs) == 0 {
		t.Fatal("no connected query pair")
	}
	q := core.Query{S: pairs[0][0], D: pairs[0][1]}
	init := w.Initial()
	batches := w.Batches(total)
	n := init.NumVertices()

	// Reference: unguarded CISO over the clean stream.
	ref := core.NewCISO()
	ref.Reset(init.Clone(), algo.PPSP{}, q)
	refAns := make([]algo.Value, total)
	for i, b := range batches {
		refAns[i] = ref.ApplyBatch(b).Answer
	}

	dir := t.TempDir()
	walPath := filepath.Join(dir, "stream.wal")
	ckptPath := filepath.Join(dir, "guard.ckpt")

	// Phase 1: guarded run over the faulty stream, dies after crashAt batches.
	wal, err := CreateSegmentedWAL(walPath, SegWALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(InjectorConfig{Seed: 77, CorruptP: 0.4, DupP: 0.3, ReorderP: 0.5})
	pa := NewPanicAlgorithm(algo.PPSP{})
	g := NewGuard(core.NewCISO(),
		WithWAL(wal),
		WithAuditEvery(2),
		WithCheckpointEvery(3),
		WithCheckpointFile(ckptPath))
	g.Reset(init.Clone(), pa, q)
	for i := 0; i < crashAt; i++ {
		if i == 4 {
			pa.Arm(1) // engine panic mid-run; the guard must absorb it
		}
		res := g.ApplyBatch(inj.Mangle(n, batches[i]))
		if res.Answer != refAns[i] {
			t.Fatalf("pre-crash batch %d: answer %v, clean %v", i, res.Answer, refAns[i])
		}
	}
	if pa.Fired() != 1 {
		t.Fatal("injected panic did not fire pre-crash")
	}
	// CRASH: no Close, no final checkpoint. Simulate a torn append the way a
	// power cut mid-write would leave it.
	if f, err := os.OpenFile(lastSegment(t, walPath), os.O_APPEND|os.O_WRONLY, 0o644); err == nil {
		f.Write([]byte{7, 0, 0, 0, 0, 0})
		f.Close()
	}
	g, wal = nil, nil

	// Phase 2: recover. The checkpoint covers batches 0..5 (every 3), the WAL
	// holds all 7, so recovery must replay exactly the suffix 6.
	eng, through, err := Recover(RecoveryConfig{
		WALPath:        walPath,
		CheckpointPath: ckptPath,
		Init: func() (*graph.Dynamic, algo.Algorithm, core.Query) {
			return init.Clone(), algo.PPSP{}, q
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if through != crashAt {
		t.Fatalf("recovered through %d batches, want %d", through, crashAt)
	}
	if got := eng.Answer(); got != refAns[crashAt-1] {
		t.Fatalf("post-recovery answer %v, want %v (clean run at batch %d)", got, refAns[crashAt-1], crashAt-1)
	}

	// Phase 3: continue the recovered run — reopen the WAL (torn tail is
	// truncated), wrap the engine in a fresh guard, keep injecting faults.
	wal2, err := OpenSegmentedWAL(walPath, SegWALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if wal2.NextIndex() != crashAt {
		t.Fatalf("reopened WAL next index %d, want %d", wal2.NextIndex(), crashAt)
	}
	// The recovered engine has already absorbed `through` batches; rebuild
	// the matching shadow topology and resume a guard around the live engine
	// (Reset would re-arm it from scratch and lose the recovered state).
	shadow := init.Clone()
	for _, b := range batches[:crashAt] {
		shadow.Apply(b)
	}
	g3 := NewGuard(eng, WithWAL(wal2), WithAuditEvery(2))
	g3.Resume(shadow, algo.PPSP{}, q, through)
	inj2 := NewInjector(InjectorConfig{Seed: 78, CorruptP: 0.4, DupP: 0.3, ReorderP: 0.5})
	var final algo.Value
	for i := crashAt; i < total; i++ {
		res := g3.ApplyBatch(inj2.Mangle(n, batches[i]))
		if res.Err != nil {
			t.Fatalf("post-recovery batch %d: %v", i, res.Err)
		}
		if res.Answer != refAns[i] {
			t.Fatalf("post-recovery batch %d: answer %v, clean %v", i, res.Answer, refAns[i])
		}
		final = res.Answer
	}
	if final != refAns[total-1] {
		t.Fatalf("final answer %v, want %v (bit-identical to clean run)", final, refAns[total-1])
	}

	// The WAL now logs the entire stream: a second crash right here could
	// replay everything.
	recs, err := ReplaySegmented(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != total {
		t.Fatalf("WAL holds %d records, want %d", len(recs), total)
	}
}

// TestRecoverWithoutCheckpoint exercises the degradation path: the
// checkpoint is lost (deleted), so recovery must replay the whole WAL from
// the initial snapshot.
func TestRecoverWithoutCheckpoint(t *testing.T) {
	init, batches, q := guardWorkload(t, 5)
	dir := t.TempDir()
	walPath := filepath.Join(dir, "stream.wal")

	wal, err := CreateSegmentedWAL(walPath, SegWALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGuard(core.NewCISO(), WithWAL(wal))
	g.Reset(init.Clone(), algo.PPSP{}, q)
	var want algo.Value
	for _, b := range batches {
		want = g.ApplyBatch(b).Answer
	}
	wal.Close()

	eng, through, err := Recover(RecoveryConfig{
		WALPath:        walPath,
		CheckpointPath: filepath.Join(dir, "never-written.ckpt"),
		Init: func() (*graph.Dynamic, algo.Algorithm, core.Query) {
			return init.Clone(), algo.PPSP{}, q
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if through != uint64(len(batches)) {
		t.Fatalf("through=%d want %d", through, len(batches))
	}
	if eng.Answer() != want {
		t.Fatalf("full-replay answer %v, want %v", eng.Answer(), want)
	}
}

// TestRecoverCorruptCheckpointFallsBack bit-flips the checkpoint: recovery
// must reject it and fall back to Init + full WAL replay, still landing on
// the right answer.
func TestRecoverCorruptCheckpointFallsBack(t *testing.T) {
	init, batches, q := guardWorkload(t, 6)
	dir := t.TempDir()
	walPath := filepath.Join(dir, "stream.wal")
	ckptPath := filepath.Join(dir, "guard.ckpt")

	wal, err := CreateSegmentedWAL(walPath, SegWALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGuard(core.NewCISO(), WithWAL(wal), WithCheckpointEvery(2), WithCheckpointFile(ckptPath))
	g.Reset(init.Clone(), algo.PPSP{}, q)
	var want algo.Value
	for _, b := range batches {
		want = g.ApplyBatch(b).Answer
	}
	wal.Close()

	data, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(ckptPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	eng, through, err := Recover(RecoveryConfig{
		WALPath:        walPath,
		CheckpointPath: ckptPath,
		Init: func() (*graph.Dynamic, algo.Algorithm, core.Query) {
			return init.Clone(), algo.PPSP{}, q
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if through != uint64(len(batches)) || eng.Answer() != want {
		t.Fatalf("fallback recovery: through=%d answer=%v want=%v", through, eng.Answer(), want)
	}
}
