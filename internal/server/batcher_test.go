package server

import (
	"errors"
	"sync"
	"testing"
	"time"

	"cisgraph/internal/graph"
)

// collector records applied batches for assertions.
type collector struct {
	mu      sync.Mutex
	batches [][]graph.Update
	reasons []CutReason
	block   chan struct{} // non-nil: apply waits here before returning
	entered chan struct{} // signalled when apply is invoked
}

func newCollector() *collector {
	return &collector{entered: make(chan struct{}, 64)}
}

func (c *collector) apply(batch []graph.Update, reason CutReason) {
	select {
	case c.entered <- struct{}{}:
	default:
	}
	if c.block != nil {
		<-c.block
	}
	c.mu.Lock()
	c.batches = append(c.batches, batch)
	c.reasons = append(c.reasons, reason)
	c.mu.Unlock()
}

func (c *collector) snapshot() ([][]graph.Update, []CutReason) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]graph.Update(nil), c.batches...), append([]CutReason(nil), c.reasons...)
}

func ups(n int, from uint32) []graph.Update {
	out := make([]graph.Update, n)
	for i := range out {
		out[i] = graph.Add(from, uint32(i+1), 1)
	}
	return out
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// A full window must cut immediately by size, without waiting for the timer.
func TestBatcherCutBySize(t *testing.T) {
	c := newCollector()
	b := NewBatcher(8, time.Hour, 1024, c.apply)
	defer b.Drain()

	if err := b.Offer(ups(20, 0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		got, _ := c.snapshot()
		return len(got) >= 2
	}, "two size cuts")
	got, reasons := c.snapshot()
	for i := 0; i < 2; i++ {
		if len(got[i]) != 8 {
			t.Errorf("batch %d: len=%d, want full window 8", i, len(got[i]))
		}
		if reasons[i] != CutSize {
			t.Errorf("batch %d: reason=%v, want size", i, reasons[i])
		}
	}
	// The 4-update remainder stays in the window (timer is 1h).
	if b.Quiesced() {
		t.Error("quiesced with a partial window pending")
	}
	if p := b.Pending(); p != 4 {
		t.Errorf("pending=%d, want remainder 4", p)
	}
}

// A partial window must cut when the wait timer fires.
func TestBatcherCutByTimer(t *testing.T) {
	c := newCollector()
	b := NewBatcher(1000, 20*time.Millisecond, 1024, c.apply)
	defer b.Drain()

	if err := b.Offer(ups(5, 0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		got, _ := c.snapshot()
		return len(got) == 1
	}, "timer cut")
	got, reasons := c.snapshot()
	if len(got[0]) != 5 || reasons[0] != CutTimer {
		t.Fatalf("got len=%d reason=%v, want 5 updates cut by timer", len(got[0]), reasons[0])
	}
	waitFor(t, 2*time.Second, b.Quiesced, "quiesce after timer cut")
}

// Delayed-work overlap: while batch N is still inside apply (the engine's
// delayed-deletion phase included), the gather loop must keep accepting and
// cut batch N+1 so it is ready the moment the applier frees up.
func TestBatcherOverlapAcrossBatches(t *testing.T) {
	c := newCollector()
	c.block = make(chan struct{})
	b := NewBatcher(4, time.Hour, 1024, c.apply)
	defer b.Drain()

	// Batch 1 cuts by size and parks inside apply.
	if err := b.Offer(ups(4, 0)); err != nil {
		t.Fatal(err)
	}
	<-c.entered

	// While it is being applied, the next window gathers and cuts.
	if err := b.Offer(ups(4, 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return b.Pending() == 0 }, "batch 2 cut during batch 1 apply")
	if got, _ := c.snapshot(); len(got) != 0 {
		t.Fatalf("apply completed while blocked: %d batches", len(got))
	}
	// And gathering continues beyond the cut: batch 3 accumulates in the
	// window while batches 1 and 2 occupy the applier and the hand-off slot.
	if err := b.Offer(ups(2, 2)); err != nil {
		t.Fatal(err)
	}

	close(c.block)
	b.Drain()
	got, reasons := c.snapshot()
	if len(got) != 3 {
		t.Fatalf("applied %d batches, want 3", len(got))
	}
	if len(got[0]) != 4 || len(got[1]) != 4 || len(got[2]) != 2 {
		t.Errorf("batch sizes %d/%d/%d, want 4/4/2", len(got[0]), len(got[1]), len(got[2]))
	}
	if got[0][0].From != 0 || got[1][0].From != 1 || got[2][0].From != 2 {
		t.Error("batches applied out of cut order")
	}
	if reasons[2] != CutDrain {
		t.Errorf("final partial window cut by %v, want drain", reasons[2])
	}
}

func TestBatcherRejectWhenFull(t *testing.T) {
	c := newCollector()
	c.block = make(chan struct{})
	defer close(c.block)
	b := NewBatcher(4, time.Hour, 8, c.apply)

	if err := b.Offer(ups(8, 0)); err != nil {
		t.Fatal(err)
	}
	// The first size cut moves 4 into the hand-off; wait so capacity checks
	// see a stable queue, then fill it back up.
	<-c.entered
	waitFor(t, 2*time.Second, func() bool { return b.Pending() <= 4 }, "first cut")
	if err := b.Offer(ups(b.cap-b.Pending(), 1)); err != nil {
		t.Fatal(err)
	}
	full := b.Pending()
	if err := b.Offer(ups(1, 2)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("offer over capacity: err=%v, want ErrQueueFull", err)
	}
	// Refusing leaves every accepted update queued.
	if p := b.Pending(); p != full {
		t.Fatalf("pending %d after a refused offer, want %d", p, full)
	}
}

func TestBatcherDrainFlushesAndRejects(t *testing.T) {
	c := newCollector()
	b := NewBatcher(1000, time.Hour, 1024, c.apply)

	if err := b.Offer(ups(7, 0)); err != nil {
		t.Fatal(err)
	}
	b.Drain()
	got, reasons := c.snapshot()
	if len(got) != 1 || len(got[0]) != 7 || reasons[0] != CutDrain {
		t.Fatalf("drain flush: %d batches, want one 7-update drain cut", len(got))
	}
	if !b.Quiesced() {
		t.Error("not quiesced after drain")
	}
	if err := b.Offer(ups(1, 0)); !errors.Is(err, ErrDraining) {
		t.Fatalf("offer after drain: err=%v, want ErrDraining", err)
	}
	b.Drain() // idempotent
}
