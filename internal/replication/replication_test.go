package replication

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
)

func frameBatch(i int) []graph.Update {
	return []graph.Update{graph.Add(uint32(i), uint32(i+1), float64(i)+0.5)}
}

func waitCond(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %s", msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Records round-trip through the tail's codec (resilience.AppendRecord,
// resilience.ReadRecord), and a stream of several decodes in order with a
// clean io.EOF at the end.
func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	for i := 0; i < 5; i++ {
		buf = resilience.AppendRecord(buf, resilience.Record{Index: uint64(i), Batch: frameBatch(i)})
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	var scratch []byte
	for i := 0; i < 5; i++ {
		rec, next, err := resilience.ReadRecord(br, scratch)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		scratch = next
		if rec.Index != uint64(i) || len(rec.Batch) != 1 || rec.Batch[0] != frameBatch(i)[0] {
			t.Fatalf("record %d decoded as %+v", i, rec)
		}
	}
	if _, _, err := resilience.ReadRecord(br, scratch); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// A truncated response tears the last record: the prefix decodes, the tear
// is io.ErrUnexpectedEOF (the tailer refetches), never a bogus record.
func TestFrameTornStream(t *testing.T) {
	var buf []byte
	buf = resilience.AppendRecord(buf, resilience.Record{Index: 0, Batch: frameBatch(0)})
	whole := len(buf)
	buf = resilience.AppendRecord(buf, resilience.Record{Index: 1, Batch: frameBatch(1)})
	for cut := whole + 1; cut < len(buf); cut++ {
		br := bufio.NewReader(bytes.NewReader(buf[:cut]))
		if _, _, err := resilience.ReadRecord(br, nil); err != nil {
			t.Fatalf("cut %d: first record: %v", cut, err)
		}
		if _, _, err := resilience.ReadRecord(br, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: torn record decoded with err=%v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// A flipped payload bit fails CRC verification — corruption is never applied.
func TestFrameCorruptPayload(t *testing.T) {
	buf := resilience.AppendRecord(nil, resilience.Record{Index: 3, Batch: frameBatch(3)})
	buf[len(buf)-1] ^= 0x40
	if _, _, err := resilience.ReadRecord(bufio.NewReader(bytes.NewReader(buf)), nil); !errors.Is(err, resilience.ErrBadRecord) {
		t.Fatalf("corrupt record decoded with err=%v, want ErrBadRecord", err)
	}
}

// tailFixture is a leader WAL + Source behind an httptest server.
type tailFixture struct {
	wal *resilience.SegmentedWAL
	srv *httptest.Server
}

func newTailFixture(t *testing.T) *tailFixture {
	t.Helper()
	wal, err := resilience.OpenSegmentedWAL(filepath.Join(t.TempDir(), "wal"), resilience.SegWALOptions{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	src := &Source{WAL: wal, LongPoll: 150 * time.Millisecond}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PathTail, src.ServeTail)
	mux.HandleFunc("GET "+PathSegments, src.ServeSegments)
	srv := httptest.NewServer(mux)
	t.Cleanup(func() { srv.Close(); wal.Close() })
	return &tailFixture{wal: wal, srv: srv}
}

func (f *tailFixture) append(t *testing.T, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if _, err := f.wal.AppendRecords([]resilience.Record{{Batch: frameBatch(i)}}); err != nil {
			t.Fatal(err)
		}
	}
}

// The tailer streams existing records, then picks up new ones through the
// long poll, applying everything strictly in order.
func TestTailerStreamsAndFollows(t *testing.T) {
	f := newTailFixture(t)
	f.append(t, 0, 10)

	var mu sync.Mutex
	var got []uint64
	tail := NewTailer(TailerConfig{Leader: f.srv.URL, LongPoll: 150 * time.Millisecond,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond, Seed: 1})
	tail.Apply = func(rec resilience.Record) error {
		mu.Lock()
		got = append(got, rec.Index)
		mu.Unlock()
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); tail.Run(ctx, 0) }()

	waitCond(t, 5*time.Second, func() bool { return tail.Records.Load() == 10 }, "initial 10 records")
	f.append(t, 10, 5)
	waitCond(t, 5*time.Second, func() bool { return tail.Records.Load() == 15 }, "long-polled 5 more")
	cancel()
	<-done

	mu.Lock()
	defer mu.Unlock()
	for i, idx := range got {
		if idx != uint64(i) {
			t.Fatalf("applied order broken at %d: got index %d", i, idx)
		}
	}
}

// A dropped link mid-stream forces reconnects with backoff; after heal the
// tailer resumes from the first unapplied record with no gaps or repeats.
func TestTailerSurvivesPartition(t *testing.T) {
	f := newTailFixture(t)
	f.append(t, 0, 6)

	proxy, err := NewProxy(f.srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	var applied []uint64
	tail := NewTailer(TailerConfig{Leader: "http://" + proxy.Addr(), LongPoll: 100 * time.Millisecond,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 30 * time.Millisecond, Seed: 7})
	var mu sync.Mutex
	tail.Apply = func(rec resilience.Record) error {
		mu.Lock()
		applied = append(applied, rec.Index)
		mu.Unlock()
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); tail.Run(ctx, 0) }()
	waitCond(t, 5*time.Second, func() bool { return tail.Records.Load() == 6 }, "pre-partition records")

	proxy.Drop()
	f.append(t, 6, 4) // records land while the link is down
	waitCond(t, 5*time.Second, func() bool { return tail.Reconnects.Load() > 0 }, "reconnect attempts during drop")
	if tail.Records.Load() != 6 {
		t.Fatalf("records advanced to %d during partition", tail.Records.Load())
	}
	proxy.Heal()
	waitCond(t, 5*time.Second, func() bool { return tail.Records.Load() == 10 }, "catch-up after heal")
	cancel()
	<-done

	mu.Lock()
	defer mu.Unlock()
	if len(applied) != 10 {
		t.Fatalf("%d records applied, want 10 (no gaps, no repeats)", len(applied))
	}
	for i, idx := range applied {
		if idx != uint64(i) {
			t.Fatalf("order broken at %d: index %d", i, idx)
		}
	}
}

// Retention deleting records the follower still needs answers 410; the
// tailer must invoke Rebootstrap and resume from the returned index.
func TestTailerRetentionRaceRebootstraps(t *testing.T) {
	f := newTailFixture(t)
	f.append(t, 0, 8)
	if _, err := f.wal.TruncateThrough(6); err != nil {
		t.Fatal(err)
	}

	var rebooted atomic.Bool
	tail := NewTailer(TailerConfig{Leader: f.srv.URL, LongPoll: 100 * time.Millisecond,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 30 * time.Millisecond, Seed: 3})
	tail.Apply = func(rec resilience.Record) error { return nil }
	tail.Rebootstrap = func() (uint64, error) {
		rebooted.Store(true)
		return f.wal.OldestIndex(), nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); tail.Run(ctx, 0) }() // 0 was compacted
	waitCond(t, 5*time.Second, func() bool { return rebooted.Load() }, "rebootstrap on 410")
	waitCond(t, 5*time.Second, func() bool { return tail.Records.Load() >= 2 }, "resume from rebootstrap index")
	if tail.Rebootstraps.Load() == 0 {
		t.Error("Rebootstraps counter not incremented")
	}
	cancel()
	<-done
}

// A follower ahead of the leader's log (leader wiped/restarted behind it)
// gets 409 and must also re-bootstrap rather than wait forever.
func TestTailerAheadOfLeaderRebootstraps(t *testing.T) {
	f := newTailFixture(t)
	f.append(t, 0, 3)

	var rebooted atomic.Bool
	tail := NewTailer(TailerConfig{Leader: f.srv.URL, LongPoll: 50 * time.Millisecond,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 20 * time.Millisecond, Seed: 5})
	tail.Apply = func(rec resilience.Record) error { return nil }
	tail.Rebootstrap = func() (uint64, error) {
		rebooted.Store(true)
		return 3, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); tail.Run(ctx, 99) }()
	waitCond(t, 5*time.Second, func() bool { return rebooted.Load() }, "rebootstrap on 409")
	cancel()
	<-done
}

// The proxy relays bytes faithfully, severs on Drop, and accepts again
// after Heal.
func TestProxyDropHeal(t *testing.T) {
	// Plain TCP echo upstream.
	up, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	go func() {
		for {
			c, err := up.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { io.Copy(c, c); c.Close() }(c)
		}
	}()

	proxy, err := NewProxy(up.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	echo := func() error {
		c, err := net.DialTimeout("tcp", proxy.Addr(), time.Second)
		if err != nil {
			return err
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(time.Second))
		if _, err := c.Write([]byte("ping")); err != nil {
			return err
		}
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err != nil {
			return err
		}
		if string(buf) != "ping" {
			return errors.New("echo mismatch")
		}
		return nil
	}
	if err := echo(); err != nil {
		t.Fatalf("healthy relay: %v", err)
	}
	proxy.Drop()
	if err := echo(); err == nil {
		t.Fatal("echo succeeded through a dropped link")
	}
	proxy.Heal()
	if err := echo(); err != nil {
		t.Fatalf("relay after heal: %v", err)
	}
	if proxy.Drops() != 1 {
		t.Fatalf("Drops=%d, want 1", proxy.Drops())
	}
}
