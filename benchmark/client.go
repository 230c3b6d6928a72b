package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"cisgraph/internal/graph"
	"cisgraph/internal/server"
)

// sample is one completed operation: when it completed and how long it took,
// both in nanoseconds (at is relative to the run's epoch).
type sample struct{ at, lat int64 }

// opLog collects samples and failures of one client role. It is written by
// one goroutine and read after that goroutine has ended.
type opLog struct {
	samples   []sample
	attempted int
	failed    int
	firstErr  error
}

func (l *opLog) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// window returns the latencies of the samples completed in [from, to).
func (l *opLog) window(from, to int64) []int64 {
	var out []int64
	for _, s := range l.samples {
		if s.at >= from && s.at < to {
			out = append(out, s.lat)
		}
	}
	return out
}

// stopRule tells a writer when to stop: keep sending until `until`, then top
// up so the stream ends at a fixed offset past a checkpoint boundary — the
// restore that follows then replays the same number of records on every run.
// Positions are in the daemon's own unit (updates on the binary path, batches
// on the JSON path).
type stopRule struct {
	until     time.Time
	ckptEvery uint64
	residue   uint64
	exact     uint64 // when set, stop at exactly this position instead
}

func (r stopRule) done(pos uint64, now time.Time) bool {
	if r.exact > 0 {
		return pos >= r.exact
	}
	if now.Before(r.until) {
		return false
	}
	if r.ckptEvery == 0 {
		return true
	}
	return pos >= r.ckptEvery+r.residue && pos%r.ckptEvery == r.residue
}

// binWriter drives one CGBIN/2 session. sent is the acked-stream log the
// correctness gate replays: every update is appended before it is written.
type binWriter struct {
	addr   string
	sid    uint64
	frame  int
	epoch  time.Time
	gen    *Churn
	sent   []graph.Update
	acks   opLog
	late   []int64 // open loop only: send time minus due time, ns
	maxLag int     // open loop only: most frames ever unacked at once
	endLag int     // open loop only: frames unacked when the schedule ended
}

// pendingFrame is what the ack reader needs to time one frame.
type pendingFrame struct {
	t0 int64 // ns since epoch: when the frame's latency starts counting
	n  uint32
}

// run sends frames until rule says stop and returns once every frame is
// acked. window bounds unacked frames (closed loop). With interval > 0 the
// writer is open loop: frame i is due at start + i×interval regardless of
// acks, and window only bounds memory. A frame that falls due while the one
// before it is still being written is timed from its due time — the wait a
// stall imposes on later frames; one the writer slept for is timed from when
// it woke, so that the generator's own timer overshoot (reported as late) is
// not charged to the daemon.
func (w *binWriter) run(window int, interval time.Duration, rule stopRule) error {
	conn, err := net.Dial("tcp", w.addr)
	if err != nil {
		return fmt.Errorf("binary dial: %w", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(server.BinHello2)); err != nil {
		return fmt.Errorf("binary hello: %w", err)
	}
	// inflight is the FIFO of send times the ack reader pops (acks arrive in
	// frame order); slots is the window: taken before a frame is written,
	// returned when its ack has been read.
	inflight := make(chan pendingFrame, window)
	slots := make(chan struct{}, window)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		br := bufio.NewReaderSize(conn, 16<<10)
		for p := range inflight {
			ack, err := server.ReadBinAck(br)
			now := time.Since(w.epoch).Nanoseconds()
			w.acks.attempted++
			switch {
			case err != nil:
				w.acks.fail(fmt.Errorf("read ack: %w", err))
				<-slots
				for range inflight { // unblock the sender; the rest are lost
					w.acks.attempted++
					w.acks.failed++
					<-slots
				}
				return
			case ack.Status != server.BinStatusOK || ack.Accepted != p.n:
				w.acks.fail(fmt.Errorf("ack status %d accepted %d of %d", ack.Status, ack.Accepted, p.n))
			default:
				w.acks.samples = append(w.acks.samples, sample{at: now, lat: now - p.t0})
			}
			<-slots
		}
	}()

	bw := bufio.NewWriterSize(conn, 64<<10)
	var buf []byte
	seq := uint64(1)
	start := time.Now()
	var sendErr error
	for i := 0; ; i++ {
		now := time.Now()
		if rule.done(seq-1, now) {
			break
		}
		t0 := now
		if interval > 0 {
			due := start.Add(time.Duration(i) * interval)
			if d := due.Sub(now); d > 0 {
				time.Sleep(d)
				t0 = time.Now()
			} else {
				t0 = due
			}
			w.late = append(w.late, time.Since(due).Nanoseconds())
			if n := len(slots); n > w.maxLag {
				w.maxLag = n
			}
		}
		slots <- struct{}{}
		from := len(w.sent)
		w.sent = w.gen.Fill(w.sent, w.frame)
		buf = server.AppendBinFrameSession(buf[:0], w.sid, seq, w.sent[from:])
		seq += uint64(w.frame)
		inflight <- pendingFrame{t0: t0.Sub(w.epoch).Nanoseconds(), n: uint32(w.frame)}
		if _, err := bw.Write(buf); err == nil {
			err = bw.Flush()
		}
		if err != nil {
			sendErr = fmt.Errorf("binary write: %w", err)
			break
		}
	}
	w.endLag = len(slots)
	close(inflight)
	wg.Wait()
	if sendErr != nil {
		return sendErr
	}
	return w.acks.firstErr
}

// jsonWriter posts fixed-size bodies to /v1/updates, at most maxAhead bodies
// ahead of what the daemon has applied.
type jsonWriter struct {
	base     string
	body     int
	maxAhead uint64
	epoch    time.Time
	gen      *Churn
	sent     []graph.Update
	posts    opLog
}

type updateWire struct {
	Op   string  `json:"op"`
	From uint32  `json:"from"`
	To   uint32  `json:"to"`
	W    float64 `json:"w"`
}

func encodeUpdatesJSON(buf *bytes.Buffer, ups []graph.Update) error {
	wire := make([]updateWire, len(ups))
	for i, u := range ups {
		op := "add"
		if u.Del {
			op = "del"
		}
		wire[i] = updateWire{Op: op, From: u.From, To: u.To, W: u.W}
	}
	buf.Reset()
	return json.NewEncoder(buf).Encode(struct {
		Updates []updateWire `json:"updates"`
	}{wire})
}

func (w *jsonWriter) run(c *http.Client, rule stopRule) error {
	var buf bytes.Buffer
	var posted, applied uint64
	for {
		if rule.done(posted, time.Now()) {
			return w.posts.firstErr
		}
		for posted-applied >= w.maxAhead {
			var h healthz
			if err := getJSON(c, w.base+"/healthz", &h); err != nil {
				return fmt.Errorf("poll position: %w", err)
			}
			if applied = h.Batches; posted-applied >= w.maxAhead {
				time.Sleep(time.Millisecond)
			}
		}
		from := len(w.sent)
		w.sent = w.gen.Fill(w.sent, w.body)
		if err := encodeUpdatesJSON(&buf, w.sent[from:]); err != nil {
			return err
		}
		t0 := time.Now()
		resp, err := c.Post(w.base+"/v1/updates", "application/json", bytes.NewReader(buf.Bytes()))
		w.posts.attempted++
		if err != nil {
			return fmt.Errorf("POST /v1/updates: %w", err)
		}
		var ur struct {
			Accepted int `json:"accepted"`
			Pending  int `json:"pending"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&ur)
		resp.Body.Close()
		now := time.Now()
		if resp.StatusCode != http.StatusAccepted || derr != nil || ur.Accepted != w.body {
			// The stream is no longer the one the gate can replay: stop.
			w.posts.fail(fmt.Errorf("POST /v1/updates: status %d accepted %d of %d (%v)", resp.StatusCode, ur.Accepted, w.body, derr))
			return w.posts.firstErr
		}
		w.posts.samples = append(w.posts.samples, sample{at: now.Sub(w.epoch).Nanoseconds(), lat: now.Sub(t0).Nanoseconds()})
		posted++
		// Everything the daemon still queues is unapplied; so may be the cut
		// batch waiting for the applier and the one it is working on.
		if ahead := uint64(ur.Pending/w.body) + 2; ahead < posted-applied {
			applied = posted - ahead
		}
	}
}

// answersWire is the /v1/answers body.
type answersWire struct {
	Batches  uint64 `json:"batches"`
	Quiesced bool   `json:"quiesced"`
	Answers  []struct {
		ID    int              `json:"id"`
		S     uint32           `json:"s"`
		D     uint32           `json:"d"`
		Value server.WireValue `json:"value"`
	} `json:"answers"`
}

func getAnswers(c *http.Client, base string) (*answersWire, error) {
	var a answersWire
	if err := getJSON(c, base+"/v1/answers", &a); err != nil {
		return nil, err
	}
	return &a, nil
}

// pacedReader issues GET /v1/answers on a fixed schedule until ctx ends. A
// read that falls due while the one before it is still in flight is timed from
// its due time; one the reader slept for is timed from when it woke (the same
// rule as the paced writer's).
func pacedReader(ctx context.Context, c *http.Client, base string, epoch time.Time, every time.Duration, log *opLog) {
	start := time.Now()
	for i := 0; ; i++ {
		t0 := start.Add(time.Duration(i) * every)
		if d := time.Until(t0); d > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(d):
			}
			t0 = time.Now()
		} else if ctx.Err() != nil {
			return
		}
		log.attempted++
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/answers", nil)
		if err != nil {
			log.fail(err)
			return
		}
		resp, err := c.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				log.attempted-- // cancelled mid-flight: not an operation
				return
			}
			log.fail(err)
			continue
		}
		_, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		now := time.Now()
		if cerr != nil && ctx.Err() != nil {
			log.attempted-- // cancelled while the body was in flight
			return
		}
		if resp.StatusCode != http.StatusOK || cerr != nil {
			log.fail(fmt.Errorf("GET /v1/answers: status %d (%v)", resp.StatusCode, cerr))
			continue
		}
		log.samples = append(log.samples, sample{at: now.Sub(epoch).Nanoseconds(), lat: now.Sub(t0).Nanoseconds()})
	}
}

// watcher is one receive-only SSE subscriber. It folds deltas into a view of
// the answer table and times each delta from the commit stamp the daemon put
// in it (same host, same clock).
type watcher struct {
	mu     sync.Mutex
	view   map[int]float64
	pos    uint64 // position of the last event folded in
	deltas opLog
}

type watchEventWire struct {
	Pos     uint64 `json:"pos"`
	Ts      int64  `json:"ts"`
	Resync  bool   `json:"resync"`
	Changed []struct {
		ID    int              `json:"id"`
		Value server.WireValue `json:"value"`
	} `json:"changed"`
}

// run keeps a subscription open until ctx is cancelled or the daemon says
// bye. cisgraphd's HTTP write timeout ends every stream after some seconds,
// so a long-lived subscriber must resume: it reconnects with ?from=<last
// position> and, when told it missed commits, re-reads /v1/answers, as the
// watch contract prescribes. ready is closed once the first subscription is
// registered.
func (w *watcher) run(ctx context.Context, c *http.Client, base string, epoch time.Time, ready chan<- struct{}) {
	var once sync.Once
	signal := func() { once.Do(func() { close(ready) }) }
	defer signal()
	for ctx.Err() == nil {
		if bye := w.stream(ctx, c, base, epoch, signal); bye || w.deltas.firstErr != nil {
			return
		}
	}
}

// stream runs one SSE connection; it returns true on the daemon's bye.
func (w *watcher) stream(ctx context.Context, c *http.Client, base string, epoch time.Time, subscribed func()) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/watch?from="+strconv.FormatUint(w.pos, 10), nil)
	if err != nil {
		w.deltas.fail(err)
		return false
	}
	resp, err := c.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			w.deltas.fail(err)
		}
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.deltas.fail(fmt.Errorf("GET /v1/watch: status %d", resp.StatusCode))
		return false
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	typ := ""
	for sc.Scan() {
		line := sc.Text()
		if t, ok := strings.CutPrefix(line, "event: "); ok {
			typ = t
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		now := time.Now()
		var ev watchEventWire
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			// A stream cut mid-event (the daemon's write timeout, or our own
			// cancellation) ends in a torn line: resume like any other cut.
			// The resume re-reads the answers, and the final view check
			// catches anything a genuinely bad event would have hidden.
			return false
		}
		switch typ {
		case "delta":
			w.mu.Lock()
			w.deltas.attempted++
			w.deltas.samples = append(w.deltas.samples, sample{at: now.Sub(epoch).Nanoseconds(), lat: now.UnixNano() - ev.Ts})
			for _, ch := range ev.Changed {
				w.view[ch.ID] = float64(ch.Value)
			}
			w.pos = ev.Pos
			w.mu.Unlock()
		case "init", "resync":
			if typ == "resync" {
				// A slow-consumer gap on a receive-only subscriber is a failed
				// delivery; the view is rebuilt below all the same.
				w.deltas.attempted++
				w.deltas.fail(fmt.Errorf("watch resync at position %d", ev.Pos))
			}
			if ev.Resync {
				ans, err := getAnswers(c, base)
				if err != nil {
					if ctx.Err() == nil {
						w.deltas.fail(fmt.Errorf("watch resync re-read: %w", err))
					}
					return false
				}
				w.mu.Lock()
				w.view = answerMap(ans)
				w.mu.Unlock()
			}
			w.mu.Lock()
			w.pos = ev.Pos
			w.mu.Unlock()
			subscribed()
		case "bye":
			return true
		}
	}
	return false
}

// agrees reports whether every answer the subscriber heard about equals the
// polled table.
func (w *watcher) agrees(want map[int]float64) (int, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, v := range w.view {
		if wv, ok := want[id]; !ok || wv != v {
			return len(w.view), false
		}
	}
	return len(w.view), true
}
