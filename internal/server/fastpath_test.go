package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
)

// binTestClient is a minimal CGBIN/2 client for tests: one frame in flight
// at a time unless the test pipelines explicitly. Every connection is its own
// session, numbering its updates from 1.
type binTestClient struct {
	t        *testing.T
	conn     net.Conn
	br       *bufio.Reader
	buf      []byte
	sid, seq uint64
}

// testSessions hands every test connection a distinct session id.
var testSessions atomic.Uint64

func dialBinary(t *testing.T, srv *Server) (*binTestClient, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeBinary(ln)
	conns := srv.Counters().Get(CntBinConns)
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte(BinHello2)); err != nil {
		t.Fatal(err)
	}
	// The close func also closes the listener, which resets a connection
	// still waiting in its backlog: return only once the server has
	// accepted this one, so no frame sent on it can vanish unread.
	waitFor(t, 10*time.Second, func() bool { return srv.Counters().Get(CntBinConns) > conns },
		"the server to accept the binary connection")
	cl := &binTestClient{t: t, conn: c, br: bufio.NewReader(c), sid: testSessions.Add(1), seq: 1}
	return cl, func() { c.Close(); ln.Close() }
}

func (c *binTestClient) send(ups []graph.Update) {
	c.t.Helper()
	c.buf = AppendBinFrameSession(c.buf[:0], c.sid, c.seq, ups)
	c.seq += uint64(len(ups))
	if _, err := c.conn.Write(c.buf); err != nil {
		c.t.Fatal(err)
	}
}

func (c *binTestClient) recv() BinAck {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	a, err := ReadBinAck(c.br)
	if err != nil {
		c.t.Fatalf("read ack: %v", err)
	}
	return a
}

// roundTrip sends one frame and returns its ack.
func (c *binTestClient) roundTrip(ups []graph.Update) BinAck {
	c.t.Helper()
	c.send(ups)
	return c.recv()
}

// TestBinaryIngestEndToEnd drives the whole fast path over a real TCP
// connection: framed updates in, ordered positional acks out, answers
// identical to an offline engine fed the same accepted updates.
func TestBinaryIngestEndToEnd(t *testing.T) {
	w := testWorkload(t)
	a := testAlgo(t)
	dir := t.TempDir()
	cfg := testServerConfig()
	cfg.WALPath = filepath.Join(dir, "srv.wal")
	cfg.CheckpointPath = filepath.Join(dir, "srv.ckpt")

	srv, err := New(w.Initial(), a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	var qs []core.Query
	for _, p := range w.QueryPairsConnected(5) {
		qs = append(qs, core.Query{S: p[0], D: p[1]})
	}
	ref := core.NewMultiCISO()
	ref.Reset(w.Initial(), a, qs)
	for _, q := range qs {
		if resp, body := postJSON(t, client, ts.URL+"/v1/query", queryRequest{S: q.S, D: q.D}); resp.StatusCode != http.StatusOK {
			t.Fatalf("register query: status %d: %s", resp.StatusCode, body)
		}
	}

	bc, closeBin := dialBinary(t, srv)
	defer closeBin()

	var pos uint64
	for i := 0; i < 6; i++ {
		frame := w.NextBatch()
		ack := bc.roundTrip(frame)
		if ack.Status != BinStatusOK {
			t.Fatalf("frame %d: status %d", i, ack.Status)
		}
		if int(ack.Accepted+ack.Dropped) != len(frame) {
			t.Fatalf("frame %d: accepted %d + dropped %d != %d", i, ack.Accepted, ack.Dropped, len(frame))
		}
		pos += uint64(ack.Accepted)
		if ack.Pos != pos {
			t.Fatalf("frame %d: pos %d, want %d", i, ack.Pos, pos)
		}
		// The ack means the frame is visible: mirror it into the reference
		// (workload batches are clean, so accepted == all).
		for _, up := range frame {
			ref.ApplyBatchDelta([]graph.Update{up})
		}
	}
	if !srv.Quiesced() {
		t.Fatal("acked stream not quiesced")
	}

	var resp answersResponse
	getJSON(t, client, ts.URL+"/v1/answers", &resp)
	if resp.Batches != pos {
		t.Fatalf("answers at position %d, want %d", resp.Batches, pos)
	}
	want := ref.Answers()
	for i, ans := range resp.Answers {
		if float64(ans.Value) != float64(want[i]) {
			t.Fatalf("query %d: served %v, offline %v", i, ans.Value, want[i])
		}
	}
	// Each frame went through alone, so /healthz apply_latency must hold one
	// engine apply per fast-path group.
	var hz healthzResponse
	getJSON(t, client, ts.URL+"/healthz", &hz)
	var applies uint64
	for _, b := range hz.ApplyLatency {
		applies += b.Count
	}
	if applies != 6 {
		t.Fatalf("healthz apply_latency holds %d applies after 6 fast-path groups: %+v", applies, hz.ApplyLatency)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestBinarySanitizeAndBadFrame covers refused updates (positional acks skip
// them) and a malformed frame (BadFrame ack, then the connection closes).
func TestBinarySanitizeAndBadFrame(t *testing.T) {
	g := graph.NewDynamic(8)
	g.AddEdge(0, 1, 1)
	srv, err := New(g, testAlgo(t), testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	bc, closeBin := dialBinary(t, srv)
	defer closeBin()

	ack := bc.roundTrip([]graph.Update{
		graph.Add(2, 3, 1),   // valid
		graph.Add(4, 4, 1),   // self loop: dropped
		graph.Del(5, 6, 1),   // absent del: dropped
		graph.Add(0, 1, 2),   // duplicate add: dropped
		graph.Add(200, 1, 1), // out of range: dropped
		graph.Add(3, 2, 1),   // valid
	})
	if ack.Status != BinStatusOK || ack.Accepted != 2 || ack.Dropped != 4 {
		t.Fatalf("sanitize ack = %+v, want OK accepted=2 dropped=4", ack)
	}
	if ack.Pos != 2 {
		t.Fatalf("pos %d, want 2 (dropped updates take no position)", ack.Pos)
	}

	// A frame whose payload length is not a record multiple desyncs the
	// stream: the server acks BadFrame and closes.
	if _, err := bc.conn.Write([]byte{5, 0, 0, 0, 1, 2, 3, 4, 9, 9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	ack = bc.recv()
	if ack.Status != BinStatusBadFrame {
		t.Fatalf("bad frame ack status %d, want %d", ack.Status, BinStatusBadFrame)
	}
	if _, err := ReadBinAck(bc.br); err == nil {
		t.Fatal("connection still open after bad frame")
	}
	if got := srv.Counters().Get(CntBinBadFrames); got != 1 {
		t.Fatalf("bad-frame counter = %d, want 1", got)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestFastPathDifferentialAnswers is the PR's equivalence anchor: the same
// trace (valid and invalid updates interleaved) replayed through the binary
// per-update path and through a BatchMaxSize=1 JSON server must yield
// byte-identical /v1/answers bodies — same answers AND same global stream
// position, since each accepted update is one position on both paths.
func TestFastPathDifferentialAnswers(t *testing.T) {
	w1, w2 := testWorkload(t), testWorkload(t)
	a := testAlgo(t)

	mk := func(w0 *graph.Dynamic) (*Server, *httptest.Server) {
		cfg := testServerConfig()
		cfg.BatchMaxSize = 1 // batch server: one position per update
		cfg.BatchMaxWait = time.Millisecond
		srv, err := New(w0, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return srv, httptest.NewServer(srv.Handler())
	}
	fastSrv, fastTS := mk(w1.Initial())
	defer fastTS.Close()
	batchSrv, batchTS := mk(w2.Initial())
	defer batchTS.Close()

	var qs []core.Query
	for _, p := range w1.QueryPairsConnected(5) {
		qs = append(qs, core.Query{S: p[0], D: p[1]})
	}
	for _, q := range qs {
		for _, ts := range []*httptest.Server{fastTS, batchTS} {
			if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/query", queryRequest{S: q.S, D: q.D}); resp.StatusCode != http.StatusOK {
				t.Fatalf("register query: status %d: %s", resp.StatusCode, body)
			}
		}
	}

	bc, closeBin := dialBinary(t, fastSrv)
	defer closeBin()

	// Build one trace with invalid updates salted in, so both paths must
	// skip the same positions.
	var trace []graph.Update
	for i := 0; i < 4; i++ {
		batch := w1.NextBatch()
		w2.NextBatch() // keep the workloads' internal bookkeeping in step
		trace = append(trace, batch...)
		trace = append(trace,
			graph.Add(7, 7, 1),                                // self loop
			graph.Del(1, 2, 0.25),                             // very likely absent
			graph.Add(1<<31, 0, 1),                            // out of range
			graph.Add(batch[0].From, batch[0].To, batch[0].W), // dup of an add just applied
		)
	}

	for _, up := range trace {
		ack := bc.roundTrip([]graph.Update{up})
		if ack.Status != BinStatusOK {
			t.Fatalf("fast path refused update %v: status %d", up, ack.Status)
		}
		// Batch server: one POST per update; one cut per update.
		postUpdatesHTTP(t, batchTS.Client(), batchTS.URL, []graph.Update{up})
	}
	waitQuiescedSrv(t, fastSrv)
	waitQuiescedSrv(t, batchSrv)

	read := func(ts *httptest.Server) []byte {
		resp, err := ts.Client().Get(ts.URL + "/v1/answers")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	fastBody, batchBody := read(fastTS), read(batchTS)
	if string(fastBody) != string(batchBody) {
		t.Fatalf("answers diverge:\nfast:  %s\nbatch: %s", fastBody, batchBody)
	}
	if fastSrv.Applied() != batchSrv.Applied() {
		t.Fatalf("positions diverge: fast %d, batch %d", fastSrv.Applied(), batchSrv.Applied())
	}
	if err := fastSrv.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := batchSrv.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestFastPathWALRestore proves fast-path commits are as durable as batch
// commits: updates acked over the binary protocol survive a drain + Restore,
// with the stream position and every answer intact.
func TestFastPathWALRestore(t *testing.T) {
	w := testWorkload(t)
	a := testAlgo(t)
	dir := t.TempDir()
	cfg := testServerConfig()
	cfg.WALPath = filepath.Join(dir, "srv.wal")
	cfg.CheckpointPath = filepath.Join(dir, "srv.ckpt")

	srv, err := New(w.Initial(), a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	var qs []core.Query
	for _, p := range w.QueryPairsConnected(4) {
		qs = append(qs, core.Query{S: p[0], D: p[1]})
	}
	for _, q := range qs {
		postJSON(t, client, ts.URL+"/v1/query", queryRequest{S: q.S, D: q.D})
	}

	bc, closeBin := dialBinary(t, srv)
	var acked uint64
	for i := 0; i < 5; i++ {
		ack := bc.roundTrip(w.NextBatch())
		if ack.Status != BinStatusOK {
			t.Fatalf("frame %d: status %d", i, ack.Status)
		}
		acked = ack.Pos
	}
	var before answersResponse
	getJSON(t, client, ts.URL+"/v1/answers", &before)
	closeBin()
	ts.Close()
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}

	srv2, err := Restore(a, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if srv2.Applied() != acked {
		t.Fatalf("restored position %d, want %d", srv2.Applied(), acked)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	var after answersResponse
	getJSON(t, ts2.Client(), ts2.URL+"/v1/answers", &after)
	if len(after.Answers) != len(before.Answers) {
		t.Fatalf("restored %d answers, want %d", len(after.Answers), len(before.Answers))
	}
	for i := range before.Answers {
		if before.Answers[i] != after.Answers[i] {
			t.Fatalf("answer %d: before %+v, after %+v", i, before.Answers[i], after.Answers[i])
		}
	}
	if err := srv2.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterAfterRestoreReportsPosition: POST /v1/query answers at the
// server's stream position, which a restart resumes at the checkpoint — the
// same coordinate /v1/answers and /healthz report — not at a count of the
// batches this process applied.
func TestRegisterAfterRestoreReportsPosition(t *testing.T) {
	w := testWorkload(t)
	a := testAlgo(t)
	dir := t.TempDir()
	cfg := testServerConfig()
	cfg.WALPath = filepath.Join(dir, "srv.wal")
	cfg.CheckpointPath = filepath.Join(dir, "srv.ckpt")
	srv, err := New(w.Initial(), a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := w.QueryPairsConnected(2)
	srv.Pool().Register(core.Query{S: pairs[0][0], D: pairs[0][1]})
	for i := 0; i < 5; i++ {
		srv.commit(fromClient, []resilience.Record{{Batch: w.NextBatch()}}, nil)
	}
	if err := srv.Drain(); err != nil { // the final checkpoint covers all five
		t.Fatal(err)
	}

	srv2, err := Restore(a, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Drain()
	if srv2.Applied() != 5 {
		t.Fatalf("restored at position %d, want 5", srv2.Applied())
	}
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/query", queryRequest{S: pairs[1][0], D: pairs[1][1]})
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/query: status %d, %s (%v)", resp.StatusCode, body, err)
	}
	if qr.Batches != srv2.Applied() {
		t.Fatalf("POST /v1/query after restore reports position %d, the server is at %d", qr.Batches, srv2.Applied())
	}
}

// TestRestoreReplaysFastPathGroups restores from the artefacts a SIGKILL
// would leave — a checkpoint taken before the stream and a WAL suffix of
// single-update fast-path records with multi-update JSON batches between
// them, copied aside while the daemon is still up. The replay, gathered into
// groups of up to groupMax updates (one maximal CGBIN/2 frame) whatever the
// record shapes, must serve the pre-kill /v1/answers byte for byte.
func TestRestoreReplaysFastPathGroups(t *testing.T) {
	w := testWorkload(t)
	a := testAlgo(t)
	dir := t.TempDir()
	cfg := testServerConfig()
	cfg.WALPath = filepath.Join(dir, "srv.wal")
	cfg.CheckpointPath = filepath.Join(dir, "srv.ckpt")

	srv, err := New(w.Initial(), a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	for _, p := range w.QueryPairsConnected(4) {
		postJSON(t, client, ts.URL+"/v1/query", queryRequest{S: p[0], D: p[1]})
	}
	if err := srv.writeCheckpoint(); err != nil { // carries the queries; covers no update
		t.Fatal(err)
	}
	bc, closeBin := dialBinary(t, srv)
	defer closeBin()
	for i := 0; i < 7; i++ {
		if i == 3 {
			postUpdatesHTTP(t, client, ts.URL, w.NextBatch())
			waitQuiescedSrv(t, srv)
			continue
		}
		if ack := bc.roundTrip(w.NextBatch()); ack.Status != BinStatusOK {
			t.Fatalf("frame %d: status %d", i, ack.Status)
		}
	}
	rawAnswers := func(url string) []byte {
		resp, err := http.Get(url + "/v1/answers")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	before := rawAnswers(ts.URL)

	// The "kill": everything durable so far, without the drain's checkpoint.
	killed := t.TempDir()
	copyDir(t, dir, killed)
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}

	cfg.WALPath = filepath.Join(killed, "srv.wal")
	cfg.CheckpointPath = filepath.Join(killed, "srv.ckpt")
	srv2, err := Restore(a, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Drain()
	if srv2.Applied() != srv.Applied() {
		t.Fatalf("restored position %d, want %d", srv2.Applied(), srv.Applied())
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if after := rawAnswers(ts2.URL); !bytes.Equal(before, after) {
		t.Fatalf("restored /v1/answers differ:\nbefore %s\nafter  %s", before, after)
	}
}

// TestFastPathGatherBound pins gather's bound: a group takes queued frames
// while they fit, the frame that would overflow is carried — not admitted —
// into the next group, and a first frame larger than the bound still commits
// alone.
func TestFastPathGatherBound(t *testing.T) {
	f := &fastPath{ch: make(chan *fpEntry, 8)}
	frame := func(n int) *fpEntry { return &fpEntry{ups: make([]graph.Update, n)} }
	sizes := func(group []*fpEntry) (out []int) {
		for _, e := range group {
			out = append(out, len(e.ups))
		}
		return out
	}
	for _, n := range []int{3, 4, 2, 9, 1} {
		f.ch <- frame(n)
	}
	var groups [][]int
	for e := frame(5); e != nil; e = f.carry {
		groups = append(groups, sizes(f.gather(e, 10)))
		if f.carry == nil && len(f.ch) > 0 {
			t.Fatalf("group %v left %d frames queued without a carry", groups[len(groups)-1], len(f.ch))
		}
	}
	want := [][]int{{5, 3}, {4, 2}, {9, 1}}
	if fmt.Sprint(groups) != fmt.Sprint(want) {
		t.Fatalf("groups %v, want %v", groups, want)
	}
	if g := sizes(f.gather(frame(12), 10)); fmt.Sprint(g) != "[12]" || f.carry != nil {
		t.Fatalf("oversized first frame: group %v carry %v, want [12] and none", g, f.carry)
	}
}

// TestFastPathGroupTakesWholeQueue holds the commit stage while one binary
// connection pipelines 16 frames of 64 fresh edges: the first frame is taken
// alone, the other 15 queue behind it, and on release the commit loop takes
// the whole queue as one group of 960 updates — two group commits, where a
// 512-update cap would need three.
func TestFastPathGroupTakesWholeQueue(t *testing.T) {
	w := testWorkload(t)
	g := w.Initial()
	srv, err := New(g, testAlgo(t), testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	const frames, perFrame = 16, 64
	var trace [][]graph.Update
	var frameUps []graph.Update
	n := graph.VertexID(g.NumVertices())
	for u := graph.VertexID(0); u < n && len(trace) < frames; u++ {
		for v := graph.VertexID(0); v < n && len(trace) < frames; v++ {
			if _, ok := g.HasEdge(u, v); ok || u == v {
				continue
			}
			if frameUps = append(frameUps, graph.Add(u, v, 1)); len(frameUps) == perFrame {
				trace, frameUps = append(trace, frameUps), nil
			}
		}
	}
	bc, closeBin := dialBinary(t, srv)
	defer closeBin()
	groups0 := srv.Counters().Get(CntFastGroups)

	srv.commitMu.Lock()
	bc.send(trace[0])
	waitFor(t, 10*time.Second, func() bool { return srv.fp.pending.Load() == 1 && len(srv.fp.ch) == 0 },
		"the commit loop to take the first frame")
	for _, f := range trace[1:] {
		bc.send(f)
	}
	waitFor(t, 10*time.Second, func() bool { return len(srv.fp.ch) == frames-1 },
		"the later frames to queue behind the held commit")
	srv.commitMu.Unlock()
	for i := range trace {
		if ack := bc.recv(); ack.Status != BinStatusOK || ack.Accepted != perFrame {
			t.Fatalf("frame %d: %+v, want all %d accepted", i, ack, perFrame)
		}
	}
	if d := srv.Counters().Get(CntFastGroups) - groups0; d > 2 {
		t.Fatalf("%d group commits for one queue drain, want <= 2", d)
	}
	var sizes []string
	for _, b := range srv.applyLat.report() {
		sizes = append(sizes, fmt.Sprintf("%s:%d", b.Sizes, b.Count))
	}
	if fmt.Sprint(sizes) != "[64-127:1 512-1023:1]" {
		t.Fatalf("group size classes %v, want one frame then one group of 960", sizes)
	}
}

// TestFastPathDegradedAck: when durable writes fail, fast-path frames are
// refused with a Degraded ack and never applied — the never-apply-un-durable
// rule holds on the per-update path too.
func TestFastPathDegradedAck(t *testing.T) {
	w := testWorkload(t)
	ffs := resilience.NewFaultFS(resilience.OsFS{})
	cfg := faultConfig(t, ffs)
	srv, err := New(w.Initial(), testAlgo(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bc, closeBin := dialBinary(t, srv)
	defer closeBin()

	if ack := bc.roundTrip(w.NextBatch()); ack.Status != BinStatusOK {
		t.Fatalf("healthy frame: status %d", ack.Status)
	}
	posBefore := srv.Applied()
	edgesBefore := srv.edges.Load()

	ffs.FailWrites(errors.New("injected: disk full"))
	ack := bc.roundTrip(w.NextBatch())
	if ack.Status != BinStatusDegraded {
		t.Fatalf("sick-disk frame: status %d, want %d", ack.Status, BinStatusDegraded)
	}
	if ack.Accepted != 0 {
		t.Fatalf("degraded frame accepted %d updates", ack.Accepted)
	}
	if srv.Applied() != posBefore || srv.edges.Load() != edgesBefore {
		t.Fatal("degraded frame mutated server state")
	}
	if !srv.brk.Open() {
		t.Fatal("breaker did not open")
	}
	// Subsequent frames are refused at the door while the breaker is open.
	if ack := bc.roundTrip(w.NextBatch()); ack.Status != BinStatusDegraded {
		t.Fatalf("breaker-open frame: status %d, want %d", ack.Status, BinStatusDegraded)
	}
	ffs.Heal()
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestFastPathConcurrentCommit hammers both write pipelines at once — JSON
// batches and several pipelined binary connections — while readers poll.
// Run under -race: the commit lock is what keeps the two writers exclusive.
func TestFastPathConcurrentCommit(t *testing.T) {
	w := testWorkload(t)
	a := testAlgo(t)
	cfg := testServerConfig()
	srv, err := New(w.Initial(), a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	for _, p := range w.QueryPairsConnected(4) {
		postJSON(t, client, ts.URL+"/v1/query", queryRequest{S: p[0], D: p[1]})
	}

	// Pre-cut per-goroutine traces (the workload is not goroutine-safe).
	const conns, frames, perFrame = 3, 20, 8
	traces := make([][][]graph.Update, conns)
	var jsonBatches [][]graph.Update
	for i := range traces {
		for f := 0; f < frames; f++ {
			b := w.NextBatch()
			if len(b) > perFrame {
				b = b[:perFrame]
			}
			traces[i] = append(traces[i], b)
		}
	}
	for i := 0; i < 10; i++ {
		jsonBatches = append(jsonBatches, w.NextBatch())
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					var resp answersResponse
					getJSON(t, client, ts.URL+"/v1/answers", &resp)
				}
			}
		}()
	}

	var writers sync.WaitGroup
	for i := 0; i < conns; i++ {
		bc, closeBin := dialBinary(t, srv)
		writers.Add(1)
		go func(trace [][]graph.Update) {
			defer writers.Done()
			defer closeBin()
			// Pipeline: send everything, then collect ordered acks.
			for _, frame := range trace {
				bc.send(frame)
			}
			var last uint64
			for range trace {
				ack := bc.recv()
				if ack.Status != BinStatusOK {
					t.Errorf("concurrent frame status %d", ack.Status)
					return
				}
				if ack.Pos < last {
					t.Errorf("ack positions went backwards: %d after %d", ack.Pos, last)
					return
				}
				last = ack.Pos
			}
		}(traces[i])
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for _, b := range jsonBatches {
			postUpdatesHTTP(t, client, ts.URL, b)
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()

	waitQuiescedSrv(t, srv)
	if srv.edges.Load() != int64(srv.pool.Topology().NumEdges()) {
		t.Fatal("edge gauge diverged from the topology")
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	// Post-drain frames are refused, not silently queued.
	if !srv.Quiesced() {
		t.Fatal("drained server not quiesced")
	}
}
