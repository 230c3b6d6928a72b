package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
)

// sseEvent is one parsed `event:`/`data:` frame.
type sseEvent struct {
	typ  string
	body watchEventJSON
}

// openWatch subscribes to /v1/watch and returns a channel of parsed events
// (closed at stream end) plus a cancel func. A background goroutine owns the
// blocking reads so tests can apply their own timeouts.
func openWatch(t *testing.T, client *http.Client, url string) (<-chan sseEvent, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch content type %q", ct)
	}
	events := make(chan sseEvent, 256)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.typ = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev.body); err != nil {
					return
				}
			case line == "":
				if ev.typ != "" {
					select {
					case events <- ev:
					case <-ctx.Done():
						return
					}
					ev = sseEvent{}
				}
			}
		}
	}()
	return events, func() {
		cancel()
		resp.Body.Close()
	}
}

// nextEvent receives one event with a timeout; ok=false means the stream
// ended or nothing arrived in time.
func nextEvent(events <-chan sseEvent, timeout time.Duration) (sseEvent, bool) {
	select {
	case ev, ok := <-events:
		return ev, ok
	case <-time.After(timeout):
		return sseEvent{}, false
	}
}

// An SSE stream must outlive the HTTP server's WriteTimeout (cisgraphd sets
// one for every other endpoint): a delta committed after the connection's
// original write deadline has passed still reaches the subscriber.
func TestWatchSSEOutlivesWriteTimeout(t *testing.T) {
	g := graph.NewDynamic(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	srv, err := New(g, testAlgo(t), testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	const writeTimeout = 150 * time.Millisecond
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.WriteTimeout = writeTimeout
	ts.Start()
	defer ts.Close()
	client := ts.Client()
	if resp, body := postJSON(t, client, ts.URL+"/v1/query", queryRequest{S: 0, D: 2}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register query: status %d: %s", resp.StatusCode, body)
	}

	events, cancel := openWatch(t, client, ts.URL+"/v1/watch")
	defer cancel()
	if ev, ok := nextEvent(events, 5*time.Second); !ok || ev.typ != "init" {
		t.Fatalf("first event = %+v (ok=%v), want init", ev, ok)
	}
	time.Sleep(2 * writeTimeout) // the deadline itself is what must pass
	postUpdatesHTTP(t, client, ts.URL, []graph.Update{graph.Add(0, 2, 0.5)})
	ev, ok := nextEvent(events, 5*time.Second)
	if !ok || ev.typ != "delta" {
		t.Fatalf("event after the write timeout = %+v (ok=%v), want delta", ev, ok)
	}
}

// Watch subscribers see an init event, then every subsequent commit that
// moved an answer, in order; replaying the deltas over the initial answers
// reproduces the polled /v1/answers state exactly.
func TestWatchSSEDeltasMatchAnswers(t *testing.T) {
	w := testWorkload(t)
	srv, err := New(w.Initial(), testAlgo(t), testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	var qs []core.Query
	for _, p := range w.QueryPairsConnected(6) {
		qs = append(qs, core.Query{S: p[0], D: p[1]})
	}
	view := make(map[int]float64)
	for i, q := range qs {
		var qr queryResponse
		resp, body := postJSON(t, client, ts.URL+"/v1/query", queryRequest{S: q.S, D: q.D})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/query: status %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		view[i] = float64(qr.Answer)
	}

	events, stop := openWatch(t, client, ts.URL+"/v1/watch")
	defer stop()
	ev, ok := nextEvent(events, 5*time.Second)
	if !ok || ev.typ != "init" || ev.body.Resync {
		t.Fatalf("first event %+v ok=%v, want clean init", ev, ok)
	}

	for i := 0; i < 8; i++ {
		postUpdatesHTTP(t, client, ts.URL, w.NextBatch())
	}
	waitQuiescedSrv(t, srv)
	var ans answersResponse
	getJSON(t, client, ts.URL+"/v1/answers", &ans)

	// Drain deltas until replaying them over the registration-time answers
	// reproduces the polled state. A commit that moved nothing produces no
	// event, so the exit condition is view convergence, not position.
	matches := func() bool {
		for _, a := range ans.Answers {
			if view[a.ID] != float64(a.Value) {
				return false
			}
		}
		return true
	}
	lastPos := ev.body.Pos
	for !matches() {
		ev, ok := nextEvent(events, 10*time.Second)
		if !ok {
			t.Fatalf("watch stream dried up before converging on polled answers (pos %d, answers at %d)",
				lastPos, ans.Batches)
		}
		if ev.typ != "delta" {
			t.Fatalf("unexpected %s event mid-stream: %+v", ev.typ, ev.body)
		}
		if ev.body.Pos <= lastPos {
			t.Fatalf("positions not increasing: %d after %d", ev.body.Pos, lastPos)
		}
		if ev.body.Ts <= 0 {
			t.Fatalf("delta missing commit timestamp: %+v", ev.body)
		}
		if ev.body.Pos > ans.Batches {
			t.Fatalf("delta at pos %d beyond the polled snapshot %d without converging", ev.body.Pos, ans.Batches)
		}
		lastPos = ev.body.Pos
		for _, d := range ev.body.Changed {
			view[d.ID] = float64(d.Value)
		}
	}
	if got := srv.Counters().Get(CntWatchConns); got < 1 {
		t.Errorf("%s=%d, want >=1", CntWatchConns, got)
	}

	// Metrics expose the watch gauges/counters.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, m := range []string{"cisgraph_watch_subscribers", "cisgraph_watch_deltas"} {
		if !bytes.Contains(mb, []byte(m)) {
			t.Errorf("/metrics missing %s", m)
		}
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
}

// A subscriber resuming from a stale position is told to resync: ?from=0
// behind the committed position opens with an init event carrying
// resync=true, while resuming at the current position does not.
func TestWatchStaleResumeResync(t *testing.T) {
	w := testWorkload(t)
	srv, err := New(w.Initial(), testAlgo(t), testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	p := w.QueryPairsConnected(1)[0]
	postJSON(t, client, ts.URL+"/v1/query", queryRequest{S: p[0], D: p[1]})
	for i := 0; i < 4; i++ {
		postUpdatesHTTP(t, client, ts.URL, w.NextBatch())
	}
	waitQuiescedSrv(t, srv)
	pos := srv.Applied()
	if pos == 0 {
		t.Fatal("no batch committed")
	}
	for _, tc := range []struct {
		from   uint64
		resync bool
	}{{0, true}, {pos, false}} {
		events, cancel := openWatch(t, client, fmt.Sprintf("%s/v1/watch?from=%d", ts.URL, tc.from))
		ev, ok := nextEvent(events, 5*time.Second)
		cancel()
		if !ok || ev.typ != "init" || ev.body.Pos != pos || ev.body.Resync != tc.resync {
			t.Fatalf("?from=%d opened with %+v (ok=%v), want init at %d with resync=%v", tc.from, ev, ok, pos, tc.resync)
		}
	}
}

// End-to-end differential guard for change-driven skipping: after every
// batch, the served /v1/answers body must be byte-identical to one rendered
// from a cold start of every query on the server's topology (core.ColdStart,
// the paper's CS baseline, which shares no skip logic), while the server's
// update_skipped_queries counter proves skipping engaged.
func TestServerChangeSkipDifferentialHTTP(t *testing.T) {
	w := testWorkload(t)
	a := testAlgo(t)
	srv, err := New(w.Initial(), a, testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Clustered sources so source groups exist (the skip unit of proof).
	pairs := w.QueryPairsConnected(4)
	for _, p := range pairs {
		for _, p2 := range pairs {
			if p[0] == p2[1] {
				continue
			}
			resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/query", queryRequest{S: p[0], D: p2[1]})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /v1/query: status %d: %s", resp.StatusCode, body)
			}
		}
	}

	readBody := func() []byte {
		resp, err := ts.Client().Get(ts.URL + "/v1/answers")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// coldBody renders /v1/answers from a cold start of every query. The
	// test is the server's only writer, so it reads the topology unlocked.
	coldBody := func() []byte {
		snap := srv.Pool().Answers()
		cold := &Snapshot{Queries: snap.Queries, Values: make([]algo.Value, len(snap.Queries))}
		topo := srv.Pool().Topology()
		for i, q := range snap.Queries {
			cs := core.NewColdStart()
			cs.Reset(topo.Clone(), a, q)
			cold.Values[i] = cs.Answer()
		}
		return appendAnswers(nil, srv.Applied(), srv.Quiesced(), cold, 0, len(cold.Values))
	}

	// Small batches through the commit stage directly keep their dirty
	// regions bounded, so skipping has room to engage.
	var chunks [][]graph.Update
	for i := 0; i < 3; i++ {
		b := w.NextBatch()
		for len(b) > 0 {
			n := min(8, len(b))
			chunks = append(chunks, b[:n])
			b = b[n:]
		}
	}
	for i, c := range chunks {
		srv.applyBatch(c, CutSize)
		if got, want := readBody(), coldBody(); !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: /v1/answers bodies diverged\nserved: %s\ncold:   %s", i, got, want)
		}
	}
	if got := srv.Pool().Counters().Get("update_skipped_queries"); got == 0 {
		t.Error("server never skipped a query (update_skipped_queries=0)")
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
}

// Followers push the same delta stream their leader committed, and a
// checkpoint re-bootstrap surfaces as a resync marker after which deltas
// resume.
func TestFollowerWatchDeltasAndRebootstrapResync(t *testing.T) {
	w := testWorkload(t)
	a := testAlgo(t)
	dir := t.TempDir()
	lcfg := testServerConfig()
	lcfg.WALPath = filepath.Join(dir, "wal")
	lcfg.CheckpointPath = filepath.Join(dir, "ckpt")
	leader, err := New(w.Initial(), a, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	lsrv := httptest.NewServer(leader.Handler())
	defer lsrv.Close()

	fcfg := Config{FollowURL: lsrv.URL, ReplLongPoll: 250 * time.Millisecond,
		ReplBackoffBase: 10 * time.Millisecond, ReplBackoffMax: 100 * time.Millisecond}
	fol, err := StartFollower(a, fcfg, func() (*graph.Dynamic, error) { return w.Initial(), nil })
	if err != nil {
		t.Fatal(err)
	}
	fsrv := httptest.NewServer(fol.Handler())
	defer fsrv.Close()

	// Watch deltas come from the watching node's own pool: register the
	// queries on the follower (reads are follower-local; only writes are
	// leader-only).
	for _, q := range w.QueryPairsConnected(3) {
		resp, body := postJSON(t, fsrv.Client(), fsrv.URL+"/v1/query", queryRequest{S: q[0], D: q[1]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("follower POST /v1/query: status %d: %s", resp.StatusCode, body)
		}
	}

	events, stop := openWatch(t, fsrv.Client(), fsrv.URL+"/v1/watch")
	defer stop()
	if ev, ok := nextEvent(events, 5*time.Second); !ok || ev.typ != "init" {
		t.Fatalf("follower watch first event %+v ok=%v", ev, ok)
	}

	// Stream until the watched queries provably move: the leader's own pool
	// reports changed answers, so once leader deltas exist the follower must
	// fan out the same changes.
	sawDelta := false
	for i := 0; i < 40 && !sawDelta; i++ {
		postUpdatesHTTP(t, lsrv.Client(), lsrv.URL, w.NextBatch())
		waitQuiescedSrv(t, leader)
		waitFollowerAt(t, fol, leader.Applied())
		for {
			ev, ok := nextEvent(events, 50*time.Millisecond)
			if !ok {
				break
			}
			if ev.typ == "delta" && len(ev.body.Changed) > 0 {
				sawDelta = true
			}
		}
	}
	if !sawDelta {
		t.Fatal("no delta arrived on the follower watch stream")
	}

	// Force the re-bootstrap path the retention race takes: reload from the
	// leader's checkpoint. Watchers must see a resync marker.
	if err := leader.writeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := fol.rebootstrapFromLeader(fsrv.Client(), lsrv.URL); err != nil {
		t.Fatal(err)
	}
	gotResync := false
	for !gotResync {
		ev, ok := nextEvent(events, 10*time.Second)
		if !ok {
			t.Fatal("no resync marker after re-bootstrap")
		}
		if ev.typ == "resync" {
			gotResync = true
		}
	}

	// Deltas resume after the marker.
	sawDelta = false
	for i := 0; i < 40 && !sawDelta; i++ {
		postUpdatesHTTP(t, lsrv.Client(), lsrv.URL, w.NextBatch())
		waitQuiescedSrv(t, leader)
		waitFollowerAt(t, fol, leader.Applied())
		for {
			ev, ok := nextEvent(events, 50*time.Millisecond)
			if !ok {
				break
			}
			if ev.typ == "delta" {
				sawDelta = true
			}
		}
	}
	if !sawDelta {
		t.Fatal("no delta after re-bootstrap resync")
	}
	if err := fol.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := leader.Drain(); err != nil {
		t.Fatal(err)
	}
}

// The /v1/answers body cache serves identical bytes between commits and
// invalidates on registration and commit.
func TestAnswersBodyCache(t *testing.T) {
	w := testWorkload(t)
	srv, err := New(w.Initial(), testAlgo(t), testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	pairs := w.QueryPairsConnected(2)
	postJSON(t, client, ts.URL+"/v1/query", queryRequest{S: pairs[0][0], D: pairs[0][1]})

	read := func() []byte {
		resp, err := client.Get(ts.URL + "/v1/answers")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return b
	}
	b1, b2 := read(), read()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("idle re-read changed body:\n%s\n%s", b1, b2)
	}
	if hits := srv.Counters().Get(CntAnswersCacheHits); hits < 1 {
		t.Errorf("%s=%d, want >=1", CntAnswersCacheHits, hits)
	}

	// Registration invalidates (new query must appear immediately).
	postJSON(t, client, ts.URL+"/v1/query", queryRequest{S: pairs[1][0], D: pairs[1][1]})
	var ans answersResponse
	if err := json.Unmarshal(read(), &ans); err != nil {
		t.Fatal(err)
	}
	if len(ans.Answers) != 2 {
		t.Fatalf("post-registration listing has %d answers, want 2", len(ans.Answers))
	}

	// Commit invalidates (position must advance).
	before := ans.Batches
	postUpdatesHTTP(t, client, ts.URL, w.NextBatch())
	waitQuiescedSrv(t, srv)
	if err := json.Unmarshal(read(), &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Batches <= before {
		t.Fatalf("position stuck at %d after commit", ans.Batches)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestAnswersBodyCacheMatchesJSONMarshal pins the reflection-free /v1/answers
// renderer to encoding/json: the full listing and every ?id= body must equal,
// byte for byte, what json.NewEncoder writes for the same response with each
// finite value marshalled as a float64 and ±Inf/NaN as their strings.
func TestAnswersBodyCacheMatchesJSONMarshal(t *testing.T) {
	vals := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0, 1, -7, 17, 123456789,
		0.5, 1e-6, 9.99e-7, 1.5e-9, -2.5e-300, 5e-324, 1e20, 1e21, 1.7976931348623157e308, 0.1 + 0.2}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	snap := &Snapshot{}
	for i, v := range vals {
		snap.Queries = append(snap.Queries, core.Query{S: uint32(i), D: uint32(4000000000 - i)})
		snap.Values = append(snap.Values, algo.Value(v))
	}
	type refAnswer struct {
		ID    int             `json:"id"`
		S     uint32          `json:"s"`
		D     uint32          `json:"d"`
		Value json.RawMessage `json:"value"`
	}
	type refResponse struct {
		Batches  uint64      `json:"batches"`
		Quiesced bool        `json:"quiesced"`
		Answers  []refAnswer `json:"answers"`
	}
	ref := func(pos uint64, quiesced bool, lo, hi int) []byte {
		resp := refResponse{Batches: pos, Quiesced: quiesced, Answers: []refAnswer{}}
		for i := lo; i < hi; i++ {
			v := float64(snap.Values[i])
			var raw []byte
			switch {
			case math.IsInf(v, 1):
				raw = []byte(`"+Inf"`)
			case math.IsInf(v, -1):
				raw = []byte(`"-Inf"`)
			case math.IsNaN(v):
				raw = []byte(`"NaN"`)
			default:
				var err error
				if raw, err = json.Marshal(v); err != nil {
					t.Fatal(err)
				}
			}
			resp.Answers = append(resp.Answers, refAnswer{ID: i, S: snap.Queries[i].S, D: snap.Queries[i].D, Value: raw})
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if got, want := appendAnswers(nil, 12345678901, true, snap, 0, len(vals)), ref(12345678901, true, 0, len(vals)); !bytes.Equal(got, want) {
		t.Fatalf("listing differs from encoding/json:\ngot  %s\nwant %s", got, want)
	}
	if got, want := appendAnswers(nil, 0, false, &Snapshot{}, 0, 0), ref(0, false, 0, 0); !bytes.Equal(got, want) {
		t.Fatalf("empty listing: got %s, want %s", got, want)
	}
	for id := range vals {
		if got, want := appendAnswers(nil, 3, false, snap, id, id+1), ref(3, false, id, id+1); !bytes.Equal(got, want) {
			t.Fatalf("?id=%d (value %v): got %s, want %s", id, vals[id], got, want)
		}
	}
}
