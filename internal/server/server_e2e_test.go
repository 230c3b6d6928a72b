package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
	"cisgraph/internal/stats"
)

// testServerConfig keeps windows small so e2e streams exercise multiple
// size and timer cuts.
func testServerConfig() Config {
	return Config{
		BatchMaxSize:  64,
		BatchMaxWait:  5 * time.Millisecond,
		QueueCapacity: 4096,
	}
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, client *http.Client, url string, out any) *http.Response {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

// updatesReq is batch as a POST /v1/updates request.
func updatesReq(batch []graph.Update) updatesRequest {
	wire := make([]updateJSON, len(batch))
	for i, u := range batch {
		op := "add"
		if u.Del {
			op = "del"
		}
		wire[i] = updateJSON{Op: op, From: u.From, To: u.To, W: u.W}
	}
	return updatesRequest{Updates: wire}
}

func postUpdatesHTTP(t *testing.T, client *http.Client, base string, batch []graph.Update) {
	t.Helper()
	resp, body := postJSON(t, client, base+"/v1/updates", updatesReq(batch))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/updates: status %d: %s", resp.StatusCode, body)
	}
}

func waitQuiescedSrv(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !s.Quiesced() {
		if time.Now().After(deadline) {
			t.Fatal("server did not quiesce")
		}
		time.Sleep(time.Millisecond)
	}
}

// End-to-end: answers served over HTTP after a streamed update sequence are
// identical to an offline MultiCISO run over the same clean stream, then
// survive a drain + restore-from-checkpoint/WAL round trip mid-stream. The
// stream arrives as JSON bodies or, as the "faulty" input, mangled by the
// fault injector (corrupt clones, duplicates, reorders) and offered to the
// batcher directly, since JSON cannot carry the NaN/±Inf clones: the commit
// stage's sanitizer must neutralise every fault on both sides of the restart.
func TestServerEndToEndMatchesOfflineAcrossRestart(t *testing.T) {
	t.Run("json", func(t *testing.T) { testEndToEndAcrossRestart(t, false) })
	t.Run("faulty", func(t *testing.T) { testEndToEndAcrossRestart(t, true) })
}

func testEndToEndAcrossRestart(t *testing.T, faulty bool) {
	w := testWorkload(t)
	a := testAlgo(t)
	dir := t.TempDir()
	cfg := testServerConfig()
	cfg.WALPath = filepath.Join(dir, "srv.wal")
	cfg.CheckpointPath = filepath.Join(dir, "srv.ckpt")

	inj := resilience.NewInjector(resilience.InjectorConfig{Seed: 99, CorruptP: 0.4, DupP: 0.3, ReorderP: 0.5})
	feed := func(s *Server, client *http.Client, base string, b []graph.Update) {
		t.Helper()
		if !faulty {
			postUpdatesHTTP(t, client, base, b)
			return
		}
		mangled := inj.Mangle(w.NumVertices(), b)
		if err := s.bat.Offer(mangled); err != nil {
			t.Fatalf("Offer of %d updates: %v", len(mangled), err)
		}
	}

	srv, err := New(w.Initial(), a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()

	// Offline reference over the same initial topology and query set.
	var qs []core.Query
	for _, p := range w.QueryPairsConnected(5) {
		qs = append(qs, core.Query{S: p[0], D: p[1]})
	}
	ref := core.NewMultiCISO()
	ref.Reset(w.Initial(), a, qs)

	for _, q := range qs {
		resp, body := postJSON(t, client, ts.URL+"/v1/query", queryRequest{S: q.S, D: q.D})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/query: status %d: %s", resp.StatusCode, body)
		}
	}

	// First half of the stream over HTTP; the server cuts its own windows,
	// which need not match the workload's batch boundaries — the converged
	// answers are boundary-independent.
	var replayed [][]graph.Update
	for i := 0; i < 6; i++ {
		b := w.NextBatch()
		replayed = append(replayed, b)
		feed(srv, client, ts.URL, b)
	}
	waitQuiescedSrv(t, srv)
	for _, b := range replayed {
		ref.ApplyBatchDelta(b)
	}
	checkAnswers(t, client, ts.URL, qs, ref.Answers(), "pre-restart")

	// SIGTERM path: stop HTTP, drain (flush window + final checkpoint + WAL
	// close), then restore a fresh server from the durable artefacts alone.
	ts.Close()
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, _, _, err := resilience.ReadCheckpointMeta(cfg.CheckpointPath); err != nil {
		t.Fatalf("drain left no readable checkpoint: %v", err)
	}

	srv2, err := Restore(a, cfg, nil) // nil init: the checkpoint must carry everything
	if err != nil {
		t.Fatal(err)
	}
	if srv2.Pool().NumQueries() != len(qs) {
		t.Fatalf("restore re-armed %d queries, want %d", srv2.Pool().NumQueries(), len(qs))
	}
	if srv2.Applied() != srv.Applied() {
		t.Fatalf("restore at batch %d, drained server at %d", srv2.Applied(), srv.Applied())
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	client2 := ts2.Client()
	checkAnswers(t, client2, ts2.URL, qs, ref.Answers(), "post-restart")

	// Second half of the stream against the restored server.
	for i := 0; i < 6; i++ {
		b := w.NextBatch()
		ref.ApplyBatchDelta(b)
		feed(srv2, client2, ts2.URL, b)
	}
	waitQuiescedSrv(t, srv2)
	checkAnswers(t, client2, ts2.URL, qs, ref.Answers(), "post-restart stream")
	if faulty {
		if f := inj.Faults(); f["corrupt"] == 0 || f["duplicate"] == 0 || f["reorder"] == 0 {
			t.Fatalf("injector produced no faults: %v", f)
		}
		var dropped int64
		for _, s := range []*Server{srv, srv2} {
			for _, reason := range []string{resilience.DropOutOfRange, resilience.DropSelfLoop,
				resilience.DropBadWeight, resilience.DropDupAdd, resilience.DropAbsentDel} {
				dropped += s.Counters().Get(reason)
			}
		}
		if dropped == 0 {
			t.Fatal("sanitizer dropped nothing on a faulty stream")
		}
	}
	if err := srv2.Drain(); err != nil {
		t.Fatalf("final drain: %v", err)
	}
}

func checkAnswers(t *testing.T, client *http.Client, base string, qs []core.Query, want []algo.Value, phase string) {
	t.Helper()
	var resp answersResponse
	if r := getJSON(t, client, base+"/v1/answers", &resp); r.StatusCode != http.StatusOK {
		t.Fatalf("%s: GET /v1/answers status %d", phase, r.StatusCode)
	}
	if len(resp.Answers) != len(qs) {
		t.Fatalf("%s: served %d answers, want %d", phase, len(resp.Answers), len(qs))
	}
	for i, ans := range resp.Answers {
		if ans.S != qs[i].S || ans.D != qs[i].D {
			t.Fatalf("%s: answer %d is Q(%d->%d), want Q(%d->%d)", phase, i, ans.S, ans.D, qs[i].S, qs[i].D)
		}
		if float64(ans.Value) != want[i] {
			t.Errorf("%s: Q(%d->%d): served %v, offline %v", phase, ans.S, ans.D, float64(ans.Value), want[i])
		}
	}
}

// A panic inside the algorithm plug-in mid-commit is the engine's to
// recover: the daemon counts it (query_panic on /metrics), keeps serving,
// and answers like an offline reference at once — the panicking source
// group is recomputed on the committed topology — and after the next commit.
func TestServerRecoversPluginPanic(t *testing.T) {
	w := testWorkload(t)
	init := w.Initial()
	var qs []core.Query
	for _, p := range w.QueryPairsConnected(5) {
		qs = append(qs, core.Query{S: p[0], D: p[1]})
	}
	// The first-registered query's group is scanned first, so it takes the
	// armed panic; make it one without a direct edge, which the panicking
	// body then adds.
	for i, q := range qs {
		if _, ok := init.HasEdge(q.S, q.D); !ok {
			qs[0], qs[i] = qs[i], qs[0]
			break
		}
	}
	q0 := qs[0]
	if _, ok := init.HasEdge(q0.S, q0.D); ok {
		t.Fatal("every query pair is one edge apart")
	}

	pa := resilience.NewPanicAlgorithm(testAlgo(t))
	srv, err := New(init, pa, testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	for _, q := range qs {
		if resp, body := postJSON(t, client, ts.URL+"/v1/query", queryRequest{S: q.S, D: q.D}); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/query: status %d: %s", resp.StatusCode, body)
		}
	}
	ref := core.NewMultiCISO()
	ref.Reset(init.Clone(), testAlgo(t), qs)

	// A short edge straight into q0's destination moves its answer, so a
	// group left unrecovered would serve a stale one. The sanitizer drops
	// the self-loop beside it.
	body := []graph.Update{graph.Add(q0.S, q0.D, 1e-3), graph.Add(q0.S, q0.S, 1)}
	pa.Arm(1)
	postUpdatesHTTP(t, client, ts.URL, body)
	waitQuiescedSrv(t, srv)
	ref.ApplyBatchDelta(body[:1])
	if pa.Fired() != 1 {
		t.Fatalf("injected panic fired %d times, want 1", pa.Fired())
	}
	if got := scrapeCounter(t, client, ts.URL, stats.CntQueryPanic); got != 1 {
		t.Fatalf("query_panic = %d, want 1", got)
	}
	checkAnswers(t, client, ts.URL, qs, ref.Answers(), "after the panic")

	b := w.NextBatch()
	ref.ApplyBatchDelta(b)
	postUpdatesHTTP(t, client, ts.URL, b)
	waitQuiescedSrv(t, srv)
	checkAnswers(t, client, ts.URL, qs, ref.Answers(), "after the next commit")
}

// The HTTP surface: validation errors, admission control, health and metrics.
func TestServerAPISurface(t *testing.T) {
	w := testWorkload(t)
	srv, err := New(w.Initial(), testAlgo(t), testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	n := uint32(w.NumVertices())

	// Query validation, then admission up to the cap: a bulk registration
	// leaves room for two more.
	for _, tc := range []struct {
		req  queryRequest
		want int
	}{
		{queryRequest{S: 0, D: n + 5}, http.StatusBadRequest}, // out of range
		{queryRequest{S: 3, D: 3}, http.StatusBadRequest},     // s == d
	} {
		resp, body := postJSON(t, client, ts.URL+"/v1/query", tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("query %+v: status %d, want %d (%s)", tc.req, resp.StatusCode, tc.want, body)
		}
	}
	if _, _, err := srv.Pool().RegisterAll(fillQueries(maxQueries-2, n)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		req  queryRequest
		want int
	}{
		{queryRequest{S: 0, D: 1}, http.StatusOK},
		{queryRequest{S: 1, D: 2}, http.StatusOK},
		{queryRequest{S: 2, D: 3}, http.StatusTooManyRequests}, // maxQueries
		{queryRequest{S: 3, D: 3}, http.StatusBadRequest},      // invalid even at the cap
	} {
		resp, body := postJSON(t, client, ts.URL+"/v1/query", tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("query %+v: status %d, want %d (%s)", tc.req, resp.StatusCode, tc.want, body)
		}
	}

	// Update validation.
	resp, _ := postJSON(t, client, ts.URL+"/v1/updates", map[string]any{
		"updates": []map[string]any{{"op": "frob", "from": 0, "to": 1, "w": 1}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad op: status %d, want 400", resp.StatusCode)
	}

	// Answer by id, and an unknown id.
	var one answersResponse
	if r := getJSON(t, client, ts.URL+"/v1/answers?id=1", &one); r.StatusCode != http.StatusOK {
		t.Errorf("answers?id=1: status %d", r.StatusCode)
	} else if len(one.Answers) != 1 || one.Answers[0].ID != 1 {
		t.Errorf("answers?id=1: got %+v", one.Answers)
	}
	if r := getJSON(t, client, fmt.Sprintf("%s/v1/answers?id=%d", ts.URL, maxQueries), nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("answers?id=%d: status %d, want 404", maxQueries, r.StatusCode)
	}

	// Health reflects the live state.
	var hz healthzResponse
	getJSON(t, client, ts.URL+"/healthz", &hz)
	if hz.Status != "ok" || hz.Queries != maxQueries || hz.Algorithm == "" {
		t.Errorf("healthz: %+v", hz)
	}

	// Metrics render both counter layers and the gauges.
	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	metrics := buf.String()
	for _, want := range []string{
		fmt.Sprintf("cisgraph_counter{layer=\"server\",name=%q}", CntQueriesRegistered),
		"cisgraph_counter{layer=\"engine\"",
		"cisgraph_ingest_pending",
		"cisgraph_edges",
		fmt.Sprintf("cisgraph_queries %d", maxQueries),
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Draining refuses new work.
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	resp, _ = postJSON(t, client, ts.URL+"/v1/query", queryRequest{S: 4, D: 5})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("query while draining: status %d, want 503", resp.StatusCode)
	}
	resp, _ = postJSON(t, client, ts.URL+"/v1/updates", updatesRequest{
		Updates: []updateJSON{{Op: "add", From: 0, To: 1, W: 1}},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("updates while draining: status %d, want 503", resp.StatusCode)
	}
	getJSON(t, client, ts.URL+"/healthz", &hz)
	if hz.Status != "draining" {
		t.Errorf("healthz status %q while draining, want draining", hz.Status)
	}
}

// TestQueryAdmissionRace: the query cap holds under concurrent
// registration. With one slot left, 8 concurrent POST /v1/query on fresh
// sources get exactly one 200 and seven 429s, and the pool ends at the cap.
// Run with -race.
func TestQueryAdmissionRace(t *testing.T) {
	w := testWorkload(t)
	srv, err := New(w.Initial(), testAlgo(t), testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, _, err := srv.Pool().RegisterAll(fillQueries(maxQueries-1, uint32(w.NumVertices()))); err != nil {
		t.Fatal(err)
	}
	const posts = 8
	type outcome struct {
		code int
		err  error
	}
	results := make(chan outcome, posts)
	start := make(chan struct{})
	for i := 0; i < posts; i++ {
		body, err := json.Marshal(queryRequest{S: uint32(1 + i), D: 0})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			<-start
			resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- outcome{err: err}
				return
			}
			resp.Body.Close()
			results <- outcome{code: resp.StatusCode}
		}()
	}
	close(start)
	codes := map[int]int{}
	for i := 0; i < posts; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		codes[r.code]++
	}
	if codes[http.StatusOK] != 1 || codes[http.StatusTooManyRequests] != posts-1 {
		t.Fatalf("status counts %v, want one 200 and %d 429s", codes, posts-1)
	}
	if got := srv.Pool().NumQueries(); got != maxQueries {
		t.Fatalf("NumQueries %d, want the cap %d", got, maxQueries)
	}
}

// Backpressure: a POST that does not fit the queue is refused whole with 429
// and Retry-After.
func TestServerBackpressure(t *testing.T) {
	w := testWorkload(t)

	cfg := testServerConfig()
	cfg.BatchMaxSize = 8
	cfg.BatchMaxWait = time.Hour // the queue only drains by size cuts
	cfg.QueueCapacity = 8
	srv, err := New(w.Initial(), testAlgo(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big := make([]updateJSON, 9)
	for i := range big {
		big[i] = updateJSON{Op: "add", From: 0, To: uint32(i + 1), W: 1}
	}
	// 9 > capacity 8: rejected outright no matter the queue's fill level.
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/updates", updatesRequest{Updates: big})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized POST: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}
