package server

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
)

// faultConfig is a FaultFS-backed durability layer with a fast breaker
// retry loop, so degraded-mode transitions happen in milliseconds.
func faultConfig(t *testing.T, ffs *resilience.FaultFS) Config {
	t.Helper()
	dir := t.TempDir()
	cfg := Config{}
	cfg.WALPath = filepath.Join(dir, "srv.wal")
	cfg.CheckpointPath = filepath.Join(dir, "srv.ckpt")
	cfg.FS = ffs
	cfg.DiskRetryBase = 2 * time.Millisecond
	cfg.DiskRetryMax = 20 * time.Millisecond
	return cfg
}

// Degraded mode, end to end with deterministic fault injection: a failing
// disk trips the breaker (503 on updates, reads keep serving, healthz says
// degraded), healing the disk closes it via the background probe loop, and
// the answers served afterwards are exactly the replay of the durable WAL
// prefix — the batch that hit the sick disk was dropped, never applied.
func TestServerDegradedModeFaultInjection(t *testing.T) {
	w := testWorkload(t)
	a := testAlgo(t)
	ffs := resilience.NewFaultFS(resilience.OsFS{})
	cfg := faultConfig(t, ffs)

	srv, err := New(w.Initial(), a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	var qs []core.Query
	for _, p := range w.QueryPairsConnected(4) {
		qs = append(qs, core.Query{S: p[0], D: p[1]})
	}
	for _, q := range qs {
		if resp, body := postJSON(t, client, ts.URL+"/v1/query", queryRequest{S: q.S, D: q.D}); resp.StatusCode != http.StatusOK {
			t.Fatalf("register query: status %d: %s", resp.StatusCode, body)
		}
	}

	// Healthy phase: a few batches flow through WAL and engines.
	for i := 0; i < 3; i++ {
		postUpdatesHTTP(t, client, ts.URL, w.NextBatch())
	}
	waitQuiescedSrv(t, srv)

	// Break the disk and push a batch into it: the applier's WAL append
	// fails, the batch is dropped, and the breaker opens.
	ffs.FailWrites(errors.New("injected: disk full"))
	postUpdatesHTTP(t, client, ts.URL, w.NextBatch())
	waitFor(t, 10*time.Second, srv.brk.Open, "breaker to open")

	// Writes are refused at the door with 503 + Retry-After…
	resp, _ := postJSON(t, client, ts.URL+"/v1/updates", updatesRequest{
		Updates: []updateJSON{{Op: "add", From: 0, To: 1, W: 1}},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded POST /v1/updates: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded 503 without Retry-After")
	}
	// …while reads keep serving…
	var ans answersResponse
	if r := getJSON(t, client, ts.URL+"/v1/answers", &ans); r.StatusCode != http.StatusOK {
		t.Fatalf("degraded GET /v1/answers: status %d, want 200", r.StatusCode)
	}
	if len(ans.Answers) != len(qs) {
		t.Fatalf("degraded answers: %d, want %d", len(ans.Answers), len(qs))
	}
	// …and health reports the degradation with its reason.
	var hz healthzResponse
	getJSON(t, client, ts.URL+"/healthz", &hz)
	if hz.Status != "degraded" || !strings.Contains(hz.DegradedReason, "disk full") {
		t.Fatalf("degraded healthz: status %q reason %q", hz.Status, hz.DegradedReason)
	}
	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(mbuf.String(), "cisgraph_degraded 1") {
		t.Error("metrics missing cisgraph_degraded 1 while degraded")
	}
	if snap := srv.Counters().Snapshot(); snap[CntBatchesDroppedDegraded] == 0 {
		t.Error("no dropped-batch count after degraded drop")
	}

	// Heal the disk: the background probe closes the breaker and ingest
	// resumes without a restart.
	ffs.Heal()
	waitFor(t, 10*time.Second, func() bool { return !srv.brk.Open() }, "breaker to close")
	if srv.brk.Probes() == 0 {
		t.Error("breaker closed without any probe")
	}
	postUpdatesHTTP(t, client, ts.URL, w.NextBatch())
	waitQuiescedSrv(t, srv)
	getJSON(t, client, ts.URL+"/healthz", &hz)
	if hz.Status != "ok" {
		t.Fatalf("healed healthz: status %q, want ok", hz.Status)
	}

	// Consistency invariant: served answers ≡ offline replay of the durable
	// WAL prefix over the initial topology. The dropped batch is in neither.
	recs, err := resilience.ReplaySegmentedFS(ffs, cfg.WALPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(recs)) != srv.Applied() {
		t.Fatalf("WAL holds %d records, server applied %d", len(recs), srv.Applied())
	}
	ref := core.NewMultiCISO()
	ref.Reset(w.Initial(), a, qs)
	for _, rec := range recs {
		ref.ApplyBatchDelta(rec.Batch)
	}
	checkAnswers(t, client, ts.URL, qs, ref.Answers(), "post-heal durable replay")

	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// A checkpoint-write failure also trips the breaker, and recovery resumes
// periodic checkpoints.
func TestServerCheckpointFaultTripsBreaker(t *testing.T) {
	w := testWorkload(t)
	ffs := resilience.NewFaultFS(resilience.OsFS{})
	cfg := faultConfig(t, ffs)
	cfg.CheckpointEvery = 1 // every batch checkpoints

	srv, err := New(w.Initial(), testAlgo(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	postUpdatesHTTP(t, client, ts.URL, w.NextBatch())
	waitQuiescedSrv(t, srv)

	// Let the WAL append through, then kill the checkpoint's writes: the
	// append is 2 ops (write+sync); everything after fails.
	ffs.FailAfterWrites(2, errors.New("injected: checkpoint device error"))
	postUpdatesHTTP(t, client, ts.URL, w.NextBatch())
	waitFor(t, 10*time.Second, srv.brk.Open, "breaker to open on checkpoint failure")

	ffs.Heal()
	waitFor(t, 10*time.Second, func() bool { return !srv.brk.Open() }, "breaker to close")
	postUpdatesHTTP(t, client, ts.URL, w.NextBatch())
	waitQuiescedSrv(t, srv)
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain after heal: %v", err)
	}
	if _, _, _, err := resilience.ReadCheckpointMeta(cfg.CheckpointPath); err != nil {
		t.Fatalf("no readable checkpoint after heal: %v", err)
	}
}

// Checkpoint-coordinated retention in-process: with tiny segments and
// frequent checkpoints, sealed segments wholly covered by the checkpoint are
// deleted, the WAL stays bounded, and a Restore from the retained artefacts
// still reproduces the answers.
func TestServerWALRetentionAcrossCheckpoints(t *testing.T) {
	w := testWorkload(t)
	a := testAlgo(t)
	dir := t.TempDir()
	cfg := Config{}
	cfg.WALPath = filepath.Join(dir, "srv.wal")
	cfg.CheckpointPath = filepath.Join(dir, "srv.ckpt")
	cfg.WALSegmentBytes = 64 // minimum: roughly one batch per segment
	cfg.CheckpointEvery = 2

	srv, err := New(w.Initial(), a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()

	var qs []core.Query
	for _, p := range w.QueryPairsConnected(3) {
		qs = append(qs, core.Query{S: p[0], D: p[1]})
	}
	for _, q := range qs {
		postJSON(t, client, ts.URL+"/v1/query", queryRequest{S: q.S, D: q.D})
	}
	for i := 0; i < 10; i++ {
		postUpdatesHTTP(t, client, ts.URL, w.NextBatch())
		waitQuiescedSrv(t, srv)
	}
	snap := srv.Counters().Snapshot()
	if snap[CntWALSegmentsDeleted] == 0 {
		t.Fatalf("10 batches with CheckpointEvery=2 and 64-byte segments deleted no WAL segments (%d applied, %d checkpoints)",
			srv.Applied(), snap[CntCheckpoints])
	}

	// Post-checkpoint invariant: no sealed segment is wholly covered by the
	// checkpoint — the durable artefacts carry no dead weight.
	ts.Close()
	if err := srv.Drain(); err != nil { // drain checkpoints at the final index
		t.Fatal(err)
	}
	through, _, _, err := resilience.ReadCheckpointMeta(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := resilience.ReplaySegmented(cfg.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[:max(len(recs)-1, 0)] {
		_ = rec // all but possibly trailing records may survive inside the last retained segments
	}
	if len(recs) > 0 && recs[0].Index == 0 && through > 0 {
		// Retention must have removed the segment holding record 0 once the
		// checkpoint covered it (CheckpointEvery=2 guarantees coverage).
		t.Fatalf("WAL still holds record 0 after checkpoint through %d", through)
	}

	// Restore from the retained artefacts and check the answers survive.
	srv2, err := Restore(a, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if srv2.Applied() != srv.Applied() {
		t.Fatalf("restore applied %d, drained server %d", srv2.Applied(), srv.Applied())
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	var got, want answersResponse
	getJSON(t, ts2.Client(), ts2.URL+"/v1/answers", &got)
	want.Answers = make([]answerJSON, len(qs))
	ref := core.NewMultiCISO()
	g, queries, err := restoreTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Reset(g, a, queries)
	for i, v := range ref.Answers() {
		if float64(got.Answers[i].Value) != v {
			t.Errorf("restored Q(%d->%d): served %v, offline %v",
				got.Answers[i].S, got.Answers[i].D, float64(got.Answers[i].Value), v)
		}
	}
	if err := srv2.Drain(); err != nil {
		t.Fatal(err)
	}
}

// restoreTopology rebuilds the durable state offline: checkpoint topology +
// WAL suffix — the same recovery recipe the daemon uses, but through the
// exported surfaces only.
func restoreTopology(cfg Config) (*graph.Dynamic, []core.Query, error) {
	through, _, payload, err := resilience.ReadCheckpointMeta(cfg.CheckpointPath)
	if err != nil {
		return nil, nil, err
	}
	g, queries, err := DecodeCheckpointState(payload)
	if err != nil {
		return nil, nil, err
	}
	recs, err := resilience.ReplaySegmented(cfg.WALPath)
	if err != nil {
		return nil, nil, err
	}
	for _, rec := range recs {
		if rec.Index >= through {
			g.Apply(rec.Batch)
		}
	}
	return g, queries, nil
}

// Admission control at the daemon's own bounds: a body one byte over
// maxBodyBytes gets 413 while one at the bound is read whole, a gate filled
// to its capacity sheds with 429 while /healthz stays reachable, and the
// deadline middleware kills overrunning handlers with 503.
func TestServerAdmissionControl(t *testing.T) {
	w := testWorkload(t)
	srv, err := New(w.Initial(), testAlgo(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// One valid update behind whitespace that pads the body to size bytes:
	// the decoder must read through all of it.
	paddedBody := func(size int) []byte {
		head, tail := `{"updates":[`, `{"op":"add","from":0,"to":1,"w":1}]}`
		return []byte(head + strings.Repeat(" ", size-len(head)-len(tail)) + tail)
	}
	post := func(body []byte) int {
		t.Helper()
		resp, err := client.Post(ts.URL+"/v1/updates", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if maxBodyBytes != 8<<20 {
		t.Fatalf("body bound %d bytes, want 8 MiB", maxBodyBytes)
	}
	if code := post(paddedBody(maxBodyBytes + 1)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("body of %d bytes: status %d, want 413", maxBodyBytes+1, code)
	}
	if got := srv.Counters().Get(CntBodyTooLarge); got != 1 {
		t.Errorf("%s = %d after one 413, want 1", CntBodyTooLarge, got)
	}
	if code := post(paddedBody(maxBodyBytes)); code != http.StatusAccepted {
		t.Errorf("body of %d bytes: status %d, want 202", maxBodyBytes, code)
	}

	// Fill the gate: /v1/* sheds with 429 + Retry-After, /healthz still
	// answers (it bypasses the gate by design).
	if cap(srv.gate) != 256 {
		t.Fatalf("in-flight gate of %d slots, want 256", cap(srv.gate))
	}
	for range cap(srv.gate) {
		srv.gate <- struct{}{}
	}
	if r := getJSON(t, client, ts.URL+"/v1/answers", nil); r.StatusCode != http.StatusTooManyRequests {
		t.Errorf("full gate: status %d, want 429", r.StatusCode)
	} else if r.Header.Get("Retry-After") == "" {
		t.Error("shed 429 without Retry-After")
	}
	var hz healthzResponse
	if r := getJSON(t, client, ts.URL+"/healthz", &hz); r.StatusCode != http.StatusOK {
		t.Errorf("healthz behind full gate: status %d, want 200", r.StatusCode)
	}
	for range cap(srv.gate) {
		<-srv.gate
	}
	if snap := srv.Counters().Snapshot(); snap[CntInflightShed] == 0 {
		t.Error("shed request did not count CntInflightShed")
	}
	if r := getJSON(t, client, ts.URL+"/v1/answers", nil); r.StatusCode != http.StatusOK {
		t.Errorf("emptied gate: status %d, want 200", r.StatusCode)
	}

	// Deadline middleware: an overrunning handler is cut off with 503 and
	// counted.
	slow := srv.withDeadline(10*time.Millisecond, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	}))
	slowTS := httptest.NewServer(slow)
	defer slowTS.Close()
	sresp, err := slowTS.Client().Get(slowTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("deadline overrun: status %d, want 503", sresp.StatusCode)
	}
	if snap := srv.Counters().Snapshot(); snap[CntRequestTimeouts] == 0 {
		t.Error("deadline kill did not count CntRequestTimeouts")
	}
}
