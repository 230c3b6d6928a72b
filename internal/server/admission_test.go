package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
	"cisgraph/internal/stream"
)

// TestAdmissionBesideLongApply: on a daemon whose CPU budget is one, a
// POST /v1/updates — which only enqueues — must not wait for the applier's
// time slice. A backlog of 512-update deletion batches on a scale-12 graph
// with Q=256 (nearly all sources distinct) keeps the applier busy back to
// back, each apply taking 25–40 ms on a 2-core host (up to ~60 ms beside a
// full go test ./...); the median POST
// measured while it works through them must take under a quarter of the
// median apply. Without
// SizeProcs's spare P the POST waits for an apply to end or for the
// runtime's 10 ms preemption tick, once per hop of the request (≈ 40 ms in
// all); with it, ≈ 1 ms. The applies are long so that a quarter of one
// clears scheduler jitter on a loaded host and still fails a POST that
// waits for one preemption tick.
func TestAdmissionBesideLongApply(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	budget := SizeProcs()
	defer func() {
		runtime.GOMAXPROCS(prev)
		cpuBudget.Store(0)
	}()
	if budget != 1 || runtime.GOMAXPROCS(0) != 2 {
		t.Fatalf("SizeProcs at GOMAXPROCS 1: budget %d, GOMAXPROCS %d; want 1 and 2", budget, runtime.GOMAXPROCS(0))
	}

	const batch, backlog, bodies, queries = 512, 8, 16, 256
	ds := graph.RMAT("admit", 12, 16<<12, graph.DefaultRMAT, graph.MaxRawWeight, 5)
	w, err := stream.New(ds, stream.Config{LoadFraction: 0.5, AddsPerBatch: 0, DelsPerBatch: batch, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(w.Initial(), testAlgo(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	if got := engineBudget(); got != budget {
		t.Fatalf("engine width %d, want the CPU budget %d", got, budget)
	}
	var qs []core.Query
	for _, p := range w.QueryPairsConnected(queries) {
		qs = append(qs, core.Query{S: p[0], D: p[1]})
	}
	if _, _, err := srv.Pool().RegisterAll(qs); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wire := make([][]byte, bodies)
	for i := range wire {
		if wire[i], err = json.Marshal(updatesReq(w.NextBatch())); err != nil {
			t.Fatal(err)
		}
	}

	// The backlog goes straight into the commit stage, one 512-update body
	// per commit, so the applier is busy before the first POST and stays
	// busy while the POSTs queue beside it.
	var backlogBodies [][]graph.Update
	for i := 0; i < backlog; i++ {
		backlogBodies = append(backlogBodies, w.NextBatch())
	}
	var applying atomic.Bool
	applying.Store(true)
	go func() {
		defer applying.Store(false)
		for _, b := range backlogBodies {
			srv.commit(fromClient, []resilience.Record{{Batch: b}}, nil)
		}
	}()
	client := ts.Client()
	var posts []time.Duration
	for i, body := range wire {
		busy := applying.Load()
		start := time.Now()
		resp, err := client.Post(ts.URL+"/v1/updates", "application/json", bytes.NewReader(body))
		took := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		var sink bytes.Buffer
		sink.ReadFrom(resp.Body)
		resp.Body.Close()
		if busy {
			posts = append(posts, took)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %d: status %d: %s", i, resp.StatusCode, sink.Bytes())
		}
	}
	// Under -race an apply takes ~10× longer, so the backlog gets a minute.
	waitFor(t, time.Minute, func() bool { return !applying.Load() && srv.Quiesced() }, "the backlog to drain")

	// The backlog's applies are filed in the power-of-two size class that
	// holds batch.
	lo := 1 << (bits.Len(batch) - 1)
	class := fmt.Sprintf("%d-%d", lo, 2*lo-1)
	var apply time.Duration
	for _, b := range srv.applyLat.report() {
		if b.Sizes == class {
			apply = time.Duration(b.P50Ms * float64(time.Millisecond))
		}
	}
	if apply == 0 || len(posts) < 5 {
		t.Fatalf("%d POSTs beside a backlog, median apply %v: the applier was never busy", len(posts), apply)
	}
	slices.Sort(posts)
	post := posts[len(posts)/2]
	t.Logf("median POST /v1/updates %v over %d posts beside a median %d-update apply of %v", post, len(posts), batch, apply)
	if post*4 >= apply {
		t.Fatalf("median POST %v is not under a quarter of the median apply %v: admission waits for the applier", post, apply)
	}
}
