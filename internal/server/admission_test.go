package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"

	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/stream"
)

// TestAdmissionBesideLongApply: on a daemon whose CPU budget is one, a
// POST /v1/updates — which only enqueues — must not wait for the applier's
// time slice. A backlog of 512-update deletion batches on a scale-12 graph
// with Q=64 keeps the applier busy back to back; the median POST measured
// while it works through them must take under a quarter of the median
// apply. Without SizeProcs's spare P the POST waits for an apply to end or
// for the runtime's 10 ms preemption tick.
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

	const batch, backlog, bodies = 512, 16, 32
	ds := graph.RMAT("admit", 12, 16<<12, graph.DefaultRMAT, graph.MaxRawWeight, 5)
	w, err := stream.New(ds, stream.Config{LoadFraction: 0.5, AddsPerBatch: 0, DelsPerBatch: batch, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(w.Initial(), testAlgo(t), Config{BatchMaxSize: batch, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	if got := srv.cfg.Workers; got != budget {
		t.Fatalf("Workers defaulted to %d, want the CPU budget %d", got, budget)
	}
	for _, p := range w.QueryPairsConnected(64) {
		srv.Pool().Register(core.Query{S: p[0], D: p[1]})
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wire := make([][]byte, bodies)
	for i := range wire {
		if wire[i], err = json.Marshal(updatesReq(w.NextBatch())); err != nil {
			t.Fatal(err)
		}
	}

	// The backlog goes straight into the batcher, so the applier is busy
	// before the first POST and stays busy: every POST adds one more batch.
	for i := 0; i < backlog; i++ {
		if _, _, err := srv.bat.Offer(w.NextBatch()); err != nil {
			t.Fatal(err)
		}
	}
	client := ts.Client()
	var posts []time.Duration
	for i, body := range wire {
		busy := !srv.bat.Quiesced()
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
	waitQuiescedSrv(t, srv)

	var apply time.Duration
	for _, b := range srv.applyLat.report() {
		if b.Sizes == "512-1023" {
			apply = time.Duration(b.P50Ms * float64(time.Millisecond))
		}
	}
	if apply == 0 || len(posts) < 5 {
		t.Fatalf("%d POSTs beside a backlog, median apply %v: the applier was never busy", len(posts), apply)
	}
	slices.Sort(posts)
	post := posts[len(posts)/2]
	t.Logf("median POST /v1/updates %v over %d posts beside a median 512-update apply of %v", post, len(posts), apply)
	if post*4 >= apply {
		t.Fatalf("median POST %v is not under a quarter of the median apply %v: admission waits for the applier", post, apply)
	}
}
