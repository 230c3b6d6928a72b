package server

import (
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"cisgraph/internal/core"
)

// The recorder must bucket by floor(log2 size), bound its per-bucket sample
// ring, and report ordered percentiles.
func TestApplyLatRecorder(t *testing.T) {
	var r applyLatRecorder
	r.record(0, time.Second) // ignored: empty batches never reach the engines
	for i := 0; i < applyLatRing+100; i++ {
		r.record(6, time.Duration(i)*time.Microsecond) // bucket 4-7
	}
	r.record(1, 5*time.Millisecond) // bucket 1-1
	rep := r.report()
	if len(rep) != 2 {
		t.Fatalf("report has %d buckets, want 2: %+v", len(rep), rep)
	}
	if rep[0].Sizes != "1-1" || rep[0].Count != 1 {
		t.Fatalf("bucket 0 = %+v, want sizes 1-1 count 1", rep[0])
	}
	b := rep[1]
	if b.Sizes != "4-7" || b.Count != applyLatRing+100 {
		t.Fatalf("bucket 1 = %+v, want sizes 4-7 count %d", b, applyLatRing+100)
	}
	if !(b.P50Ms <= b.P90Ms && b.P90Ms <= b.P99Ms && b.P99Ms <= b.MaxMs) {
		t.Fatalf("percentiles out of order: %+v", b)
	}
	// The ring retains only the newest applyLatRing samples, so the oldest
	// (fastest) 100 must have been evicted: the minimum retained sample is
	// 100µs, hence p50 ≥ that.
	if b.P50Ms < 0.1 {
		t.Fatalf("p50 %.4fms implies evicted samples were reported", b.P50Ms)
	}
}

// TestApplyLatReportBesideRecord: report copies the rings under the lock and
// sorts outside it, so every class it renders must still come from one
// consistent snapshot while commits keep recording. Each writer files a fixed,
// scrambled sample sequence into its own size class, so a rendered Count
// names exactly which samples the ring held; the percentiles must equal
// those of a sorted reference of them. Run with -race.
func TestApplyLatReportBesideRecord(t *testing.T) {
	sizes := map[string]int{"1-1": 1, "4-7": 6, "64-127": 100, "512-1023": 600}
	const perWriter = 4 * applyLatRing
	// sample is the i-th duration recorded into the class of size n: 7919 is
	// prime, so i ↦ 7919·i mod perWriter permutes the sequence.
	sample := func(n, i int) time.Duration {
		return time.Duration(n+(i*7919)%perWriter) * time.Microsecond
	}
	var r applyLatRecorder
	var writers sync.WaitGroup
	for _, n := range sizes {
		writers.Add(1)
		go func(n int) {
			defer writers.Done()
			for i := 0; i < perWriter; i++ {
				r.record(n, sample(n, i))
			}
		}(n)
	}
	check := func(rep []ApplyLatBucket) {
		t.Helper()
		for _, b := range rep {
			n, ok := sizes[b.Sizes]
			if !ok {
				t.Fatalf("unexpected class %q", b.Sizes)
			}
			var ref []time.Duration
			for i := max(0, int(b.Count)-applyLatRing); i < int(b.Count); i++ {
				ref = append(ref, sample(n, i))
			}
			slices.Sort(ref)
			want := ApplyLatBucket{
				Sizes: b.Sizes,
				Count: b.Count,
				P50Ms: msOf(latPercentile(ref, 0.50)),
				P90Ms: msOf(latPercentile(ref, 0.90)),
				P99Ms: msOf(latPercentile(ref, 0.99)),
				MaxMs: msOf(ref[len(ref)-1]),
			}
			if b != want {
				t.Fatalf("class %s after %d records: got %+v, want %+v", b.Sizes, b.Count, b, want)
			}
		}
	}
	done := make(chan struct{})
	go func() {
		writers.Wait()
		close(done)
	}()
	reports := 0
	for running := true; running; reports++ {
		select {
		case <-done:
			running = false
		default:
		}
		check(r.report())
	}
	final := r.report()
	if len(final) != len(sizes) {
		t.Fatalf("final report has %d classes, want %d", len(final), len(sizes))
	}
	for _, b := range final {
		if b.Count != perWriter {
			t.Fatalf("class %s counted %d records, want %d", b.Sizes, b.Count, perWriter)
		}
	}
	t.Logf("%d reports checked beside %d records", reports, len(sizes)*perWriter)
}

// End to end: applied batches must surface engine apply-latency percentiles
// in /healthz, split by batch size — and a server configured with
// PropagateWorkers, which is accepted and ignored, must serve the same
// answers as a default one.
func TestApplyLatencyHealthz(t *testing.T) {
	w := testWorkload(t)
	cfgSerial := testServerConfig()
	cfgPar := testServerConfig()
	cfgPar.PropagateWorkers = 4

	srvS, err := New(w.Initial(), testAlgo(t), cfgSerial)
	if err != nil {
		t.Fatal(err)
	}
	defer srvS.Drain()
	srvP, err := New(w.Initial(), testAlgo(t), cfgPar)
	if err != nil {
		t.Fatal(err)
	}
	defer srvP.Drain()

	tsS := httptest.NewServer(srvS.Handler())
	defer tsS.Close()
	tsP := httptest.NewServer(srvP.Handler())
	defer tsP.Close()

	qs := []core.Query{{S: 0, D: 3}, {S: 1, D: 5}}
	for _, q := range qs {
		postJSON(t, tsS.Client(), tsS.URL+"/v1/query", queryRequest{S: uint32(q.S), D: uint32(q.D)})
		postJSON(t, tsP.Client(), tsP.URL+"/v1/query", queryRequest{S: uint32(q.S), D: uint32(q.D)})
	}
	for i := 0; i < 3; i++ {
		batch := w.NextBatch()
		postUpdatesHTTP(t, tsS.Client(), tsS.URL, batch)
		postUpdatesHTTP(t, tsP.Client(), tsP.URL, batch)
	}
	waitQuiescedSrv(t, srvS)
	waitQuiescedSrv(t, srvP)

	// The answer lists, not the whole body: the batch count depends on how
	// each server's window cut the same posts.
	var ansS, ansP answersResponse
	getJSON(t, tsS.Client(), tsS.URL+"/v1/answers", &ansS)
	getJSON(t, tsP.Client(), tsP.URL+"/v1/answers", &ansP)
	if !slices.Equal(ansS.Answers, ansP.Answers) {
		t.Fatalf("PropagateWorkers server answered %v, default server %v", ansP.Answers, ansS.Answers)
	}

	var hz healthzResponse
	getJSON(t, tsP.Client(), tsP.URL+"/healthz", &hz)
	if len(hz.ApplyLatency) == 0 {
		t.Fatal("healthz apply_latency empty after applied batches")
	}
	var total uint64
	for _, b := range hz.ApplyLatency {
		if b.Sizes == "" || b.Count == 0 {
			t.Fatalf("malformed apply-latency bucket %+v", b)
		}
		if b.P50Ms > b.P90Ms || b.P90Ms > b.P99Ms || b.P99Ms > b.MaxMs {
			t.Fatalf("apply-latency percentiles out of order: %+v", b)
		}
		total += b.Count
	}
	if total != hz.Batches {
		t.Fatalf("apply-latency counts %d != applied batches %d", total, hz.Batches)
	}
}
