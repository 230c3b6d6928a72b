package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
)

// gateAlgo holds the engine open at one ⊕: the first Propagate call after
// hold takes the armed release channel, signals entered and blocks until
// the channel closes. Later calls pass straight through.
type gateAlgo struct {
	algo.Algorithm
	held    chan chan struct{} // capacity 1: holds the release channel while armed
	entered chan struct{}      // capacity 1
}

func (g *gateAlgo) Propagate(u algo.Value, w float64) algo.Value {
	select {
	case release := <-g.held:
		g.entered <- struct{}{}
		<-release
	default:
	}
	return g.Algorithm.Propagate(u, w)
}

// readBound is how long a daemon read may take while the engine is held.
const readBound = 2 * time.Second

// TestReadersNeverWaitForEngine: /v1/answers, /healthz and /metrics answer
// while the engine's write lock is held — first by a batch apply, then by a
// new source's cold start — each within readBound, and they report the state
// from before the held write. Every engine writer holds the lock for its
// whole run, so a reader that took it would wait the write out.
func TestReadersNeverWaitForEngine(t *testing.T) {
	w := testWorkload(t)
	ga := &gateAlgo{Algorithm: testAlgo(t), held: make(chan chan struct{}, 1), entered: make(chan struct{}, 1)}
	srv, err := New(w.Initial(), ga, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	pairs := w.QueryPairsConnected(8)
	q0 := core.Query{S: pairs[0][0], D: pairs[0][1]}
	if _, _, err := srv.Pool().Register(q0); err != nil {
		t.Fatal(err)
	}
	var q1 core.Query
	for _, p := range pairs[1:] {
		if p[0] != q0.S {
			q1 = core.Query{S: p[0], D: p[1]}
			break
		}
	}
	if q1 == (core.Query{}) {
		t.Fatal("no second source among the query pairs")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: readBound}

	get := func(what, path string) []byte {
		t.Helper()
		start := time.Now()
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Errorf("%s: GET %s did not answer within %s: %v", what, path, readBound, err)
			return nil
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("%s: GET %s: status %d, %v", what, path, resp.StatusCode, err)
			return nil
		}
		t.Logf("%s: GET %s took %s", what, path, time.Since(start).Round(time.Microsecond))
		return body
	}
	// hold starts write, waits until the engine is held open inside it, and
	// reads every endpoint before letting it go; it returns the reads.
	hold := func(what string, write func()) (answers answersResponse, hz healthzResponse) {
		t.Helper()
		release := make(chan struct{})
		ga.held <- release
		var wg sync.WaitGroup
		defer wg.Wait()
		defer close(release)
		wg.Add(1)
		go func() {
			defer wg.Done()
			write()
		}()
		select {
		case <-ga.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the engine never reached the gate", what)
		}
		if body := get(what, "/v1/answers"); body != nil {
			json.Unmarshal(body, &answers)
		}
		if body := get(what, "/healthz"); body != nil {
			json.Unmarshal(body, &hz)
		}
		get(what, "/metrics")
		return answers, hz
	}

	before := srv.Pool().Answers().Values[0]
	body, err := json.Marshal(updatesReq([]graph.Update{graph.Add(q0.S, q0.D, 0.5)}))
	if err != nil {
		t.Fatal(err)
	}
	ans, hz := hold("apply", func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/updates", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Errorf("POST /v1/updates: status %d", resp.StatusCode)
		}
	})
	if hz.Queries != 1 || hz.StateMB <= 0 || len(ans.Answers) != 1 || algo.Value(ans.Answers[0].Value) != before {
		t.Errorf("apply: read %d queries, state %v MB, answers %+v; want 1, > 0, [%v]", hz.Queries, hz.StateMB, ans.Answers, before)
	}
	waitQuiescedSrv(t, srv)
	if got := srv.Pool().Answers().Values[0]; got != 0.5 {
		t.Fatalf("after the apply: answer %v, want the direct edge's 0.5", got)
	}

	var id int
	var first algo.Value
	_, hz = hold("new-source registration", func() {
		var err error
		if id, first, err = srv.Pool().Register(q1); err != nil {
			t.Error(err)
		}
	})
	if hz.Queries != 1 {
		t.Errorf("new-source registration: read %d queries mid-registration, want 1", hz.Queries)
	}
	cs := core.NewColdStart()
	cs.Reset(srv.Pool().Topology().Clone(), testAlgo(t), q1)
	if id != 1 || first != cs.Answer() || srv.Pool().NumQueries() != 2 {
		t.Fatalf("registration: id %d answer %v, %d queries; want 1, cold start %v, 2", id, first, srv.Pool().NumQueries(), cs.Answer())
	}
}

// TestSnapshotsStayImmutable: a published Snapshot is never written again.
// Readers keep the snapshots they load and re-check them while a writer
// folds changed answers and a registrar adds queries, and every snapshot
// taken before a batch still holds, after it, the values it was published
// with. Run with -race, the readers' re-checks also race any in-place write.
func TestSnapshotsStayImmutable(t *testing.T) {
	w := testWorkload(t)
	a := testAlgo(t)
	pool := NewQueryPool(w.Initial(), a, 1, 1, core.StoreDense, true)
	pairs := w.QueryPairsConnected(16)
	for _, p := range pairs[:8] {
		if _, _, err := pool.Register(core.Query{S: p[0], D: p[1]}); err != nil {
			t.Fatal(err)
		}
	}
	type kept struct {
		snap *Snapshot
		vals []algo.Value
	}
	keep := func() kept {
		s := pool.Answers()
		return kept{s, slices.Clone(s.Values)}
	}
	check := func(where string, k kept) error {
		if !slices.Equal(k.snap.Values, k.vals) {
			return fmt.Errorf("%s: a published snapshot changed from %v to %v", where, k.vals, k.snap.Values)
		}
		return nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []kept
			for {
				select {
				case <-stop:
					return
				default:
				}
				if k := keep(); len(held) == 0 || held[len(held)-1].snap != k.snap {
					held = append(held, k)
				}
				for _, k := range held {
					if err := check("reader", k); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range pairs[8:] {
			if _, _, err := pool.Register(core.Query{S: p[0], D: p[1]}); err != nil {
				t.Error(err)
			}
		}
	}()
	moved := 0
	for i := 0; i < 12; i++ {
		k := keep()
		changed, err := pool.ApplyBatch(w.NextBatch())
		if err != nil {
			t.Fatal(err)
		}
		moved += len(changed)
		if err := check(fmt.Sprintf("batch %d", i), k); err != nil {
			t.Fatal(err)
		}
	}
	if moved == 0 {
		t.Fatal("no batch changed an answer: the check saw no fold")
	}
}

// syncGateFS is a filesystem whose files' Sync blocks while the gate is
// shut: the first blocked Sync signals entered and waits for open to close.
type syncGateFS struct {
	resilience.FS
	shut    atomic.Bool
	entered chan struct{} // capacity 1
	open    chan struct{}
}

func (g *syncGateFS) OpenFile(name string, flag int, perm os.FileMode) (resilience.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return gatedFile{File: f, g: g}, nil
}

type gatedFile struct {
	resilience.File
	g *syncGateFS
}

func (f gatedFile) Sync() error {
	if f.g.shut.Load() {
		select {
		case f.g.entered <- struct{}{}:
		default:
		}
		<-f.g.open
	}
	return f.File.Sync()
}

// TestReadersNeverWaitForWALSync: /healthz and /metrics answer, with the
// WAL's segment count and size, while a group commit's fsync is blocked —
// the append holds the log's lock across the fsync, so a metrics read that
// took it would wait every sync out.
func TestReadersNeverWaitForWALSync(t *testing.T) {
	w := testWorkload(t)
	gate := &syncGateFS{FS: resilience.OsFS{}, entered: make(chan struct{}, 1), open: make(chan struct{})}
	cfg := Config{WALPath: filepath.Join(t.TempDir(), "srv.wal"), FS: gate}
	srv, err := New(w.Initial(), testAlgo(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	gate.shut.Store(true)
	opened := sync.OnceFunc(func() { close(gate.open) })
	defer opened()
	postUpdatesHTTP(t, ts.Client(), ts.URL, w.NextBatch())
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the group commit never reached its fsync")
	}
	client := &http.Client{Timeout: readBound}
	var hz healthzResponse
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz did not answer within %s during a WAL fsync: %v", readBound, err)
	}
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil || hz.WALSegments != 1 || hz.WALBytes <= 0 || hz.Quiesced {
		t.Fatalf("healthz during a WAL fsync: %+v (%v); want one segment, its bytes, not quiesced", hz, err)
	}
	resp, err = client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics did not answer within %s during a WAL fsync: %v", readBound, err)
	}
	resp.Body.Close()
	gate.shut.Store(false)
	opened()
	waitQuiescedSrv(t, srv)
	if srv.Applied() != 1 {
		t.Fatalf("position %d after the released commit, want 1", srv.Applied())
	}
}
