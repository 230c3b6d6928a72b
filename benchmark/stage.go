package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/replication"
	"cisgraph/internal/resilience"
	"cisgraph/internal/server"
	"cisgraph/internal/stats"
	"cisgraph/internal/watch"
)

// span is one timed call into a layer. Spans of one group share its id and
// hang off the group's own span; a layer's self time is its span minus the
// child spans inside it. onPath marks calls the workload's daemon actually
// makes per commit — only those enter the self-time shares and the coverage
// figure (a binary workload's POST handler span, say, is recorded but off
// path).
type span struct {
	Name   string `json:"name"`
	Group  int    `json:"group"`
	Parent int    `json:"parent"` // index into the span list, -1 for a group span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	OnPath bool   `json:"on_path"`
}

type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, group, parent int, onPath bool) int {
	t.spans = append(t.spans, span{Name: name, Group: group, Parent: parent, OnPath: onPath, Start: time.Since(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = time.Since(t.epoch).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// child records a span of known duration inside parent, starting with it:
// the twin engine's time, measured beside the pool call it explains.
func (t *tracer) child(name string, group, parent int, d time.Duration) {
	p := t.spans[parent]
	t.spans = append(t.spans, span{Name: name, Group: group, Parent: parent, OnPath: p.OnPath, Start: p.Start, End: p.Start + d.Nanoseconds()})
}

// layerOf is the package a span belongs to: the name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per span name, duration minus child durations (never below
// zero: a twin's time is measured apart from the call it is charged to).
func (t *tracer) selfTimes(onPathOnly bool) map[string]time.Duration {
	childSum := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if onPathOnly && !s.OnPath {
			continue
		}
		if self := s.End - s.Start - childSum[i]; self > 0 {
			out[s.Name] += time.Duration(self)
		}
	}
	return out
}

// total sums the full durations of the spans called name.
func (t *tracer) total(name string) (time.Duration, int) {
	var d int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
			n++
		}
	}
	return time.Duration(d), n
}

// countingFS wraps the real filesystem behind resilience's FS seam and counts
// what the WAL does to it.
type countingFS struct {
	resilience.OsFS
	writes, bytes, syncs atomic.Int64
	syncNs               []int64 // one goroutine appends: the stage replay
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (resilience.File, error) {
	f, err := c.OsFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	resilience.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writes.Add(1)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.syncs.Add(1)
	f.fs.syncNs = append(f.fs.syncNs, time.Since(t0).Nanoseconds())
	return err
}

// stageGroup is how many updates one replayed group holds: what the daemon's
// commit loop typically gathers under that workload.
func stageGroup(w workload) int {
	switch {
	case w.json, w.rate > 0:
		return w.frame // one body is one batch; a paced frame commits alone
	case w.follower:
		return w.frame * w.window // the whole window gathers while acks wait
	default:
		return 512 // FastGroupMax: a saturated fast path fills its groups
	}
}

// stageResult is what the stage replay measured.
type stageResult struct {
	tr       *tracer
	updates  int
	groups   int
	dropped  int
	fs       *countingFS
	counters map[string]int64 // twin engine
	skipped  int
	process  int
	allocs   uint64
	changed  int
	coldMS   float64
	stateB   int64
	events   int
	hub      *watch.Hub
	replayNs int64
	restoNs  int64
	records  int
	catchup  float64 // records/s through Source → Tailer
}

// stageReplay feeds the workload's own update stream, in fixed groups on one
// goroutine, through each layer's public entry points in the daemon's commit
// order: frame encode/decode → sanitize → WAL append → shadow apply → query
// pool (with a twin engine beside it to split pool from core) → watch
// publish, plus the HTTP handlers of a live in-process server. It then times
// WAL replay, Restore and a replication catch-up over the log it wrote.
func (e *env) stageReplay(w workload, seed int64) (*stageResult, error) {
	dir, err := os.MkdirTemp(e.work, "stage-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) // the WAL and checkpoint it wrote are read before it returns
	in, err := genInputs(w, e.size.scale, seed)
	if err != nil {
		return nil, err
	}
	churn, queries, initial := in.churn, in.queries, graph.FromEdgeList(in.initial)
	a := algo.PPSP{}
	propagate := 0
	if w.propagate {
		propagate = e.iso.daemonCPUs
	}

	// A drained server leaves a position-0 checkpoint holding the queries and
	// an empty WAL: what Restore needs to bring the queries back later.
	walDir, ckpt := filepath.Join(dir, "wal"), filepath.Join(dir, "ckpt")
	seedSrv, err := server.New(initial, a, server.Config{WALPath: walDir, CheckpointPath: ckpt, PropagateWorkers: propagate})
	if err != nil {
		return nil, err
	}
	for _, q := range queries {
		seedSrv.Pool().Register(q)
	}
	if err := seedSrv.Drain(); err != nil {
		return nil, err
	}

	res := &stageResult{tr: &tracer{epoch: time.Now()}, fs: &countingFS{}, hub: watch.New()}
	tr := res.tr
	wal, err := resilience.OpenSegmentedWAL(walDir, resilience.SegWALOptions{FS: res.fs})
	if err != nil {
		return nil, err
	}
	defer wal.Close()
	shadow := initial.Clone()
	san := resilience.NewSanitizer(resilience.PolicyDrop, stats.NewCounters())
	var poolOpts, twinOpts []core.MultiOption
	twinOpts = append(twinOpts, core.WithWorkers(e.iso.daemonCPUs))
	if propagate >= 2 {
		poolOpts = append(poolOpts, core.WithPropagateWorkers(propagate))
		twinOpts = append(twinOpts, core.WithPropagateWorkers(propagate))
	}
	pool := server.NewQueryPool(initial, a, 1, e.iso.daemonCPUs, core.StoreDense, true, poolOpts...)
	for _, q := range queries {
		pool.Register(q)
	}
	twin := core.NewMultiCISO(twinOpts...)
	t0 := time.Now()
	twin.Reset(initial.Clone(), a, queries)
	res.coldMS = float64(time.Since(t0).Microseconds()) / 1e3 / float64(len(queries))
	res.stateB = twin.StateBytes() / int64(len(queries))

	// The live server takes every group through its real HTTP handlers.
	live, err := server.New(initial, a, server.Config{PropagateWorkers: propagate})
	if err != nil {
		return nil, err
	}
	defer func() { _ = live.Drain() }() // no WAL, no checkpoint: nothing to fail
	for _, q := range queries {
		live.Pool().Register(q)
	}
	handler := live.Handler()
	sub := res.hub.Subscribe(64, nil)
	defer sub.Cancel()

	gsize := stageGroup(w)
	res.groups = e.size.stageUpd / gsize
	if w.rate > 0 {
		res.groups /= 4 // tiny groups at Q=128 are the costliest per update
	}
	var (
		frameBuf, payload []byte
		ups, decoded      []graph.Update
		jsonBuf           bytes.Buffer
		ms                runtime.MemStats
	)
	seq := uint64(1)
	for g := 0; g < res.groups; g++ {
		ups = churn.Fill(ups[:0], gsize)
		res.updates += len(ups)
		root := tr.begin("group", g, -1, true)

		// Framing: what the client writes and the daemon's reader decodes.
		batch := ups
		if !w.json {
			decoded = decoded[:0]
			for off := 0; off < len(ups); off += w.frame {
				id := tr.begin("server.binproto.encode", g, root, false) // the client's cost
				frameBuf = server.AppendBinFrameSession(frameBuf[:0], 1, seq, ups[off:off+w.frame])
				tr.end(id)
				seq += uint64(w.frame)
				id = tr.begin("server.binproto.decode", g, root, true)
				var derr error
				decoded, payload, _, _, derr = server.ReadBinFrameSession(bytes.NewReader(frameBuf), decoded, payload)
				tr.end(id)
				if derr != nil {
					return nil, fmt.Errorf("stage replay: decode: %w", derr)
				}
			}
			batch = decoded
		}

		// The live server: POST the group (the JSON workload's own ingest
		// call), let it apply, then read the answers it now serves — a cache
		// miss, as every read beside a busy writer is.
		if err := encodeUpdatesJSON(&jsonBuf, ups); err != nil {
			return nil, err
		}
		id := tr.begin("server.http.post", g, root, w.json)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/updates", bytes.NewReader(jsonBuf.Bytes())))
		tr.end(id)
		if rec.Code != http.StatusAccepted {
			return nil, fmt.Errorf("stage replay: POST /v1/updates: status %d", rec.Code)
		}
		for !live.Quiesced() {
			time.Sleep(50 * time.Microsecond)
		}
		id = tr.begin("server.http.answers", g, root, false) // the reader's call, not the commit's
		rec = httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/answers", nil))
		tr.end(id)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("stage replay: GET /v1/answers: status %d", rec.Code)
		}

		// Sanitize: per update on the fast path, per batch on the batch path.
		id = tr.begin("resilience.sanitize", g, root, true)
		var clean []graph.Update
		if w.json {
			var serr error
			if clean, _, serr = san.Sanitize(shadow, batch); serr != nil {
				return nil, fmt.Errorf("stage replay: sanitize: %w", serr)
			}
		} else {
			ss := san.Stream(shadow)
			for _, up := range batch {
				if ss.Check(up) == "" {
					clean = append(clean, up)
				}
			}
		}
		tr.end(id)
		res.dropped += len(batch) - len(clean)

		// WAL: one record per update on the fast path, one per batch else;
		// one write and one fsync per group either way.
		var recs []resilience.Record
		if w.json {
			recs = []resilience.Record{{Batch: clean}}
		} else {
			recs = make([]resilience.Record, len(clean))
			for i := range clean {
				recs[i] = resilience.Record{Batch: clean[i : i+1], SID: 1, Seq: seq - uint64(len(clean)) + uint64(i)}
			}
		}
		id = tr.begin("resilience.wal.append", g, root, true)
		_, werr := wal.AppendRecords(recs)
		tr.end(id)
		if werr != nil {
			return nil, fmt.Errorf("stage replay: wal append: %w", werr)
		}
		res.records += len(recs)

		id = tr.begin("graph.apply", g, root, true)
		shadow.Apply(clean)
		tr.end(id)

		// The twin engine runs the same call the pool makes underneath, so
		// pool time minus twin time is the pool's own.
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		t1 := time.Now()
		var delta core.BatchDelta
		if w.json {
			delta = twin.ApplyBatchDelta(clean)
		} else {
			_, delta, _ = twin.ApplyUpdatesDelta(clean)
		}
		twinTook := time.Since(t1)
		runtime.ReadMemStats(&ms)
		res.allocs += ms.Mallocs - before
		res.skipped += delta.Skipped
		res.process += delta.Processed

		id = tr.begin("server.pool", g, root, true)
		var changed []core.ChangedAnswer
		var perr error
		if w.json {
			changed, perr = pool.ApplyBatch(clean)
		} else {
			_, changed, perr = pool.ApplyUpdates(clean)
		}
		tr.end(id)
		if perr != nil {
			return nil, fmt.Errorf("stage replay: pool: %w", perr)
		}
		tr.child("core.apply", g, id, twinTook)
		res.changed += len(changed)

		if len(changed) > 0 {
			events := make([]watch.Event, len(changed))
			for i, ca := range changed {
				events[i] = watch.Event{ID: ca.Index, Value: ca.Value}
			}
			id = tr.begin("watch.publish", g, root, true)
			res.hub.Publish(uint64(res.updates), time.Now().UnixNano(), events)
			tr.end(id)
			res.events += len(events)
			for len(sub.C) > 0 {
				<-sub.C
			}
		}
		tr.end(root)
	}
	res.counters = twin.Counters().Snapshot()

	// The pool and the twin saw the same stream: their answers must agree
	// with each other and with the live server.
	want := twin.Answers()
	snap := pool.Answers()
	liveSnap := live.Pool().Answers()
	for i := range want {
		if snap.Values[i] != want[i] || liveSnap.Values[i] != want[i] {
			return nil, fmt.Errorf("stage replay: query %d: pool %v, live server %v, twin engine %v", i, snap.Values[i], liveSnap.Values[i], want[i])
		}
	}

	if err := wal.Close(); err != nil {
		return nil, err
	}
	t2 := time.Now()
	replayed, err := resilience.ReplaySegmented(walDir)
	res.replayNs = time.Since(t2).Nanoseconds()
	if err != nil || len(replayed) != res.records {
		return nil, fmt.Errorf("stage replay: WAL replay gave %d of %d records: %v", len(replayed), res.records, err)
	}
	// Catch-up first: the restored server's drain checkpoints and thereby
	// retires the very segments the tailer would read.
	if res.catchup, err = replicationCatchup(walDir, res.records); err != nil {
		return nil, err
	}
	t3 := time.Now()
	restored, err := server.Restore(a, server.Config{WALPath: walDir, CheckpointPath: ckpt, PropagateWorkers: propagate}, nil)
	res.restoNs = time.Since(t3).Nanoseconds()
	if err != nil {
		return nil, fmt.Errorf("stage replay: restore: %w", err)
	}
	rs := restored.Pool().Answers()
	for i := range want {
		if rs.Values[i] != want[i] {
			_ = restored.Drain()
			return nil, fmt.Errorf("stage replay: restored query %d: %v, twin engine %v", i, rs.Values[i], want[i])
		}
	}
	if err := restored.Drain(); err != nil {
		return nil, err
	}
	return res, nil
}

// replicationCatchup serves the WAL in dir through a replication.Source over
// httptest and tails it from index 0 with a replication.Tailer, returning
// records per second until the tailer has them all.
func replicationCatchup(dir string, records int) (float64, error) {
	wal, err := resilience.OpenSegmentedWAL(dir, resilience.SegWALOptions{})
	if err != nil {
		return 0, err
	}
	defer wal.Close()
	src := &replication.Source{WAL: wal, LongPoll: 100 * time.Millisecond}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+replication.PathSegments, src.ServeSegments)
	mux.HandleFunc("GET "+replication.PathTail, src.ServeTail)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got atomic.Int64
	done := make(chan struct{})
	tail := replication.NewTailer(replication.TailerConfig{Leader: ts.URL, LongPoll: 100 * time.Millisecond, Client: ts.Client()})
	tail.Apply = func(rec resilience.Record) error {
		if got.Add(1) == int64(records) {
			close(done)
		}
		return nil
	}
	tail.Rebootstrap = func() (uint64, error) { return 0, fmt.Errorf("unexpected re-bootstrap") }
	t0 := time.Now()
	errc := make(chan error, 1)
	go func() { errc <- tail.Run(ctx, wal.OldestIndex()) }()
	select {
	case <-done:
	case err := <-errc:
		return 0, fmt.Errorf("replication catch-up: tailer stopped after %d of %d records: %v", got.Load(), records, err)
	case <-time.After(60 * time.Second):
		return 0, fmt.Errorf("replication catch-up: %d of %d records after 60s", got.Load(), records)
	}
	took := time.Since(t0)
	cancel()
	<-errc
	return float64(records) / took.Seconds(), nil
}

// writeTrace stores the spans where README.md says to look for them.
func (e *env) writeTrace(w workload, tr *tracer, client []span) (string, error) {
	path := filepath.Join(e.out, w.name+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload    string `json:"workload"`
		StageReplay []span `json:"stage_replay"`
		Client      []span `json:"client"`
	}{w.name, tr.spans, client})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
