// Command loadgen replays a datagen batch trace against a running cisgraphd
// and reports ingest throughput plus update/query latency percentiles. With
// -verify it also runs the same stream through an offline MultiCISO engine
// and asserts the daemon's served answers are identical — the end-to-end
// correctness check for the serving layer.
//
// Updates are sent in order on a single connection (streaming-graph
// updates are ordered: a deletion must not overtake its addition), while
// -readers concurrent pollers hammer GET /v1/answers to measure read
// latency under write load. Two wire protocols are supported:
//
//   - -proto json (default): POST /v1/updates batches; visibility latency is
//     sampled by timing POST→quiesced on every Nth request.
//   - -proto binary: the CGBIN/2 framed protocol against -binary-addr (or
//     the -binary-addrs failover list), with -window frames pipelined; every
//     ack carries the commit position after the frame became durable AND
//     visible, so the ack round trip IS the per-update visibility latency.
//     Every update carries (session, seq) — -session, or a fresh random id
//     per run — and un-acked updates are replayed across reconnects; the
//     server dedups, so a leader kill mid-stream loses nothing and
//     duplicates nothing.
//
// JSON writes follow 421 write-handoffs: when the target demotes to follower
// mid-run, the Location header re-points the stream at the new leader and the
// redirect count lands in the summary.
//
// Examples:
//
//	datagen -standin OR -scale 10 -out or.bel -split -batches 8
//	cisgraphd -file or.bel.initial &
//	loadgen -addr http://localhost:8372 -initial or.bel.initial \
//	        -trace or.bel.batches -queries 4 -rate 50000 -verify
//	cisgraphd -file or.bel.initial -binary-addr :8373 &
//	loadgen -addr http://localhost:8372 -proto binary -binary-addr localhost:8373 \
//	        -initial or.bel.initial -trace or.bel.batches -queries 4 -verify
//
// A drain/restart window can be exercised with -offset/-limit: replay the
// first half, SIGTERM the daemon, restart it with -resume, then replay the
// rest with -offset and -verify (verification always covers updates
// [0, offset+limit)).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
	"cisgraph/internal/server"
	"cisgraph/internal/stream"
)

// quiesceTimeout bounds each wait for the daemon to settle: quiescence
// after the replay, watch subscribers' views, replicas' lag.
const quiesceTimeout = 30 * time.Second

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "http://localhost:8372", "cisgraphd base URL")
		proto    = flag.String("proto", "json", "ingest protocol: json (POST /v1/updates) or binary (CGBIN/2 framed TCP)")
		binAddr  = flag.String("binary-addr", "localhost:8373", "cisgraphd binary ingest address (for -proto binary)")
		binAddrs = flag.String("binary-addrs", "", "comma-separated failover list of binary ingest addresses (for -proto binary); reconnects cycle through it until a leader acks")
		session  = flag.Uint64("session", 0, "CGBIN/2 session id stamped on every update with its seq (0 = a fresh random id per run); un-acked updates replay across reconnects and leader failover — the server dedups, so each lands exactly once")
		window   = flag.Int("window", 64, "frames in flight on the binary connection (for -proto binary)")
		trace    = flag.String("trace", "", "batch trace file to replay (datagen -split output); required")
		initial  = flag.String("initial", "", "initial snapshot edge list (required for -verify and -queries)")
		postSize = flag.Int("post-size", 64, "updates per POST request or binary frame")
		rate     = flag.Float64("rate", 0, "target update rate in updates/s (0 = as fast as possible)")
		offset   = flag.Int("offset", 0, "skip the first N trace updates (already replayed by a previous run)")
		limit    = flag.Int("limit", 0, "replay at most N updates after -offset (0 = rest of trace)")
		queries  = flag.Int("queries", 0, "register N deterministic query pairs before replaying")
		readers  = flag.Int("readers", 2, "concurrent GET /v1/answers pollers during replay")
		watchN   = flag.Int("watch", 0, "concurrent /v1/watch SSE subscribers during replay: report commit->delivery latency (server ts to client receive) and cross-check each subscriber's delta-built view against the final /v1/answers")
		seed     = flag.Int64("seed", 42, "seed for query-pair selection and retry-backoff jitter (reproducible runs)")
		replicas = flag.String("replicas", "", "comma-separated follower base URLs: fan reads across them during replay, then wait for lag 0 and cross-check every answer against the leader")
		algoStr  = flag.String("algo", "PPSP", "algorithm the daemon runs (for -verify)")
		verify   = flag.Bool("verify", false, "compare served answers against an offline engine on the same stream")
		jsonOut  = flag.String("json", "", "also write the report as JSON to this file")

		verifyDurable = flag.Bool("verify-durable", false,
			"rebuild the daemon's durable state offline (checkpoint + WAL) and compare served answers; needs -wal and/or -checkpoint")
		walPath  = flag.String("wal", "", "daemon's segmented WAL directory (for -verify-durable)")
		ckptPath = flag.String("checkpoint", "", "daemon's checkpoint file (for -verify-durable)")
	)
	flag.Parse()

	// -verify-durable without a trace is a pure check: compare the running
	// daemon against its own durable artefacts and exit. The chaos loop
	// runs this after every SIGKILL/restart cycle.
	if *trace == "" && *verifyDurable {
		client := &http.Client{Timeout: 30 * time.Second}
		if err := waitHealthy(client, *addr, 10*time.Second); err != nil {
			return err
		}
		n, durable, err := verifyDurableState(client, *addr, *walPath, *ckptPath, *initial, *algoStr)
		if err != nil {
			return err
		}
		fmt.Printf("verify-durable: %d batches durable, %d served answers identical to offline replay\n", durable, n)
		return nil
	}
	if *trace == "" {
		return fmt.Errorf("-trace is required")
	}

	f, err := os.Open(*trace)
	if err != nil {
		return err
	}
	batches, err := stream.ReadTrace(f)
	f.Close()
	if err != nil {
		return err
	}
	var updates []graph.Update
	for _, b := range batches {
		updates = append(updates, b...)
	}
	if *offset > len(updates) {
		return fmt.Errorf("-offset %d beyond trace length %d", *offset, len(updates))
	}
	replay := updates[*offset:]
	if *limit > 0 && *limit < len(replay) {
		replay = replay[:*limit]
	}
	covered := updates[:*offset+len(replay)] // what -verify replays offline

	client := &http.Client{Timeout: 30 * time.Second}
	if err := waitHealthy(client, *addr, 10*time.Second); err != nil {
		return err
	}
	var replicaURLs []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			replicaURLs = append(replicaURLs, r)
		}
	}

	// Register queries: deterministic pairs over the initial snapshot so a
	// daemon restart (or the offline verifier) picks the same set.
	var pairs [][2]graph.VertexID
	if *queries > 0 {
		if *initial == "" {
			return fmt.Errorf("-queries needs -initial to pick pairs from")
		}
		el, err := graph.LoadFile(*initial)
		if err != nil {
			return err
		}
		pairs = pickPairs(el, *queries, *seed)
		for _, p := range pairs {
			if _, err := registerQuery(client, *addr, p[0], p[1]); err != nil {
				return err
			}
		}
		// Followers keep their own query registrations (registration is not
		// WAL-shipped); arming the same pairs in the same order gives every
		// replica the same ids, so answers cross-check one-to-one.
		for _, r := range replicaURLs {
			if err := waitHealthy(client, r, 10*time.Second); err != nil {
				return err
			}
			for _, p := range pairs {
				if _, err := registerQuery(client, r, p[0], p[1]); err != nil {
					return fmt.Errorf("replica %s: %w", r, err)
				}
			}
		}
		fmt.Printf("registered %d queries on %d node(s)\n", len(pairs), 1+len(replicaURLs))
	}

	// Watch subscribers ride along for the whole replay: each holds one
	// /v1/watch SSE stream open, folds delta events into a private view, and
	// records commit->delivery latency from the server's ts stamp. The view
	// is cross-checked against the final polled answers after quiesce — the
	// end-to-end proof that the push path and the poll path agree.
	watchCtx, watchCancel := context.WithCancel(context.Background())
	defer watchCancel()
	var (
		watchers []*watchSub
		watchWG  sync.WaitGroup
	)
	if *watchN > 0 {
		sseClient := &http.Client{} // no timeout: streams live for the run
		for i := 0; i < *watchN; i++ {
			ws := &watchSub{view: make(map[int]float64)}
			watchers = append(watchers, ws)
			watchWG.Add(1)
			go func() {
				defer watchWG.Done()
				ws.run(watchCtx, sseClient, *addr)
			}()
		}
		fmt.Printf("watch: %d /v1/watch subscriber(s) armed\n", *watchN)
	}

	// Replay, paced to -rate, with concurrent answer pollers.
	var (
		postLat    []time.Duration
		queryLat   latRecorder
		stopRead   = make(chan struct{})
		readerErrs atomic.Int64
		wg         sync.WaitGroup
	)
	// With -replicas, pollers fan across leader + followers round-robin;
	// a dead or partitioned node just counts as a reader error (the chaos
	// harness kills nodes mid-run on purpose) and the poller moves on.
	readTargets := append([]string{*addr}, replicaURLs...)
	var readRR atomic.Uint64
	for i := 0; i < *readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				target := readTargets[readRR.Add(1)%uint64(len(readTargets))]
				t0 := time.Now()
				if _, err := getAnswers(client, target); err != nil {
					readerErrs.Add(1)
					time.Sleep(50 * time.Millisecond)
					continue
				}
				queryLat.add(time.Since(t0))
			}
		}()
	}

	start := time.Now()
	posted, retried429, retried503, binDropped := 0, 0, 0, 0
	redirects, reconnects := 0, 0
	var visLat []time.Duration
	switch *proto {
	case "binary":
		addrs := splitAddrs(*binAddrs)
		if len(addrs) == 0 {
			addrs = []string{*binAddr}
		}
		sid := *session
		for sid == 0 {
			// A fixed id would let a second run over the same -offset window
			// dedup to nothing; a random one is a fresh session every run.
			sid = rand.Uint64()
		}
		posted, binDropped, reconnects, visLat, err = replayBinarySession(addrs, sid, uint64(*offset), replay, *postSize, *rate, *window)
		if err != nil {
			return err
		}
		// The ack round trip covers sanitize → WAL fsync → apply → publish;
		// it is both the request latency and the visibility latency.
		postLat = append(postLat, visLat...)
	case "json":
		rng := rand.New(rand.NewSource(*seed ^ 0xbac0ff))
		backoff := 10 * time.Millisecond
		const backoffCap = 2 * time.Second
		// Sample visibility on every visEvery-th accepted POST by waiting for
		// the daemon to quiesce — conservative (it includes the whole batch
		// window), which is exactly the number the fast path is up against.
		const visEvery = 25
		accepted := 0
		writeAddr := *addr
		for at := 0; at < len(replay); {
			end := at + *postSize
			if end > len(replay) {
				end = len(replay)
			}
			if *rate > 0 {
				// Pace: sleep until this chunk's scheduled send time.
				due := start.Add(time.Duration(float64(at) / *rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
			}
			t0 := time.Now()
			status, retryAfter, location, err := postUpdates(client, writeAddr, replay[at:end])
			if err != nil {
				// Transport errors (connection refused, daemon killed) stay
				// hard: the caller decides whether a dead daemon is expected.
				return fmt.Errorf("posting updates %d..%d: %w", at, end, err)
			}
			postLat = append(postLat, time.Since(t0))
			switch status {
			case http.StatusAccepted:
				posted += end - at
				at = end
				backoff = 10 * time.Millisecond
				if accepted++; accepted%visEvery == 0 {
					if err := waitQuiesced(client, *addr, quiesceTimeout); err != nil {
						return err
					}
					visLat = append(visLat, time.Since(t0))
				}
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				// Backpressure (429: queue/gate full) or degraded mode (503:
				// disk breaker open): retry the same chunk with jittered
				// exponential backoff. A Retry-After header overrides the
				// computed delay — the server knows its own probe cadence.
				if status == http.StatusTooManyRequests {
					retried429++
				} else {
					retried503++
				}
				d := backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))
				if retryAfter > 0 {
					d = retryAfter
				}
				time.Sleep(d)
				if backoff *= 2; backoff > backoffCap {
					backoff = backoffCap
				}
			case http.StatusMisdirectedRequest:
				// Write handoff (DESIGN.md §17): the node we targeted is (now)
				// a follower. Follow its Location to the leader and retry the
				// same chunk there; without one (the follower hasn't located a
				// leader yet, mid-failover) back off and re-probe.
				redirects++
				if next := baseURL(location); next != "" && next != writeAddr {
					writeAddr = next
				} else {
					time.Sleep(backoff)
					if backoff *= 2; backoff > backoffCap {
						backoff = backoffCap
					}
				}
				if redirects > 100 {
					return fmt.Errorf("POST /v1/updates: giving up after %d write redirects (421)", redirects)
				}
			default:
				return fmt.Errorf("POST /v1/updates: unexpected status %d", status)
			}
		}
	default:
		return fmt.Errorf("unknown -proto %q (want json or binary)", *proto)
	}
	if err := waitQuiesced(client, *addr, quiesceTimeout); err != nil {
		return err
	}
	elapsed := time.Since(start)
	close(stopRead)
	wg.Wait()

	rep := report{
		Proto:        *proto,
		Updates:      posted,
		Dropped:      binDropped,
		Elapsed:      elapsed.Seconds(),
		UpdatesPerS:  float64(posted) / elapsed.Seconds(),
		Backpressure: retried429,
		Degraded:     retried503,
		Redirects:    redirects,
		Reconnects:   reconnects,
		ReaderErrors: int(readerErrs.Load()),
		PostP50Ms:    ms(percentile(postLat, 0.50)),
		PostP90Ms:    ms(percentile(postLat, 0.90)),
		PostP99Ms:    ms(percentile(postLat, 0.99)),
		VisSamples:   len(visLat),
		VisP50Ms:     ms(percentile(visLat, 0.50)),
		VisP90Ms:     ms(percentile(visLat, 0.90)),
		VisP99Ms:     ms(percentile(visLat, 0.99)),
		QueryReads:   queryLat.count(),
		QueryP50Ms:   ms(queryLat.percentile(0.50)),
		QueryP90Ms:   ms(queryLat.percentile(0.90)),
		QueryP99Ms:   ms(queryLat.percentile(0.99)),
	}
	fmt.Printf("replayed %d updates (%s) in %.2fs (%.0f updates/s), %d backpressure (429) + %d degraded (503) retries\n",
		rep.Updates, rep.Proto, rep.Elapsed, rep.UpdatesPerS, rep.Backpressure, rep.Degraded)
	if rep.Redirects > 0 || rep.Reconnects > 0 {
		fmt.Printf("failover: %d write redirects (421) followed, %d binary reconnects\n",
			rep.Redirects, rep.Reconnects)
	}
	fmt.Printf("update send latency: p50=%.2fms p90=%.2fms p99=%.2fms (%d sends)\n",
		rep.PostP50Ms, rep.PostP90Ms, rep.PostP99Ms, len(postLat))
	fmt.Printf("visibility latency:  p50=%.2fms p90=%.2fms p99=%.2fms (%d samples)\n",
		rep.VisP50Ms, rep.VisP90Ms, rep.VisP99Ms, rep.VisSamples)
	fmt.Printf("answer GET latency:  p50=%.2fms p90=%.2fms p99=%.2fms (%d reads)\n",
		rep.QueryP50Ms, rep.QueryP90Ms, rep.QueryP99Ms, rep.QueryReads)
	if al, err := getApplyLatency(client, *addr); err == nil && len(al) > 0 {
		rep.ApplyLatency = al
		fmt.Printf("engine apply latency by batch size:\n")
		for _, b := range al {
			fmt.Printf("  %12s updates: p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms (%d batches)\n",
				b.Sizes, b.P50Ms, b.P90Ms, b.P99Ms, b.MaxMs, b.Count)
		}
	}
	if binDropped > 0 {
		fmt.Printf("binary: %d updates refused by the sanitizer\n", binDropped)
	}

	if *watchN > 0 {
		checked, stats, err := settleWatchers(client, *addr, watchers, quiesceTimeout)
		watchCancel()
		watchWG.Wait()
		if err != nil {
			return err
		}
		rep.WatchSubs = *watchN
		rep.WatchDeltas = stats.deltas
		rep.WatchResyncs = stats.resyncs
		rep.WatchChecked = checked
		rep.WatchP50Ms = ms(percentile(stats.lat, 0.50))
		rep.WatchP90Ms = ms(percentile(stats.lat, 0.90))
		rep.WatchP99Ms = ms(percentile(stats.lat, 0.99))
		fmt.Printf("watch: %d subscriber(s), %d delta events, %d resyncs; commit->delivery p50=%.2fms p90=%.2fms p99=%.2fms\n",
			rep.WatchSubs, rep.WatchDeltas, rep.WatchResyncs, rep.WatchP50Ms, rep.WatchP90Ms, rep.WatchP99Ms)
		fmt.Printf("watch: %d delta-built view entries identical to polled /v1/answers\n", checked)
	}

	if len(replicaURLs) > 0 {
		n, err := crossCheckReplicas(client, *addr, replicaURLs, quiesceTimeout)
		if err != nil {
			return err
		}
		rep.ReplicaAnswers = n
		fmt.Printf("replicas: %d follower(s) caught up (lag 0), %d answers identical to the leader\n",
			len(replicaURLs), n)
	}

	if *verify {
		if *initial == "" {
			return fmt.Errorf("-verify needs -initial to rebuild the offline baseline")
		}
		n, err := verifyAnswers(client, *addr, *initial, *algoStr, covered, *postSize)
		if err != nil {
			return err
		}
		rep.Verified = n
		fmt.Printf("verify: %d served answers identical to the offline engine\n", n)
	}
	if *jsonOut != "" {
		data, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

type report struct {
	Proto          string  `json:"proto"`
	Updates        int     `json:"updates"`
	Dropped        int     `json:"dropped,omitempty"`
	Elapsed        float64 `json:"elapsed_s"`
	UpdatesPerS    float64 `json:"updates_per_s"`
	Backpressure   int     `json:"backpressure_retries"`
	Degraded       int     `json:"degraded_retries"`
	Redirects      int     `json:"redirects,omitempty"`
	Reconnects     int     `json:"binary_reconnects,omitempty"`
	ReaderErrors   int     `json:"reader_errors"`
	PostP50Ms      float64 `json:"post_p50_ms"`
	PostP90Ms      float64 `json:"post_p90_ms"`
	PostP99Ms      float64 `json:"post_p99_ms"`
	VisSamples     int     `json:"visibility_samples"`
	VisP50Ms       float64 `json:"visibility_p50_ms"`
	VisP90Ms       float64 `json:"visibility_p90_ms"`
	VisP99Ms       float64 `json:"visibility_p99_ms"`
	QueryReads     int     `json:"query_reads"`
	QueryP50Ms     float64 `json:"query_p50_ms"`
	QueryP90Ms     float64 `json:"query_p90_ms"`
	QueryP99Ms     float64 `json:"query_p99_ms"`
	Verified       int     `json:"verified,omitempty"`
	ReplicaAnswers int     `json:"replica_answers,omitempty"`
	WatchSubs      int     `json:"watch_subscribers,omitempty"`
	WatchDeltas    int     `json:"watch_deltas,omitempty"`
	WatchResyncs   int     `json:"watch_resyncs,omitempty"`
	WatchChecked   int     `json:"watch_checked,omitempty"`
	WatchP50Ms     float64 `json:"watch_p50_ms,omitempty"`
	WatchP90Ms     float64 `json:"watch_p90_ms,omitempty"`
	WatchP99Ms     float64 `json:"watch_p99_ms,omitempty"`
	// ApplyLatency mirrors the daemon's engine-side apply-latency
	// percentiles, split by batch-size class (/healthz "apply_latency").
	ApplyLatency []server.ApplyLatBucket `json:"apply_latency,omitempty"`
}

// ---- /v1/watch subscription ----

// watchEventWire mirrors the server's watch event schema (watch.go): one
// SSE data frame.
type watchEventWire struct {
	Pos     uint64 `json:"pos"`
	Ts      int64  `json:"ts"`
	Resync  bool   `json:"resync"`
	Changed []struct {
		ID    int              `json:"id"`
		Value server.WireValue `json:"value"`
	} `json:"changed"`
}

// watchSub is one SSE subscription: a delta-built partial view of the answer
// table plus delivery-latency samples. Only ids that moved during the run
// appear in the view (unless a resync forced a full re-read).
type watchSub struct {
	mu      sync.Mutex
	view    map[int]float64
	lat     []time.Duration
	deltas  int
	resyncs int
	err     error
}

func (ws *watchSub) fail(err error) {
	ws.mu.Lock()
	if ws.err == nil {
		ws.err = err
	}
	ws.mu.Unlock()
}

// run holds the SSE stream open until ctx is cancelled or the server says
// bye. Transport errors after cancellation are the cancellation itself.
func (ws *watchSub) run(ctx context.Context, c *http.Client, addr string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/watch", nil)
	if err != nil {
		ws.fail(err)
		return
	}
	resp, err := c.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			ws.fail(err)
		}
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		ws.fail(fmt.Errorf("GET /v1/watch: status %d", resp.StatusCode))
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	typ := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev watchEventWire
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				ws.fail(fmt.Errorf("watch event: %w", err))
				return
			}
			if err := ws.handle(typ, ev, c, addr); err != nil {
				ws.fail(err)
				return
			}
			if typ == "bye" {
				return
			}
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		ws.fail(fmt.Errorf("watch stream: %w", err))
	}
}

func (ws *watchSub) handle(typ string, ev watchEventWire, c *http.Client, addr string) error {
	now := time.Now()
	switch typ {
	case "delta":
		ws.mu.Lock()
		ws.deltas++
		if ev.Ts > 0 {
			ws.lat = append(ws.lat, now.Sub(time.Unix(0, ev.Ts)))
		}
		for _, ch := range ev.Changed {
			ws.view[ch.ID] = float64(ch.Value)
		}
		ws.mu.Unlock()
	case "init", "resync":
		if !ev.Resync {
			return nil // fresh subscription, nothing missed
		}
		// A gap (slow consumer, follower re-bootstrap, stale resume): the
		// stream's contract is "re-read /v1/answers before trusting deltas".
		// Deltas queued behind this event describe commits at or after the
		// re-read position, so replaying them over the fresh view is safe.
		ans, err := getAnswers(c, addr)
		if err != nil {
			return fmt.Errorf("watch resync re-read: %w", err)
		}
		ws.mu.Lock()
		ws.resyncs++
		ws.view = make(map[int]float64, len(ans.Answers))
		for _, a := range ans.Answers {
			ws.view[a.ID] = float64(a.Value)
		}
		ws.mu.Unlock()
	}
	return nil
}

// matches reports whether every id this subscriber has heard about agrees
// with the polled answer table, and how many ids that covered.
func (ws *watchSub) matches(want map[int]float64) (int, bool) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for id, v := range ws.view {
		if wv, ok := want[id]; !ok || wv != v {
			return 0, false
		}
	}
	return len(ws.view), true
}

type watchAgg struct {
	lat     []time.Duration
	deltas  int
	resyncs int
}

// settleWatchers waits (bounded) for every subscriber's delta-built view to
// converge onto the final polled answers — in-flight SSE frames land within
// the window — then aggregates latency samples and counters. Any subscriber
// error, or a view still disagreeing at the deadline, fails the run.
func settleWatchers(c *http.Client, addr string, watchers []*watchSub, wait time.Duration) (int, watchAgg, error) {
	final, err := getAnswers(c, addr)
	if err != nil {
		return 0, watchAgg{}, err
	}
	want := make(map[int]float64, len(final.Answers))
	for _, a := range final.Answers {
		want[a.ID] = float64(a.Value)
	}
	deadline := time.Now().Add(wait)
	checked := 0
	for i, ws := range watchers {
		for {
			ws.mu.Lock()
			err := ws.err
			ws.mu.Unlock()
			if err != nil {
				return 0, watchAgg{}, fmt.Errorf("watch subscriber %d: %w", i, err)
			}
			n, ok := ws.matches(want)
			if ok {
				checked += n
				break
			}
			if time.Now().After(deadline) {
				return 0, watchAgg{}, fmt.Errorf("watch check FAILED: subscriber %d's delta view still disagrees with /v1/answers after %v", i, wait)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	var agg watchAgg
	for _, ws := range watchers {
		ws.mu.Lock()
		agg.lat = append(agg.lat, ws.lat...)
		agg.deltas += ws.deltas
		agg.resyncs += ws.resyncs
		ws.mu.Unlock()
	}
	return checked, agg, nil
}

// replayBinarySession is the failover-aware CGBIN/2 client (DESIGN.md §17):
// every update carries (sid, seq) with seq = seqBase + stream position + 1,
// and the client only advances past a frame once its ack arrives. On any
// transport error or non-OK ack it reconnects — cycling through addrs until
// one answers as leader — and resends every un-acked update with the SAME
// sequence numbers. The server's dedup window turns that at-least-once
// delivery into exactly-once application, so acked counts stay exact across
// leader kills.
func replayBinarySession(addrs []string, sid, seqBase uint64, replay []graph.Update, frameSize int, rate float64, window int) (posted, dropped, reconnects int, visLat []time.Duration, err error) {
	if window < 1 {
		window = 1
	}
	start := time.Now()
	at := 0 // first un-acked update index
	addrIdx := 0
	backoff := 50 * time.Millisecond
	const backoffCap = 2 * time.Second
	for at < len(replay) {
		addr := addrs[addrIdx%len(addrs)]
		next, lat, acc, drop, cerr := runSessionConn(addr, sid, seqBase, replay, at, frameSize, rate, window, start)
		visLat = append(visLat, lat...)
		posted += acc
		dropped += drop
		if next > at { // progress resets the failover backoff
			at = next
			backoff = 50 * time.Millisecond
		}
		if cerr == nil && at >= len(replay) {
			break
		}
		reconnects++
		addrIdx++
		if reconnects > 500 {
			return posted, dropped, reconnects, visLat, fmt.Errorf("binary failover: giving up at update %d after %d reconnects: %w", at, reconnects, cerr)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > backoffCap {
			backoff = backoffCap
		}
	}
	return posted, dropped, reconnects, visLat, nil
}

// runSessionConn drives one CGBIN/2 connection from replay[from:] until the
// stream completes or the connection dies, returning the index just past the
// last ACKED frame — the resume point. NotLeader acks surface as errors so
// the caller rotates to the next address.
func runSessionConn(addr string, sid, seqBase uint64, replay []graph.Update, from, frameSize int, rate float64, window int, start time.Time) (acked int, visLat []time.Duration, accepted, dropped int, err error) {
	acked = from
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return acked, nil, 0, 0, fmt.Errorf("binary dial %s: %w", addr, err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(server.BinHello2)); err != nil {
		return acked, nil, 0, 0, err
	}

	type pend struct {
		t0  time.Time
		end int
	}
	pending := make(chan pend, window)
	ackDone := make(chan error, 1)
	var mu sync.Mutex
	go func() {
		br := bufio.NewReader(conn)
		for p := range pending {
			ack, rerr := server.ReadBinAck(br)
			if rerr == nil && ack.Status != server.BinStatusOK {
				rerr = fmt.Errorf("binary ack status %d at position %d", ack.Status, ack.Pos)
			}
			if rerr != nil {
				// Kill the conn so the sender's Write fails, then drain the
				// window until the sender closes it.
				conn.Close()
				for range pending {
				}
				ackDone <- rerr
				return
			}
			mu.Lock()
			acked = p.end
			visLat = append(visLat, time.Since(p.t0))
			accepted += int(ack.Accepted)
			dropped += int(ack.Dropped)
			mu.Unlock()
		}
		ackDone <- nil
	}()

	var buf []byte
	var sendErr error
	for at := from; at < len(replay); {
		end := at + frameSize
		if end > len(replay) {
			end = len(replay)
		}
		if rate > 0 {
			// Pace by GLOBAL stream position — a reconnect resumes the
			// original schedule instead of bursting.
			due := start.Add(time.Duration(float64(at) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		pending <- pend{t0: time.Now(), end: end}
		// seq of replay[i] is seqBase+i+1 (seq 0 never used): stable across
		// retries, which is what lets the server recognise replays.
		buf = server.AppendBinFrameSession(buf[:0], sid, seqBase+uint64(at)+1, replay[at:end])
		if _, werr := conn.Write(buf); werr != nil {
			sendErr = fmt.Errorf("binary send %d..%d: %w", at, end, werr)
			break
		}
		at = end
	}
	close(pending)
	err = <-ackDone
	if err == nil {
		err = sendErr
	}
	mu.Lock()
	defer mu.Unlock()
	return acked, visLat, accepted, dropped, err
}

// splitAddrs parses the -binary-addrs comma list, dropping empties.
func splitAddrs(raw string) []string {
	var out []string
	for _, p := range strings.Split(raw, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// baseURL reduces a Location like "http://host:port/v1/updates" to its
// scheme://host origin for use as the next write target.
func baseURL(location string) string {
	if location == "" {
		return ""
	}
	u, err := url.Parse(location)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return ""
	}
	return u.Scheme + "://" + u.Host
}

// latRecorder accumulates durations from several goroutines.
type latRecorder struct {
	mu   sync.Mutex
	durs []time.Duration
}

func (l *latRecorder) add(d time.Duration) {
	l.mu.Lock()
	l.durs = append(l.durs, d)
	l.mu.Unlock()
}

func (l *latRecorder) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.durs)
}

func (l *latRecorder) percentile(p float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return percentile(l.durs, p)
}

func percentile(durs []time.Duration, p float64) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p * float64(len(s)-1))
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pickPairs mirrors stream.Workload.QueryPairs: deterministic distinct
// (s,d) pairs over the dataset's vertex range.
func pickPairs(el *graph.EdgeList, k int, seed int64) [][2]graph.VertexID {
	rng := rand.New(rand.NewSource(seed ^ 0x5ee0))
	pairs := make([][2]graph.VertexID, 0, k)
	for len(pairs) < k {
		s := graph.VertexID(rng.Intn(el.N))
		d := graph.VertexID(rng.Intn(el.N))
		if s == d {
			continue
		}
		pairs = append(pairs, [2]graph.VertexID{s, d})
	}
	return pairs
}

// ---- HTTP plumbing ----

type updateJSON struct {
	Op   string  `json:"op"`
	From uint32  `json:"from"`
	To   uint32  `json:"to"`
	W    float64 `json:"w"`
}

// postUpdates sends one chunk and reports (status, Retry-After, Location).
// Location is only meaningful on 421: a follower answering a write points at
// the leader it is tailing, and the caller re-targets there.
func postUpdates(c *http.Client, addr string, ups []graph.Update) (int, time.Duration, string, error) {
	wire := make([]updateJSON, len(ups))
	for i, u := range ups {
		op := "add"
		if u.Del {
			op = "del"
		}
		wire[i] = updateJSON{Op: op, From: u.From, To: u.To, W: u.W}
	}
	body, _ := json.Marshal(map[string]any{"updates": wire})
	resp, err := c.Post(addr+"/v1/updates", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, "", err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()), resp.Header.Get("Location"), nil
}

// parseRetryAfter resolves a Retry-After header into a wait duration. RFC
// 9110 §10.2.3 allows two forms: delta-seconds ("120") and an HTTP-date
// ("Fri, 08 Aug 2026 17:00:00 GMT") — the latter is what proxies and
// managed load balancers tend to emit, so both must work. Unparseable or
// already-elapsed values yield 0 (caller falls back to its own backoff).
func parseRetryAfter(s string, now time.Time) time.Duration {
	if s == "" {
		return 0
	}
	if secs, err := strconv.Atoi(s); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(s); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

func registerQuery(c *http.Client, addr string, s, d graph.VertexID) (int, error) {
	body, _ := json.Marshal(map[string]any{"s": s, "d": d})
	resp, err := c.Post(addr+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return 0, fmt.Errorf("POST /v1/query: status %d: %s", resp.StatusCode, msg)
	}
	var out struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return out.ID, nil
}

type answersPayload struct {
	Batches  uint64 `json:"batches"`
	Quiesced bool   `json:"quiesced"`
	Answers  []struct {
		ID    int              `json:"id"`
		S     uint32           `json:"s"`
		D     uint32           `json:"d"`
		Value server.WireValue `json:"value"`
	} `json:"answers"`
}

func getAnswers(c *http.Client, addr string) (*answersPayload, error) {
	resp, err := c.Get(addr + "/v1/answers")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/answers: status %d", resp.StatusCode)
	}
	var out answersPayload
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// getApplyLatency reads the daemon's engine-side apply-latency report: per
// batch-size class, the p50/p90/p99 of how long the engine took to
// apply recent batches of that size (sanitize/WAL/publication excluded).
func getApplyLatency(c *http.Client, addr string) ([]server.ApplyLatBucket, error) {
	resp, err := c.Get(addr + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var hz struct {
		ApplyLatency []server.ApplyLatBucket `json:"apply_latency"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		return nil, err
	}
	return hz.ApplyLatency, nil
}

func getAppliedBatches(c *http.Client, addr string) (uint64, error) {
	resp, err := c.Get(addr + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var hz struct {
		Batches uint64 `json:"batches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		return 0, err
	}
	return hz.Batches, nil
}

func waitHealthy(c *http.Client, addr string, d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		resp, err := c.Get(addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not healthy after %v: %v", addr, d, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func waitQuiesced(c *http.Client, addr string, d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		a, err := getAnswers(c, addr)
		if err == nil && a.Quiesced {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon did not quiesce within %v", d)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// replHealthz is the slice of /healthz a replica check needs.
type replHealthz struct {
	Role    string `json:"role"`
	Batches uint64 `json:"batches"`
	Repl    *struct {
		LagBatches uint64  `json:"lag_batches"`
		StalenessS float64 `json:"staleness_s"`
		Connected  bool    `json:"connected"`
	} `json:"repl"`
}

// crossCheckReplicas waits for every follower to report zero replication
// lag at (or past) the leader's applied batch count, then asserts each
// follower's answers — matched by (s,d) pair — are identical to the
// leader's, and that follower reads carry the X-CISGraph-Staleness header.
func crossCheckReplicas(c *http.Client, leader string, replicas []string, wait time.Duration) (int, error) {
	leaderBatches, err := getAppliedBatches(c, leader)
	if err != nil {
		return 0, err
	}
	leaderAns, _, err := getAnswersHdr(c, leader)
	if err != nil {
		return 0, err
	}
	want := make(map[[2]uint32]float64, len(leaderAns.Answers))
	for _, a := range leaderAns.Answers {
		want[[2]uint32{a.S, a.D}] = float64(a.Value)
	}
	checked := 0
	for _, r := range replicas {
		if err := waitReplicaCaughtUp(c, r, leaderBatches, wait); err != nil {
			return 0, err
		}
		ans, hdr, err := getAnswersHdr(c, r)
		if err != nil {
			return 0, fmt.Errorf("replica %s: %w", r, err)
		}
		if hdr.Get("X-CISGraph-Staleness") == "" {
			return 0, fmt.Errorf("replica %s: missing X-CISGraph-Staleness header on /v1/answers", r)
		}
		if len(ans.Answers) != len(leaderAns.Answers) {
			return 0, fmt.Errorf("replica %s serves %d answers, leader %d", r, len(ans.Answers), len(leaderAns.Answers))
		}
		for _, a := range ans.Answers {
			wv, ok := want[[2]uint32{a.S, a.D}]
			if !ok {
				return 0, fmt.Errorf("replica %s serves Q(%d->%d) the leader does not have", r, a.S, a.D)
			}
			if float64(a.Value) != wv {
				return 0, fmt.Errorf("replica check FAILED: %s Q(%d->%d): replica %v, leader %v",
					r, a.S, a.D, float64(a.Value), wv)
			}
			checked++
		}
	}
	return checked, nil
}

// waitReplicaCaughtUp polls a follower's /healthz until it has applied at
// least the leader's batch count with zero replication lag.
func waitReplicaCaughtUp(c *http.Client, addr string, leaderBatches uint64, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	var last replHealthz
	for {
		resp, err := c.Get(addr + "/healthz")
		if err == nil {
			derr := json.NewDecoder(resp.Body).Decode(&last)
			resp.Body.Close()
			if derr == nil && last.Repl != nil &&
				last.Repl.LagBatches == 0 && last.Batches >= leaderBatches {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica %s not caught up after %v (batches %d/%d, repl %+v)",
				addr, wait, last.Batches, leaderBatches, last.Repl)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// getAnswersHdr is getAnswers plus the response headers (staleness checks).
func getAnswersHdr(c *http.Client, addr string) (*answersPayload, http.Header, error) {
	resp, err := c.Get(addr + "/v1/answers")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("GET /v1/answers: status %d", resp.StatusCode)
	}
	var out answersPayload
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, nil, err
	}
	return &out, resp.Header, nil
}

// verifyDurableState rebuilds the daemon's durable state offline — the
// checkpoint topology plus the WAL suffix it does not cover — and compares
// every served answer against an independent MultiCISO over that state.
// This is the chaos-loop invariant: whatever a SIGKILL interrupted, the
// answers a restarted daemon serves must equal the replay of its durable
// prefix, record for record.
func verifyDurableState(c *http.Client, addr, walDir, ckpt, initial, algoStr string) (int, uint64, error) {
	if walDir == "" && ckpt == "" {
		return 0, 0, fmt.Errorf("-verify-durable needs -wal and/or -checkpoint")
	}
	a, err := algo.ByName(algoStr)
	if err != nil {
		return 0, 0, err
	}
	var (
		g       *graph.Dynamic
		through uint64
	)
	if ckpt != "" {
		covered, _, payload, err := resilience.ReadCheckpointMeta(ckpt)
		switch {
		case err == nil:
			if g, _, err = server.DecodeCheckpointState(payload); err != nil {
				return 0, 0, err
			}
			through = covered
		case os.IsNotExist(err):
			// No checkpoint yet: fall through to -initial below.
		default:
			return 0, 0, err
		}
	}
	if g == nil {
		if initial == "" {
			return 0, 0, fmt.Errorf("-verify-durable: no checkpoint at %q and no -initial fallback", ckpt)
		}
		el, err := graph.LoadFile(initial)
		if err != nil {
			return 0, 0, err
		}
		g = graph.FromEdgeList(el)
	}
	durable := through
	if walDir != "" {
		recs, err := resilience.ReplaySegmented(walDir)
		if err != nil {
			return 0, 0, err
		}
		for _, rec := range recs {
			if rec.Index < through {
				continue
			}
			if rec.Index != durable {
				return 0, 0, fmt.Errorf("verify-durable: WAL gap: record %d, expected %d", rec.Index, durable)
			}
			g.Apply(rec.Batch)
			durable++
		}
	}
	served, err := getAnswers(c, addr)
	if err != nil {
		return 0, 0, err
	}
	// healthz's batch count includes checkpoint-restored batches (the
	// answers endpoint counts only since the pool reset), so it is the one
	// comparable to the durable prefix length.
	applied, err := getAppliedBatches(c, addr)
	if err != nil {
		return 0, 0, err
	}
	if applied != durable {
		return 0, 0, fmt.Errorf("verify-durable FAILED: daemon at batch %d, durable prefix holds %d", applied, durable)
	}
	var qs []core.Query
	for _, ans := range served.Answers {
		qs = append(qs, core.Query{S: ans.S, D: ans.D})
	}
	eng := core.NewMultiCISO()
	eng.Reset(g, a, qs)
	want := eng.Answers()
	for i, ans := range served.Answers {
		if float64(ans.Value) != want[i] {
			return 0, 0, fmt.Errorf("verify-durable FAILED: query %d Q(%d->%d): served %v, durable replay %v",
				ans.ID, ans.S, ans.D, float64(ans.Value), want[i])
		}
	}
	return len(served.Answers), durable, nil
}

// verifyAnswers replays updates[0:n] through an offline MultiCISO — batched
// and sanitized exactly like the daemon's pipeline — and compares every
// served answer. The batch split does not affect the converged fixpoint
// (the engines' cross-agreement guarantee), so the daemon's internal window
// boundaries don't need to match the offline ones.
func verifyAnswers(c *http.Client, addr, initial, algoStr string, updates []graph.Update, batchSize int) (int, error) {
	served, err := getAnswers(c, addr)
	if err != nil {
		return 0, err
	}
	a, err := algo.ByName(algoStr)
	if err != nil {
		return 0, err
	}
	el, err := graph.LoadFile(initial)
	if err != nil {
		return 0, err
	}
	g := graph.FromEdgeList(el)
	var qs []core.Query
	for _, ans := range served.Answers {
		qs = append(qs, core.Query{S: ans.S, D: ans.D})
	}
	eng := core.NewMultiCISO()
	eng.Reset(g.Clone(), a, qs)
	san := resilience.NewSanitizer(resilience.PolicyDrop, nil)
	shadow := g
	for at := 0; at < len(updates); at += batchSize {
		end := at + batchSize
		if end > len(updates) {
			end = len(updates)
		}
		clean, _, _ := san.Sanitize(shadow, updates[at:end])
		shadow.Apply(clean)
		eng.ApplyBatchDelta(clean)
	}
	want := eng.Answers()
	for i, ans := range served.Answers {
		if float64(ans.Value) != want[i] {
			return 0, fmt.Errorf("verify FAILED: query %d Q(%d->%d): served %v, offline %v",
				ans.ID, ans.S, ans.D, float64(ans.Value), want[i])
		}
	}
	return len(served.Answers), nil
}
