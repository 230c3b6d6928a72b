package server

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"cisgraph/internal/core"
	"cisgraph/internal/graph"
)

// metricsShape reduces a /metrics exposition to its surface: every # HELP
// and # TYPE line verbatim, and every sample as its name, its label set and
// the shape of its value ("int", or "float3" for three decimals). The
// counter family's name label varies with what the node has counted, so it
// is written without its value, and a run of identical entries is one
// entry. It also checks each counter layer's names come sorted.
func metricsShape(t *testing.T, body string) []string {
	t.Helper()
	sample := regexp.MustCompile(`^([a-z_]+)(\{[^}]*\})? (\S+)$`)
	label := regexp.MustCompile(`([a-z]+)="([^"]*)"`)
	intVal := regexp.MustCompile(`^-?[0-9]+$`)
	float3 := regexp.MustCompile(`^-?[0-9]+\.[0-9]{3}$`)
	var shape []string
	counterNames := map[string][]string{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			shape = append(shape, line)
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		var labels []string
		for _, l := range label.FindAllStringSubmatch(m[2], -1) {
			if m[1] == "cisgraph_counter" && l[1] == "name" {
				labels = append(labels, "name")
				continue
			}
			labels = append(labels, l[1]+"="+l[2])
		}
		if m[1] == "cisgraph_counter" {
			layer := label.FindStringSubmatch(m[2])[2]
			counterNames[layer] = append(counterNames[layer], line)
		}
		kind := "int"
		switch {
		case float3.MatchString(m[3]):
			kind = "float3"
		case !intVal.MatchString(m[3]):
			t.Fatalf("sample %q: value %q is neither an integer nor a 3-decimal float", line, m[3])
		}
		entry := m[1] + "{" + strings.Join(labels, ",") + "} " + kind
		if len(shape) > 0 && shape[len(shape)-1] == entry {
			continue
		}
		shape = append(shape, entry)
	}
	for layer, lines := range counterNames {
		if !sort.StringsAreSorted(lines) {
			t.Errorf("counter layer %s is not sorted by name", layer)
		}
	}
	return shape
}

func scrapeMetrics(t *testing.T, client *http.Client, base string) string {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	var b strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	return b.String()
}

// gaugeTail is the shape every node ends its exposition with.
var gaugeTail = []string{
	"# HELP cisgraph_degraded 1 while the disk breaker is open (durable writes failing) or replication staleness exceeds its budget.",
	"# TYPE cisgraph_degraded gauge",
	"cisgraph_degraded{} int",
	"# HELP cisgraph_disk_breaker_trips Times the disk breaker opened.",
	"# TYPE cisgraph_disk_breaker_trips counter",
	"cisgraph_disk_breaker_trips{} int",
	"# HELP cisgraph_disk_breaker_probes Disk probes attempted while degraded.",
	"# TYPE cisgraph_disk_breaker_probes counter",
	"cisgraph_disk_breaker_probes{} int",
}

// metricsHead is the shape every node starts its exposition with, up to
// the optional WAL families.
var metricsHead = []string{
	"# HELP cisgraph_counter Cumulative event counters (server + engine).",
	"# TYPE cisgraph_counter counter",
	`cisgraph_counter{layer=server,name} int`,
	`cisgraph_counter{layer=engine,name} int`,
	"# HELP cisgraph_ingest_pending Updates queued but not yet applied.",
	"# TYPE cisgraph_ingest_pending gauge",
	"cisgraph_ingest_pending{} int",
	"# HELP cisgraph_batches_applied Stream position: WAL records applied since stream start (one per JSON body, one per CGBIN/2 update).",
	"# TYPE cisgraph_batches_applied counter",
	"cisgraph_batches_applied{} int",
	"# HELP cisgraph_edges Current edge count of the authoritative topology.",
	"# TYPE cisgraph_edges gauge",
	"cisgraph_edges{} int",
	"# HELP cisgraph_queries Registered pairwise queries.",
	"# TYPE cisgraph_queries gauge",
	"cisgraph_queries{} int",
	"# HELP cisgraph_state_bytes Resident source-group state (one per distinct source).",
	"# TYPE cisgraph_state_bytes gauge",
	"cisgraph_state_bytes{} int",
}

var metricsWAL = []string{
	"# HELP cisgraph_wal_segments Live WAL segment files (sealed + active).",
	"# TYPE cisgraph_wal_segments gauge",
	"cisgraph_wal_segments{} int",
	"# HELP cisgraph_wal_bytes Total bytes across live WAL segments.",
	"# TYPE cisgraph_wal_bytes gauge",
	"cisgraph_wal_bytes{} int",
}

// metricsMid follows the WAL families; role is the node's role label.
func metricsMid(role string) []string {
	return []string{
		"# HELP cisgraph_watch_subscribers Active /v1/watch subscriptions.",
		"# TYPE cisgraph_watch_subscribers gauge",
		"cisgraph_watch_subscribers{} int",
		"# HELP cisgraph_watch_deltas Delta messages enqueued to watch subscribers.",
		"# TYPE cisgraph_watch_deltas counter",
		"cisgraph_watch_deltas{} int",
		"# HELP cisgraph_watch_drops Watch messages dropped on slow consumers.",
		"# TYPE cisgraph_watch_drops counter",
		"cisgraph_watch_drops{} int",
		"# HELP cisgraph_watch_resyncs Resync markers enqueued to watch subscribers.",
		"# TYPE cisgraph_watch_resyncs counter",
		"cisgraph_watch_resyncs{} int",
		"# HELP cisgraph_role 1 for the node's replication role.",
		"# TYPE cisgraph_role gauge",
		"cisgraph_role{role=" + role + "} int",
		"# HELP cisgraph_epoch Leadership epoch (fencing token); bumped by every promotion.",
		"# TYPE cisgraph_epoch gauge",
		"cisgraph_epoch{} int",
		"# HELP cisgraph_dedup_sessions Live exactly-once ingest sessions in the dedup table.",
		"# TYPE cisgraph_dedup_sessions gauge",
		"cisgraph_dedup_sessions{} int",
	}
}

var metricsRepl = []string{
	"# HELP cisgraph_repl_lag_batches Leader batches not yet applied by this follower.",
	"# TYPE cisgraph_repl_lag_batches gauge",
	"cisgraph_repl_lag_batches{} int",
	"# HELP cisgraph_repl_staleness_seconds Time since this follower last confirmed it was caught up.",
	"# TYPE cisgraph_repl_staleness_seconds gauge",
	"cisgraph_repl_staleness_seconds{} float3",
	"# HELP cisgraph_repl_connected 1 while the WAL tail connection to the leader is healthy.",
	"# TYPE cisgraph_repl_connected gauge",
	"cisgraph_repl_connected{} int",
	"# HELP cisgraph_repl_reconnects Tail reconnect attempts after transport failures.",
	"# TYPE cisgraph_repl_reconnects counter",
	"cisgraph_repl_reconnects{} int",
	"# HELP cisgraph_repl_rebootstraps Checkpoint re-bootstraps forced by retention races or leader resets.",
	"# TYPE cisgraph_repl_rebootstraps counter",
	"cisgraph_repl_rebootstraps{} int",
	"# HELP cisgraph_repl_records WAL records applied from the leader.",
	"# TYPE cisgraph_repl_records counter",
	"cisgraph_repl_records{} int",
	"# HELP cisgraph_repl_repoints Leader-URL changes (421 handoffs and watchdog discoveries).",
	"# TYPE cisgraph_repl_repoints counter",
	"cisgraph_repl_repoints{} int",
}

// TestMetricsSurfacePinned pins the /metrics exposition of a leader with a
// WAL and of a follower without one: every # HELP and # TYPE line and every
// sample's name, label set and value shape, in order. A family is absent
// where its source is (no WAL, not a follower), never zero-filled.
func TestMetricsSurfacePinned(t *testing.T) {
	w := testWorkload(t)
	a := testAlgo(t)
	leader, err := New(w.Initial(), a, leaderConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Drain()
	lsrv := httptest.NewServer(leader.Handler())
	defer lsrv.Close()
	client := lsrv.Client()
	for _, p := range w.QueryPairsConnected(3) {
		if _, _, err := leader.Pool().Register(core.Query{S: p[0], D: p[1]}); err != nil {
			t.Fatal(err)
		}
	}
	// Five bodies, one position each: the checkpoint at position 4 carries
	// the queries to the follower, which applies the fifth from the tail,
	// so both nodes have engine counters to show.
	for i := 0; i < 5; i++ {
		postUpdatesHTTP(t, client, lsrv.URL, w.NextBatch())
		waitQuiescedSrv(t, leader)
	}

	want := slices.Concat(metricsHead, metricsWAL, metricsMid("leader"), gaugeTail)
	body := scrapeMetrics(t, client, lsrv.URL)
	if got := metricsShape(t, body); !slices.Equal(got, want) {
		t.Fatalf("leader /metrics shape:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	// The /v1/answers body cache and its two counters are gone.
	if strings.Contains(body, "srv_answers_cache") {
		t.Fatal("leader /metrics still names srv_answers_cache_*")
	}

	fol, err := StartFollower(a, followerConfig(lsrv.URL), func() (*graph.Dynamic, error) {
		return w.Initial(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Drain()
	waitFollowerAt(t, fol, leader.Applied())
	fsrv := httptest.NewServer(fol.Handler())
	defer fsrv.Close()
	want = slices.Concat(metricsHead, metricsMid("follower"), metricsRepl, gaugeTail)
	if got := metricsShape(t, scrapeMetrics(t, client, fsrv.URL)); !slices.Equal(got, want) {
		t.Fatalf("follower /metrics shape:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
