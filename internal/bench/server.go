package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/server"
)

// benchDaemon builds a serving stack — engine pool, batcher, HTTP handler —
// over a scale-9 RMAT graph with the given registered queries, fronted by an
// httptest server so the measured path is the real wire path.
func benchDaemon(b *testing.B, queries int) (*server.Server, *httptest.Server) {
	b.Helper()
	g := graph.FromEdgeList(graph.RMAT("srv", 9, 16*(1<<9), graph.DefaultRMAT, 64, 42))
	srv, err := server.New(g, algo.PPSP{}, server.Config{
		BatchMaxSize:  64,
		BatchMaxWait:  time.Millisecond,
		QueueCapacity: 1 << 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < queries; i++ {
		srv.Pool().Register(core.Query{S: uint32(i), D: uint32(i + 64)})
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(func() {
		ts.Close()
		srv.Drain()
	})
	return srv, ts
}

// updatesBody pre-renders a POST /v1/updates payload.
func updatesBody(b *testing.B, ups []graph.Update) []byte {
	b.Helper()
	type wire struct {
		Op   string  `json:"op"`
		From uint32  `json:"from"`
		To   uint32  `json:"to"`
		W    float64 `json:"w"`
	}
	out := make([]wire, len(ups))
	for i, u := range ups {
		op := "add"
		if u.Del {
			op = "del"
		}
		out[i] = wire{Op: op, From: u.From, To: u.To, W: u.W}
	}
	body, err := json.Marshal(map[string]any{"updates": out})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// ServerIngest measures the serving-layer ingest pipeline end to end: one
// 64-update POST through decode → admission → batch window → sanitize →
// engine apply, with a registered query maintained throughout. Alternating
// delete/re-add chunks keep every update valid on every iteration, so the
// engines do real work each batch. Reports sustained updates/s.
func ServerIngest(b *testing.B) {
	srv, ts := benchDaemon(b, 1)

	// A fixed 64-edge slice of the initial topology, deleted and re-added.
	ds := graph.RMAT("srv", 9, 16*(1<<9), graph.DefaultRMAT, 64, 42)
	const chunk = 64
	dels := make([]graph.Update, chunk)
	adds := make([]graph.Update, chunk)
	for i, a := range ds.Arcs[:chunk] {
		dels[i] = graph.Del(a.From, a.To, a.W)
		adds[i] = graph.Add(a.From, a.To, a.W)
	}
	bodies := [2][]byte{updatesBody(b, dels), updatesBody(b, adds)}

	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/updates", "application/json", bytes.NewReader(bodies[i%2]))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("POST /v1/updates: status %d", resp.StatusCode)
		}
	}
	for !srv.Quiesced() {
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*chunk)/b.Elapsed().Seconds(), "upd/s")
}

// benchBinary builds the same serving stack as benchDaemon but fronts it
// with the CGBIN/2 binary ingest listener instead of HTTP, returning a
// connected client that has already completed the hello exchange.
func benchBinary(b *testing.B, queries int) (net.Conn, *bufio.Reader) {
	b.Helper()
	g := graph.FromEdgeList(graph.RMAT("srv", 9, 16*(1<<9), graph.DefaultRMAT, 64, 42))
	srv, err := server.New(g, algo.PPSP{}, server.Config{
		BatchMaxSize:  64,
		BatchMaxWait:  time.Millisecond,
		QueueCapacity: 1 << 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < queries; i++ {
		srv.Pool().Register(core.Query{S: uint32(i), D: uint32(i + 64)})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.ServeBinary(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := conn.Write([]byte(server.BinHello2)); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		conn.Close()
		srv.Drain()
	})
	return conn, bufio.NewReader(conn)
}

// benchChunks returns the fixed delete/re-add update pair every ingest bench
// replays: a 64-edge slice of the initial topology, so alternating chunks
// keep every update valid on every iteration.
func benchChunks() (dels, adds []graph.Update) {
	ds := graph.RMAT("srv", 9, 16*(1<<9), graph.DefaultRMAT, 64, 42)
	const chunk = 64
	dels = make([]graph.Update, chunk)
	adds = make([]graph.Update, chunk)
	for i, a := range ds.Arcs[:chunk] {
		dels[i] = graph.Del(a.From, a.To, a.W)
		adds[i] = graph.Add(a.From, a.To, a.W)
	}
	return dels, adds
}

// ServerIngestBinary measures the binary fast path end to end with the same
// workload as ServerIngest — 64-update delete/re-add chunks against the same
// topology with one registered query — so the two upd/s numbers compare the
// JSON batch pipeline against the CGBIN/2 per-update pipeline directly.
// Frames are pipelined: a reader goroutine collects the streamed acks while
// the send loop keeps the connection full, as a real binary client would.
func ServerIngestBinary(b *testing.B) {
	conn, br := benchBinary(b, 1)
	dels, adds := benchChunks()
	const chunk = 64
	chunks := [2][]graph.Update{dels, adds}
	var frame []byte

	done := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			ack, err := server.ReadBinAck(br)
			if err != nil {
				done <- err
				return
			}
			if ack.Status != server.BinStatusOK {
				done <- fmt.Errorf("ack status %d", ack.Status)
				return
			}
		}
		done <- nil
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame = server.AppendBinFrameSession(frame[:0], 1, uint64(i*chunk)+1, chunks[i%2])
		if _, err := conn.Write(frame); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*chunk)/b.Elapsed().Seconds(), "upd/s")
}

// PerUpdateLatency measures single-update visibility latency over the binary
// fast path: each iteration sends a one-update frame and blocks on its ack,
// which the server emits only after the update is durable, applied, and
// published — so the round trip IS the update's visibility latency. Reports
// p50/p99 in microseconds.
func PerUpdateLatency(b *testing.B) {
	conn, br := benchBinary(b, 1)
	dels, adds := benchChunks()
	ups := [2][]graph.Update{dels[:1], adds[:1]}
	var frame []byte

	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		frame = server.AppendBinFrameSession(frame[:0], 1, uint64(i)+1, ups[i%2])
		if _, err := conn.Write(frame); err != nil {
			b.Fatal(err)
		}
		ack, err := server.ReadBinAck(br)
		if err != nil {
			b.Fatal(err)
		}
		if ack.Status != server.BinStatusOK {
			b.Fatalf("ack status %d", ack.Status)
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	us := func(p float64) float64 {
		return float64(lat[int(p*float64(len(lat)-1))]) / float64(time.Microsecond)
	}
	b.ReportMetric(us(0.50), "p50-us")
	b.ReportMetric(us(0.99), "p99-us")
}

// ServerAnswers measures read-side latency: GET /v1/answers against the
// published snapshot (8 registered queries) while a background writer keeps
// applying batches, so reads are measured under the single-writer contention
// they see in production. Reports p50/p99 in microseconds.
func ServerAnswers(b *testing.B) {
	srv, ts := benchDaemon(b, 8)

	ds := graph.RMAT("srv", 9, 16*(1<<9), graph.DefaultRMAT, 64, 42)
	const chunk = 64
	dels := make([]graph.Update, chunk)
	adds := make([]graph.Update, chunk)
	for i, a := range ds.Arcs[:chunk] {
		dels[i] = graph.Del(a.From, a.To, a.W)
		adds[i] = graph.Add(a.From, a.To, a.W)
	}
	bodies := [2][]byte{updatesBody(b, dels), updatesBody(b, adds)}
	client := ts.Client()
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := client.Post(ts.URL+"/v1/updates", "application/json", bytes.NewReader(bodies[i%2]))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		resp, err := client.Get(ts.URL + "/v1/answers")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("GET /v1/answers: status %d", resp.StatusCode)
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	close(stop)
	<-writerDone
	for !srv.Quiesced() {
		time.Sleep(100 * time.Microsecond)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	us := func(p float64) float64 {
		return float64(lat[int(p*float64(len(lat)-1))]) / float64(time.Microsecond)
	}
	b.ReportMetric(us(0.50), "p50-us")
	b.ReportMetric(us(0.99), "p99-us")
}
