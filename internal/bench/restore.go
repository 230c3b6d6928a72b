package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
	"cisgraph/internal/server"
)

// Restore measures server.Restore — checkpoint read, WAL read, suffix
// replay and re-arming every query — from the artefacts a SIGKILL leaves,
// over the churn rows' scale-12 graph with one query per source for
// `sources` hub sources. The artefacts come from a live server fed toggle
// churn until a checkpoint and then `suffix` more updates: as 512-update
// JSON bodies (one record each), or as 64-update CGBIN/2 frames (one record
// per update), copied aside un-drained. Each iteration restores a fresh copy
// (the copy and the drain are untimed) and checks the restored position and
// answers against the pre-kill server's. The rows have the shapes of the
// benchmark's restores: Restore_S64 engine-batch's (a checkpoint every 64
// bodies, 32 bodies past it), Restore_S4 ingest-durable's (65,536 records
// past a checkpoint, here at 98,304, whose live segments still hold records
// the checkpoint covers). Metric: ms/restore.
func Restore(sources int, json bool, suffix int) func(b *testing.B) {
	return func(b *testing.B) {
		pristine, cfg, pos, want := restoreArtefacts(b, sources, json, suffix)
		a := algo.PPSP{}
		dir := b.TempDir()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			run := filepath.Join(dir, fmt.Sprint(i))
			if err := copyTree(pristine, run); err != nil {
				b.Fatal(err)
			}
			cfg.WALPath, cfg.CheckpointPath = filepath.Join(run, "wal"), filepath.Join(run, "ckpt")
			b.StartTimer()
			srv, err := server.Restore(a, cfg, nil)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			got := srv.Pool().Answers().Values
			if srv.Applied() != pos || !slices.Equal(got, want) {
				b.Fatalf("restored position %d answers %v; want %d %v", srv.Applied(), got, pos, want)
			}
			if err := srv.Drain(); err != nil {
				b.Fatal(err)
			}
			if err := os.RemoveAll(run); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/restore")
	}
}

// restoreArtefacts runs the live server Restore restores from and returns
// the directory holding its un-drained checkpoint and WAL, the config it
// ran with, and its position and answers at the copy.
func restoreArtefacts(b *testing.B, sources int, json bool, suffix int) (string, server.Config, uint64, []algo.Value) {
	b.Helper()
	churn, g, qs := churnQueries(sources, sources)
	live := b.TempDir()
	cfg := server.Config{WALPath: filepath.Join(live, "wal"), CheckpointPath: filepath.Join(live, "ckpt")}
	frame, perRecord := 64, 1 // CGBIN/2: one record per update
	cfg.CheckpointEvery = 98304
	if json {
		frame, perRecord = churnGroup, churnGroup // one record per body
		cfg.CheckpointEvery = 64
	}
	srv, err := server.New(g, algo.PPSP{}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := srv.Pool().RegisterAll(qs); err != nil {
		b.Fatal(err)
	}
	bodies := make([][]graph.Update, (cfg.CheckpointEvery*perRecord+suffix)/frame)
	for i := range bodies {
		bodies[i] = churn.fill(nil, frame)
	}
	if json {
		feedJSON(b, srv, bodies)
	} else {
		feedBinary(b, srv, bodies)
	}
	for !srv.Quiesced() {
		time.Sleep(100 * time.Microsecond)
	}
	pos, want := srv.Applied(), srv.Pool().Answers().Values
	pristine := b.TempDir()
	if err := copyTree(live, pristine); err != nil {
		b.Fatal(err)
	}
	if err := srv.Drain(); err != nil {
		b.Fatal(err)
	}
	return pristine, cfg, pos, want
}

// feedJSON posts each body to POST /v1/updates.
func feedJSON(b *testing.B, srv *server.Server, bodies [][]graph.Update) {
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, ups := range bodies {
		resp, err := ts.Client().Post(ts.URL+"/v1/updates", "application/json", bytes.NewReader(updatesBody(b, ups)))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("POST /v1/updates: status %d", resp.StatusCode)
		}
	}
}

// feedBinary sends each body as one CGBIN/2 frame of one session and waits
// for every ack.
func feedBinary(b *testing.B, srv *server.Server, bodies [][]graph.Update) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.ServeBinary(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	sent := make(chan error, 1)
	go func() {
		w := bufio.NewWriter(conn)
		_, err := w.WriteString(server.BinHello2)
		var frame []byte
		seq := uint64(1)
		for _, ups := range bodies {
			if err != nil {
				break
			}
			frame = server.AppendBinFrameSession(frame[:0], 1, seq, ups)
			seq += uint64(len(ups))
			_, err = w.Write(frame)
		}
		if err == nil {
			err = w.Flush()
		}
		sent <- err
	}()
	br := bufio.NewReader(conn)
	for range bodies {
		ack, err := server.ReadBinAck(br)
		if err != nil {
			b.Fatal(err)
		}
		if ack.Status != server.BinStatusOK {
			b.Fatalf("ack status %d", ack.Status)
		}
	}
	if err := <-sent; err != nil {
		b.Fatal(err)
	}
}

// copyTree copies the regular files under src into dst, recreating its
// directories.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}
