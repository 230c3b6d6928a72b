package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
)

// Crash-loop chaos harness (DESIGN.md §12.4): repeatedly SIGKILL a real
// cisgraphd mid-ingest, restart it with -resume, and assert that the
// answers it serves after every restart are identical to an offline replay
// of the durable prefix (checkpoint topology + WAL suffix) through an
// independent MultiCISO engine. The daemon recovers through Restore and its
// query pool, the checker through an engine fed only the durable files, so
// agreement is a genuine cross-check of persistence against serving — not the daemon
// agreeing with itself.
//
// SIGKILL (not SIGTERM) means no drain runs: the WAL's last segment may
// carry a torn record, a checkpoint temp file may be stranded, retention
// may have deleted only half its segments. Every cycle must absorb
// whatever the previous kill left behind.

const (
	chaosKills      = 5
	chaosQueryPairs = "0:9,3:77,12:45,8:90"
)

func chaosQueries() []core.Query {
	return []core.Query{{S: 0, D: 9}, {S: 3, D: 77}, {S: 12, D: 45}, {S: 8, D: 90}}
}

func TestChaosCrashLoopSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos crash-loop skipped in -short")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	ckpt := filepath.Join(dir, "ckpt")
	addr := freeAddr(t)
	base := "http://" + addr
	client := &http.Client{Timeout: 5 * time.Second}
	a, err := algo.ByName("PPSP")
	if err != nil {
		t.Fatal(err)
	}
	// The daemon's initial topology, reconstructed independently: -standin
	// OR -scale 8 -seed 7 is deterministic.
	initTopo := func() *graph.Dynamic {
		return graph.FromEdgeList(graph.StandInOR.MustBuild(8, 7))
	}
	n := initTopo().NumVertices()

	baseArgs := []string{
		"-standin", "OR", "-scale", "8", "-seed", "7", "-algo", "PPSP",
		"-addr", addr, "-batch-size", "32", "-batch-wait", "2ms",
		"-wal", walDir, "-wal-segment-bytes", "1024",
		"-checkpoint", ckpt, "-checkpoint-every", "4",
	}

	var prevApplied uint64
	for cycle := 0; cycle <= chaosKills; cycle++ {
		args := baseArgs
		if cycle == 0 {
			args = append(args, "-queries", chaosQueryPairs)
		} else {
			args = append(args, "-resume")
		}
		cmd, logBuf := startDaemon(t, bin, args)
		waitDaemonHealthy(t, client, base, cmd, logBuf)

		hz := getHealthz(t, client, base)
		if hz.Batches < prevApplied {
			t.Fatalf("cycle %d: restarted at batch %d, durable prefix was already %d\ndaemon log:\n%s",
				cycle, hz.Batches, prevApplied, logBuf.String())
		}
		if cycle > 0 {
			verifyAgainstDurable(t, client, base, a, walDir, ckpt, initTopo, hz.Batches, cycle)
		}
		prevApplied = hz.Batches

		if cycle == chaosKills {
			// Final cycle: the durable artefacts survived 5 kills. Check
			// retention kept the WAL bounded (~70 batches flowed; without
			// retention the 1 KiB segments would number in the dozens),
			// then drain cleanly.
			if hz.WALSegments == 0 || hz.WALSegments > 12 {
				t.Errorf("final cycle: %d WAL segments, want 1..12 (retention not bounding the log?)", hz.WALSegments)
			}
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			if err := cmd.Wait(); err != nil {
				t.Fatalf("final drain exited with %v\ndaemon log:\n%s", err, logBuf.String())
			}
			break
		}

		// Ingest until at least two more checkpoints are durable, then kill
		// mid-flight: a flooder keeps POSTs in the air so the SIGKILL lands
		// inside active ingestion, not a quiesced lull.
		rng := rand.New(rand.NewSource(int64(1000 + cycle)))
		target := hz.Batches + 10
		deadline := time.Now().Add(30 * time.Second)
		for getHealthz(t, client, base).Batches < target {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: ingest stalled before batch %d\ndaemon log:\n%s", cycle, target, logBuf.String())
			}
			postChaosUpdates(client, base, rng, n)
		}
		stopFlood := make(chan struct{})
		floodDone := make(chan struct{})
		go func() {
			defer close(floodDone)
			for {
				select {
				case <-stopFlood:
					return
				default:
					postChaosUpdates(client, base, rng, n)
				}
			}
		}()
		time.Sleep(25 * time.Millisecond)
		if err := cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no WAL close
			t.Fatal(err)
		}
		cmd.Wait()
		close(stopFlood)
		<-floodDone
	}
}

// verifyAgainstDurable rebuilds the durable state offline (checkpoint +
// WAL suffix), runs the queries through an independent engine, and requires
// the restarted daemon's served answers to match exactly.
func verifyAgainstDurable(t *testing.T, client *http.Client, base string, a algo.Algorithm,
	walDir, ckpt string, initTopo func() *graph.Dynamic, servedBatches uint64, cycle int) {
	t.Helper()
	var (
		g       *graph.Dynamic
		qs      []core.Query
		through uint64
	)
	covered, _, payload, err := resilience.ReadCheckpointMeta(ckpt)
	switch {
	case err == nil:
		if g, qs, err = DecodeCheckpointState(payload); err != nil {
			t.Fatalf("cycle %d: checkpoint decode: %v", cycle, err)
		}
		through = covered
	case os.IsNotExist(err):
		g, qs = initTopo(), chaosQueries()
	default:
		t.Fatalf("cycle %d: checkpoint read: %v", cycle, err)
	}
	recs, err := resilience.ReplaySegmented(walDir)
	if err != nil {
		t.Fatalf("cycle %d: WAL replay: %v", cycle, err)
	}
	durable := through
	for _, rec := range recs {
		if rec.Index < through {
			continue
		}
		if rec.Index != durable {
			t.Fatalf("cycle %d: WAL gap: record %d, expected %d", cycle, rec.Index, durable)
		}
		g.Apply(rec.Batch)
		durable++
	}
	if servedBatches != durable {
		t.Fatalf("cycle %d: daemon restarted at batch %d, durable prefix holds %d", cycle, servedBatches, durable)
	}
	ref := core.NewMultiCISO()
	ref.Reset(g, a, qs)
	want := ref.Answers()

	var served answersPayloadTest
	getJSONChaos(t, client, base+"/v1/answers", &served)
	if len(served.Answers) != len(qs) {
		t.Fatalf("cycle %d: daemon serves %d answers, durable state has %d queries", cycle, len(served.Answers), len(qs))
	}
	for i, ans := range served.Answers {
		if ans.S != qs[i].S || ans.D != qs[i].D {
			t.Fatalf("cycle %d: answer %d is Q(%d->%d), durable query is Q(%d->%d)",
				cycle, i, ans.S, ans.D, qs[i].S, qs[i].D)
		}
		if float64(ans.Value) != want[i] {
			t.Errorf("cycle %d: Q(%d->%d): daemon serves %v, durable replay gives %v",
				cycle, ans.S, ans.D, float64(ans.Value), want[i])
		}
	}
	t.Logf("cycle %d: %d batches durable, %d answers identical to offline replay", cycle, durable, len(qs))
}

// ---- chaos plumbing ----

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cisgraphd")
	cmd := exec.Command("go", "build", "-o", bin, "cisgraph/cmd/cisgraphd")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building cisgraphd: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func startDaemon(t *testing.T, bin string, args []string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var logBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logBuf, &logBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd, &logBuf
}

func waitDaemonHealthy(t *testing.T, client *http.Client, base string, cmd *exec.Cmd, logBuf *bytes.Buffer) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if cmd.ProcessState != nil || time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy: %v\ndaemon log:\n%s", err, logBuf.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

type chaosHealthz struct {
	Status      string `json:"status"`
	Batches     uint64 `json:"batches"`
	WALSegments int    `json:"wal_segments"`
	WALBytes    int64  `json:"wal_bytes"`
}

func getHealthz(t *testing.T, client *http.Client, base string) chaosHealthz {
	t.Helper()
	var hz chaosHealthz
	getJSONChaos(t, client, base+"/healthz", &hz)
	return hz
}

type answersPayloadTest struct {
	Answers []struct {
		ID    int       `json:"id"`
		S     uint32    `json:"s"`
		D     uint32    `json:"d"`
		Value WireValue `json:"value"`
	} `json:"answers"`
}

func getJSONChaos(t *testing.T, client *http.Client, url string, out any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// postChaosUpdates fires one 64-update POST of random adds/deletes; errors
// are ignored (the daemon may be mid-SIGKILL — exactly the point).
func postChaosUpdates(client *http.Client, base string, rng *rand.Rand, n int) {
	var sb strings.Builder
	sb.WriteString(`{"updates":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		op := "add"
		if rng.Intn(8) == 0 {
			op = "del"
		}
		fmt.Fprintf(&sb, `{"op":%q,"from":%d,"to":%d,"w":%d}`,
			op, rng.Intn(n), rng.Intn(n), 1+rng.Intn(16))
	}
	sb.WriteString(`]}`)
	resp, err := client.Post(base+"/v1/updates", "application/json", strings.NewReader(sb.String()))
	if err == nil {
		resp.Body.Close()
	}
}
