package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/resilience"
)

// Leader-failover chaos harness (DESIGN.md §17): a 3-node cluster takes a
// CGBIN/2 session-tagged binary stream while the leader is SIGKILLed
// mid-ingest, round after round. Each round a follower is promoted (the
// first two rounds explicitly via /v1/admin/promote picking the longest
// log, the last by the -promote-on-leader-loss watchdog), the deposed
// leader rejoins and must demote through the epoch fence, and the client
// reconnects and replays its un-acked updates with the same sequence
// numbers.
//
// What makes the run pass/fail is discrete, not statistical: every update
// carries (session, seq), each accepted update is its own WAL record
// carrying that tag, and the stream is constructed to be sanitizer-clean
// IF AND ONLY IF it is applied exactly once in order (presence-tracked
// adds and deletes — a duplicated add becomes a DupAdd drop, a lost delete
// turns the next add into one). So at the end:
//
//   - the surviving durable chain (checkpoint session table + WAL records)
//     must cover sequence numbers contiguously up to N: a duplicate commit
//     or a lost acked update breaks contiguity and fails the walk;
//   - served answers must be byte-identical across all nodes and equal to
//     BOTH an offline replay of the durable chain and an independent
//     engine fed the generated stream exactly once;
//   - re-sending an already-acked frame must be re-acked as accepted
//     without minting new stream positions (dedup counter corroboration).
const (
	failoverSID    = 0xC15D
	failoverN      = 2000
	failoverFrame  = 16
	failoverWindow = 8
)

type failoverNode struct {
	addr    string // host:port for HTTP
	base    string // http://addr
	binAddr string
	walDir  string
	ckpt    string
	cmd     *exec.Cmd
	log     *bytes.Buffer
}

func TestChaosLeaderFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("failover chaos skipped in -short")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	client := &http.Client{Timeout: 5 * time.Second}
	a, err := algo.ByName("PPSP")
	if err != nil {
		t.Fatal(err)
	}

	nodes := make([]*failoverNode, 3)
	bases := make([]string, 3)
	for i := range nodes {
		addr := freeAddr(t)
		nodes[i] = &failoverNode{
			addr:    addr,
			base:    "http://" + addr,
			binAddr: freeAddr(t),
			walDir:  filepath.Join(dir, fmt.Sprintf("wal%d", i)),
			ckpt:    filepath.Join(dir, fmt.Sprintf("ckpt%d", i)),
		}
		bases[i] = nodes[i].base
	}
	peerList := strings.Join(bases, ",")
	commonArgs := func(i int) []string {
		n := nodes[i]
		return []string{
			"-standin", "OR", "-scale", "8", "-seed", "7", "-algo", "PPSP",
			"-addr", n.addr, "-binary-addr", n.binAddr,
			"-wal", n.walDir, "-wal-segment-bytes", "4096",
			"-checkpoint", n.ckpt, "-checkpoint-every", "8",
			"-repl-longpoll", "100ms",
			"-peers", peerList, "-advertise", n.base,
			"-promote-on-leader-loss", "-promote-after", "800ms",
			"-sync-followers", "1", "-sync-ack-timeout", "2s",
		}
	}
	startNode := func(i int, extra ...string) {
		cmd, logBuf := startDaemon(t, bin, append(commonArgs(i), extra...))
		nodes[i].cmd, nodes[i].log = cmd, logBuf
		waitDaemonHealthy(t, client, nodes[i].base, cmd, logBuf)
	}

	startNode(0, "-queries", chaosQueryPairs)
	// Push the leader past its first checkpoint so followers bootstrap from
	// it (inheriting queries and the empty session table).
	seedRng := rand.New(rand.NewSource(99))
	initTopo := graph.FromEdgeList(graph.StandInOR.MustBuild(8, 7))
	ingestUntil(t, client, nodes[0].base, seedRng, initTopo.NumVertices(), 9, nodes[0].log)
	startNode(1, "-follow", nodes[0].base)
	startNode(2, "-follow", nodes[0].base)

	// The generated stream is sanitizer-clean by construction: sim tracks
	// presence exactly as the server's sanitizer does, so any dup/loss on
	// the server makes its presence diverge and shows up as a dropped
	// update in an ack (asserted zero below).
	sim := initTopo.Clone()
	// Catch sim up with the seed ingest by replaying the leader's WAL once
	// it is quiesced — the seed batches went through the sanitizer too.
	leaderBatches := waitLeaderIdle(t, client, nodes[0].base)
	seedThrough, _, seedPayload, err := resilience.ReadCheckpointMeta(nodes[0].ckpt)
	if err != nil {
		t.Fatalf("seed checkpoint: %v", err)
	}
	simG, _, _, err := decodeState(seedPayload)
	if err != nil {
		t.Fatalf("seed checkpoint decode: %v", err)
	}
	sim = simG
	seedRecs, err := resilience.ReplaySegmented(nodes[0].walDir)
	if err != nil {
		t.Fatalf("seed WAL replay: %v", err)
	}
	seedDurable := seedThrough
	for _, rec := range seedRecs {
		if rec.Index < seedThrough {
			continue
		}
		sim.Apply(rec.Batch)
		seedDurable++
	}
	if seedDurable != leaderBatches {
		t.Fatalf("seed durable prefix %d != served batches %d", seedDurable, leaderBatches)
	}

	rng := rand.New(rand.NewSource(0x5e55))
	ups := make([]graph.Update, failoverN)
	nv := sim.NumVertices()
	for i := range ups {
		var u, v graph.VertexID
		for {
			u, v = graph.VertexID(rng.Intn(nv)), graph.VertexID(rng.Intn(nv))
			if u != v {
				break
			}
		}
		if _, ok := sim.HasEdge(u, v); ok {
			ups[i] = graph.Update{Arc: graph.Arc{From: u, To: v}, Del: true}
		} else {
			ups[i] = graph.Add(u, v, float64(1+rng.Intn(16)))
		}
		sim.Apply(ups[i : i+1])
	}

	fc := &failoverClient{
		addrs: []string{nodes[0].binAddr, nodes[1].binAddr, nodes[2].binAddr},
		sid:   failoverSID,
		ups:   ups,
	}
	fc.limit.Store(0)
	clientDone := make(chan error, 1)
	go func() { clientDone <- fc.run() }()

	leaderIdx := 0
	prevEpoch := getFailoverHealthz(t, client, nodes[0].base).Epoch
	limits := []int64{700, 1400, failoverN}
	for cycle := 0; cycle < 3; cycle++ {
		resumeFrom := fc.acked.Load()
		fc.limit.Store(limits[cycle])
		// Let the stream get going again so the SIGKILL lands mid-ingest
		// with frames in flight.
		waitFailoverAcked(t, fc, resumeFrom+100, clientDone)
		if err := nodes[leaderIdx].cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		nodes[leaderIdx].cmd.Wait()
		// Followers drain their durable backlog within one applyReplicated
		// call; after this pause healthz batches == local durable prefix.
		time.Sleep(300 * time.Millisecond)

		survivors := []int{}
		for i := range nodes {
			if i != leaderIdx {
				survivors = append(survivors, i)
			}
		}
		var newLeaderIdx int
		if cycle < 2 {
			// Explicit promotion: pick the longest log (sync-followers=1
			// guarantees every acked record lives on at least one survivor,
			// and the prefix property puts it on the longest).
			newLeaderIdx = survivors[0]
			best := getFailoverHealthz(t, client, nodes[newLeaderIdx].base).Batches
			for _, i := range survivors[1:] {
				if b := getFailoverHealthz(t, client, nodes[i].base).Batches; b > best {
					newLeaderIdx, best = i, b
				}
			}
			resp, err := client.Post(nodes[newLeaderIdx].base+"/v1/admin/promote", "application/json", nil)
			if err != nil {
				t.Fatalf("cycle %d: promote: %v", cycle, err)
			}
			var pr struct {
				Promoted bool   `json:"promoted"`
				Epoch    uint64 `json:"epoch"`
				Role     string `json:"role"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
				t.Fatalf("cycle %d: promote decode: %v", cycle, err)
			}
			resp.Body.Close()
			if !pr.Promoted || pr.Role != "leader" {
				t.Fatalf("cycle %d: promote answered promoted=%v role=%q", cycle, pr.Promoted, pr.Role)
			}
			if pr.Epoch <= prevEpoch {
				t.Fatalf("cycle %d: promotion epoch %d did not advance past %d", cycle, pr.Epoch, prevEpoch)
			}
		} else {
			// Watchdog cycle: nobody calls promote; the armed followers must
			// sort it out themselves — and the winner must hold the longest
			// log among the survivors at kill time.
			batches := map[int]uint64{}
			for _, i := range survivors {
				batches[i] = getFailoverHealthz(t, client, nodes[i].base).Batches
			}
			newLeaderIdx = -1
			deadline := time.Now().Add(20 * time.Second)
			for newLeaderIdx < 0 {
				if time.Now().After(deadline) {
					t.Fatalf("cycle %d: watchdog never promoted a follower\nsurvivor 1 log:\n%s\nsurvivor 2 log:\n%s",
						cycle, nodes[survivors[0]].log.String(), nodes[survivors[1]].log.String())
				}
				for _, i := range survivors {
					if getFailoverHealthz(t, client, nodes[i].base).Role == "leader" {
						newLeaderIdx = i
						break
					}
				}
				time.Sleep(100 * time.Millisecond)
			}
			for _, i := range survivors {
				if batches[i] > batches[newLeaderIdx] {
					t.Errorf("cycle %d: watchdog promoted node %d (batches %d) over longer node %d (batches %d)",
						cycle, newLeaderIdx, batches[newLeaderIdx], i, batches[i])
				}
			}
		}
		hz := getFailoverHealthz(t, client, nodes[newLeaderIdx].base)
		if hz.Epoch <= prevEpoch {
			t.Fatalf("cycle %d: new leader epoch %d not above deposed epoch %d", cycle, hz.Epoch, prevEpoch)
		}
		prevEpoch = hz.Epoch

		// The deposed leader rejoins with its old (stale-epoch) state and
		// leader-style flags: the boot probe must fence it into a follower
		// of the new leader, never a second writer.
		startNode(leaderIdx, "-resume")
		rejoined := getFailoverHealthz(t, client, nodes[leaderIdx].base)
		if rejoined.Role != "follower" {
			t.Fatalf("cycle %d: deposed leader rejoined as %q (epoch %d), split-brain\nlog:\n%s",
				cycle, rejoined.Role, rejoined.Epoch, nodes[leaderIdx].log.String())
		}
		leaderIdx = newLeaderIdx
		t.Logf("cycle %d: node %d leads at epoch %d; deposed node rejoined as follower", cycle, leaderIdx, prevEpoch)
	}

	// Drain: the client must finish the whole stream against the final
	// leader, with zero sanitizer drops (the exactly-once canary).
	waitFailoverAcked(t, fc, failoverN, clientDone)
	if err := <-clientDone; err != nil {
		t.Fatalf("failover client: %v", err)
	}
	if d := fc.droppedUpdates.Load(); d != 0 {
		t.Fatalf("%d updates dropped by the sanitizer — server state diverged from exactly-once application", d)
	}
	t.Logf("client done: %d updates acked across %d reconnects", failoverN, fc.reconnects.Load())

	leaderBase := nodes[leaderIdx].base
	leaderBatches = waitLeaderIdle(t, client, leaderBase)
	for _, n := range nodes {
		if n.base == leaderBase {
			continue
		}
		waitFollowerConverged(t, client, n.base, leaderBatches, 99, 0, n.log)
	}

	// Ground truth 1: offline replay of the final leader's durable chain,
	// verifying (sid, seq) contiguity — the discrete zero-loss / zero-dup
	// proof over everything the surviving log covers.
	through, _, payload, err := resilience.ReadCheckpointMeta(nodes[leaderIdx].ckpt)
	if err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	g2, qs, sessions, err := decodeState(payload)
	if err != nil {
		t.Fatalf("final checkpoint decode: %v", err)
	}
	var seq uint64
	for _, s := range sessions {
		if s.SID == failoverSID {
			seq = s.Seq
		}
	}
	recs, err := resilience.ReplaySegmented(nodes[leaderIdx].walDir)
	if err != nil {
		t.Fatalf("final WAL replay: %v", err)
	}
	idx := through
	for _, rec := range recs {
		if rec.Index < through {
			continue
		}
		if rec.Index != idx {
			t.Fatalf("WAL gap: record %d, expected %d", rec.Index, idx)
		}
		if rec.Index >= seedDurable { // session-tagged portion of the stream
			if rec.SID != failoverSID {
				t.Fatalf("record %d carries session %#x, want %#x", rec.Index, rec.SID, failoverSID)
			}
			if rec.Seq != seq+1 {
				t.Fatalf("record %d has seq %d after %d: %s", rec.Index, rec.Seq, seq,
					map[bool]string{true: "duplicate commit", false: "lost acked update"}[rec.Seq <= seq])
			}
			seq = rec.Seq
		}
		g2.Apply(rec.Batch)
		idx++
	}
	if seq != failoverN {
		t.Fatalf("durable chain covers seqs through %d, client was acked through %d", seq, failoverN)
	}
	if idx != leaderBatches {
		t.Fatalf("durable prefix %d != served batches %d", idx, leaderBatches)
	}

	// Ground truth 2: the durable-chain topology must equal the one-shot
	// simulation, and both engines' answers must match what every node
	// serves, byte for byte.
	ref := core.NewMultiCISO()
	ref.Reset(g2, a, qs)
	wantDurable := ref.Answers()
	ref2 := core.NewMultiCISO()
	ref2.Reset(sim, a, qs)
	wantSim := ref2.Answers()
	for i := range wantDurable {
		if wantDurable[i] != wantSim[i] {
			t.Fatalf("Q(%d->%d): durable replay gives %v, exactly-once simulation gives %v",
				qs[i].S, qs[i].D, wantDurable[i], wantSim[i])
		}
	}
	var served answersPayloadTest
	getJSONChaos(t, client, leaderBase+"/v1/answers", &served)
	if len(served.Answers) != len(qs) {
		t.Fatalf("leader serves %d answers, durable state has %d queries", len(served.Answers), len(qs))
	}
	for i, ans := range served.Answers {
		if float64(ans.Value) != wantDurable[i] {
			t.Errorf("Q(%d->%d): leader serves %v, offline replay gives %v",
				ans.S, ans.D, float64(ans.Value), wantDurable[i])
		}
	}
	leaderBody := answersBody(t, client, leaderBase)
	for i, n := range nodes {
		if n.base == leaderBase {
			continue
		}
		if body := answersBody(t, client, n.base); !bytes.Equal(body, leaderBody) {
			t.Fatalf("node %d answers body differs from leader\nleader: %s\nnode: %s", i, leaderBody, body)
		}
	}

	// Dedup corroboration: replay the last frame once more on a fresh
	// connection. It must be re-acked as accepted — the client's contract —
	// while minting no new stream positions and counting every update as a
	// dedup hit.
	hitsBefore := scrapeCounter(t, client, leaderBase, "srv_dedup_hits")
	lastFrame := ups[failoverN-failoverFrame:]
	acceptedAgain, err := resendSessionFrame(nodes[leaderIdx].binAddr, failoverSID, uint64(failoverN-failoverFrame)+1, lastFrame)
	if err != nil {
		t.Fatalf("duplicate-frame probe: %v", err)
	}
	if acceptedAgain != len(lastFrame) {
		t.Fatalf("duplicate frame re-acked %d of %d updates", acceptedAgain, len(lastFrame))
	}
	if b := getFailoverHealthz(t, client, leaderBase).Batches; b != leaderBatches {
		t.Fatalf("duplicate frame minted stream positions: batches %d -> %d", leaderBatches, b)
	}
	if hits := scrapeCounter(t, client, leaderBase, "srv_dedup_hits"); hits < hitsBefore+uint64(len(lastFrame)) {
		t.Fatalf("srv_dedup_hits %d -> %d, want +%d", hitsBefore, hits, len(lastFrame))
	}
	t.Logf("final: %d batches durable at epoch %d, seqs 1..%d exactly once, %d dedup hits over the run",
		leaderBatches, prevEpoch, failoverN, scrapeCounter(t, client, leaderBase, "srv_dedup_hits"))
}

// failoverClient is the exactly-once reconnect client: a windowed CGBIN/2
// sender that cycles through the cluster's binary addresses, resuming from
// the first un-acked update with unchanged sequence numbers after every
// connection death or non-OK ack.
type failoverClient struct {
	addrs          []string
	sid            uint64
	ups            []graph.Update
	limit          atomic.Int64 // barrier: do not send past this position
	acked          atomic.Int64 // first un-acked update index
	droppedUpdates atomic.Int64 // sanitizer drops reported in OK acks
	reconnects     atomic.Int64
}

func (c *failoverClient) run() error {
	at := 0
	rot := 0
	var lastErr error
	for at < len(c.ups) {
		if c.reconnects.Load() > 400 {
			return fmt.Errorf("giving up at update %d after %d reconnects: %v", at, c.reconnects.Load(), lastErr)
		}
		next, err := c.conn(c.addrs[rot%len(c.addrs)], at)
		at = next
		c.acked.Store(int64(at))
		if at >= len(c.ups) && err == nil {
			return nil
		}
		lastErr = err
		rot++
		c.reconnects.Add(1)
		time.Sleep(100 * time.Millisecond)
	}
	return nil
}

// conn drives one connection from c.ups[from:], returning the index just
// past the last acked frame — the resume point.
func (c *failoverClient) conn(addr string, from int) (int, error) {
	acked := from
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return acked, err
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(BinHello2)); err != nil {
		return acked, err
	}
	type pend struct{ end int }
	pending := make(chan pend, failoverWindow)
	ackDone := make(chan error, 1)
	var dead atomic.Bool
	go func() {
		br := bufio.NewReader(conn)
		for p := range pending {
			ack, rerr := ReadBinAck(br)
			if rerr == nil && ack.Status != BinStatusOK {
				rerr = fmt.Errorf("ack status %d at pos %d", ack.Status, ack.Pos)
			}
			if rerr != nil {
				dead.Store(true)
				conn.Close()
				for range pending {
				}
				ackDone <- rerr
				return
			}
			acked = p.end
			c.acked.Store(int64(p.end))
			c.droppedUpdates.Add(int64(ack.Dropped))
		}
		ackDone <- nil
	}()

	var buf []byte
	var sendErr error
	for at := from; at < len(c.ups) && !dead.Load(); {
		// Park at the phase barrier; the harness raises it per cycle.
		if int64(at) >= c.limit.Load() {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		end := at + failoverFrame
		if end > len(c.ups) {
			end = len(c.ups)
		}
		pending <- pend{end: end}
		buf = AppendBinFrameSession(buf[:0], c.sid, uint64(at)+1, c.ups[at:end])
		if _, werr := conn.Write(buf); werr != nil {
			sendErr = werr
			break
		}
		at = end
		time.Sleep(5 * time.Millisecond) // pacing: keep ingest alive across cycles
	}
	close(pending)
	err = <-ackDone
	if err == nil {
		err = sendErr
	}
	return acked, err
}

// resendSessionFrame opens a fresh CGBIN/2 connection, sends exactly one
// frame, and returns its ack's accepted count.
func resendSessionFrame(addr string, sid, firstSeq uint64, ups []graph.Update) (int, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(BinHello2)); err != nil {
		return 0, err
	}
	buf := AppendBinFrameSession(nil, sid, firstSeq, ups)
	if _, err := conn.Write(buf); err != nil {
		return 0, err
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ack, err := ReadBinAck(bufio.NewReader(conn))
	if err != nil {
		return 0, err
	}
	if ack.Status != BinStatusOK {
		return 0, fmt.Errorf("ack status %d", ack.Status)
	}
	return int(ack.Accepted), nil
}

func waitFailoverAcked(t *testing.T, c *failoverClient, target int64, done chan error) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for c.acked.Load() < target {
		select {
		case err := <-done:
			t.Fatalf("client exited early at %d/%d: %v", c.acked.Load(), target, err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("client stalled at %d, waiting for %d (%d reconnects)", c.acked.Load(), target, c.reconnects.Load())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

type failoverHealthz struct {
	Role    string `json:"role"`
	Epoch   uint64 `json:"epoch"`
	Batches uint64 `json:"batches"`
	Leader  string `json:"leader"`
}

func getFailoverHealthz(t *testing.T, client *http.Client, base string) failoverHealthz {
	t.Helper()
	var hz failoverHealthz
	getJSONChaos(t, client, base+"/healthz", &hz)
	return hz
}

// scrapeCounter pulls one named counter out of /metrics.
func scrapeCounter(t *testing.T, client *http.Client, base, name string) uint64 {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	re := regexp.MustCompile(`name="` + name + `"\} (\d+)`)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if m := re.FindStringSubmatch(sc.Text()); m != nil {
			v, _ := strconv.ParseUint(m[1], 10, 64)
			return v
		}
	}
	return 0
}
