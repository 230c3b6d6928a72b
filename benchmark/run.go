package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
)

// env is what one harness process shares across runs: BENCHMARK.json's metric
// names, the built daemon, a scratch directory under benchmark/out, and the
// children to reap.
type env struct {
	spec           *benchmarkJSON
	out, bin, work string
	size           sizing
	iso            *isolation
	client         *http.Client

	mu   sync.Mutex
	live []*daemon
}

func newEnv(size sizing) (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	spec, err := loadBenchmarkJSON(root)
	if err != nil {
		return nil, err
	}
	// Everything the harness writes stays in benchmark/out, inside the
	// checkout and ignored by git: the daemon binary, scratch, trace files.
	out := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildDaemon(root, out)
	if err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	// After the build, which may use every CPU.
	iso, err := isolate()
	if err != nil {
		return nil, err
	}
	return &env{
		spec: spec, out: out, bin: bin, work: work, size: size, iso: iso,
		// Writer, reader, subscriber and sampler each keep a connection alive.
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	}, nil
}

// close kills whatever is still running and removes the scratch directory.
func (e *env) close() {
	e.mu.Lock()
	live := e.live
	e.live = nil
	e.mu.Unlock()
	for _, d := range live {
		d.stop()
	}
	e.client.CloseIdleConnections()
	_ = os.RemoveAll(e.work) // scratch only; a leftover is ignored by git
}

func (e *env) track(d *daemon) {
	e.mu.Lock()
	e.live = append(e.live, d)
	e.mu.Unlock()
}

// deployment is one started set of daemons plus the inputs they were given.
type deployment struct {
	inputs
	w          workload
	dir        string
	leader     *daemon
	follower   *daemon
	leaderArgs []string // without -queries / -resume
}

func (dep *deployment) daemons() []*daemon {
	if dep.follower != nil {
		return []*daemon{dep.leader, dep.follower}
	}
	return []*daemon{dep.leader}
}

// stop kills the daemons and removes their scratch: a later deployment must
// never find this one's WAL or checkpoint.
func (dep *deployment) stop() {
	for _, d := range dep.daemons() {
		d.stop()
	}
	_ = os.RemoveAll(dep.dir) // scratch only; env.close removes what is left
}

// ckpt returns the workload's checkpoint cadence and residue at this size.
func (e *env) ckpt(w workload) (every, residue uint64) {
	return w.ckptEvery >> e.size.ckptShift, w.residue >> e.size.ckptShift
}

// setup generates the inputs from the seed and brings the deployment up:
// dataset → 50 % split → snapshot file → queries → daemon(s) healthy with
// every query converged. Its duration is the setup_s sample.
func (e *env) setup(w workload, seed int64, tag string, extraEnv ...string) (*deployment, time.Duration, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(e.work, tag+"-")
	if err != nil {
		return nil, 0, err
	}
	in, err := genInputs(w, e.size.scale, seed)
	if err != nil {
		return nil, 0, err
	}
	dep := &deployment{inputs: in, w: w, dir: dir}
	snap := filepath.Join(dir, "initial.bel")
	if err := graph.SaveFile(snap, dep.initial); err != nil {
		return nil, 0, err
	}
	pairs := make([]string, len(dep.queries))
	for i, q := range dep.queries {
		pairs[i] = strconv.Itoa(int(q.S)) + ":" + strconv.Itoa(int(q.D))
	}
	queryArg := strings.Join(pairs, ",")

	every, _ := e.ckpt(w)
	dep.leaderArgs = []string{
		"-file", snap, "-algo", "PPSP",
		"-wal", filepath.Join(dir, "leader.wal"),
		"-checkpoint", filepath.Join(dir, "leader.ckpt"),
		"-checkpoint-every", strconv.FormatUint(every, 10),
	}
	if w.propagate {
		dep.leaderArgs = append(dep.leaderArgs, "-propagate-workers", strconv.Itoa(e.iso.daemonCPUs))
	}
	if w.follower {
		dep.leaderArgs = append(dep.leaderArgs, "-sync-followers", "1")
	}
	if dep.leader, err = e.start(filepath.Join(dir, "leader.log"), nil, append(dep.leaderArgs[:len(dep.leaderArgs):len(dep.leaderArgs)], "-queries", queryArg), extraEnv); err != nil {
		return nil, 0, err
	}
	if _, err := dep.leader.waitHealthy(e.client, w.q, 60*time.Second); err != nil {
		return nil, 0, err
	}
	if w.follower {
		args := []string{
			"-file", snap, "-algo", "PPSP", "-queries", queryArg,
			"-follow", dep.leader.url(),
			"-wal", filepath.Join(dir, "follower.wal"),
			"-checkpoint", filepath.Join(dir, "follower.ckpt"),
		}
		if dep.follower, err = e.start(filepath.Join(dir, "follower.log"), nil, args, extraEnv); err != nil {
			return nil, 0, err
		}
		// The leader gates acks on the follower's tail position, which it
		// learns from the follower's first tail request; the follower starts
		// tailing before it serves /healthz, so at worst the first acks wait
		// a moment for that request to land.
		if _, err := dep.follower.waitHealthy(e.client, w.q, 60*time.Second); err != nil {
			return nil, 0, err
		}
	}
	return dep, time.Since(t0), nil
}

// start launches one daemon; reuse, when set, keeps the addresses of a
// previous incarnation so a follower can find its restarted leader.
func (e *env) start(logPath string, reuse *daemon, args, extraEnv []string) (*daemon, error) {
	var httpAddr, binAddr string
	if reuse != nil {
		httpAddr, binAddr = reuse.httpAddr, reuse.binAddr
	}
	d, err := startDaemon(e.iso, e.bin, logPath, httpAddr, binAddr, args, extraEnv...)
	if err != nil {
		return nil, err
	}
	e.track(d)
	return d, nil
}

// mark is one reading of the deployment's cumulative state.
type mark struct {
	at  time.Time
	cpu time.Duration // user+sys over all daemons
	pos uint64        // leader stream position
}

func (e *env) mark(dep *deployment) (mark, error) {
	var h healthz
	if err := getJSON(e.client, dep.leader.url()+"/healthz", &h); err != nil {
		return mark{}, err
	}
	m := mark{at: time.Now(), pos: h.Batches}
	for _, d := range dep.daemons() {
		c, err := procCPU(d.pid())
		if err != nil {
			return mark{}, err
		}
		m.cpu += c
	}
	return m, nil
}

// marksAt takes one mark at each of the given instants.
func (e *env) marksAt(dep *deployment, at []time.Time) ([]mark, error) {
	out := make([]mark, 0, len(at))
	for _, t := range at {
		time.Sleep(time.Until(t))
		m, err := e.mark(dep)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// measured is what one timed window yields.
type measured struct {
	updPerS      float64 // median of the slices, in reference-host time
	cpuUsPerUpd  float64 // median of the slices, in reference-host time
	updates      uint64
	from, to     int64     // window bounds, ns since the epoch
	start, end   time.Time // the same bounds
	sliceUpdPerS []float64 // as measured
	sliceCPU     []float64 // as measured
	sliceSlow    []float64 // host slowdown per slice
}

// slicesIn cuts a window into one-second slices (at least two, for the smoke
// test's sub-second windows). Rates are the median slice, so a stall or a
// checkpoint that lands in a few slices does not move them.
func slicesIn(window time.Duration) int {
	return max(2, int(window/time.Second))
}

// windowStats turns a window's slice-edge marks into its rates. Each slice is
// converted to reference-host time by the slowdown the probe saw during it
// (closed-loop rates only: an open-loop rate is the schedule).
func windowStats(marks []mark, unit uint64, epoch time.Time, probe *hostProbe, openLoop bool) measured {
	var m measured
	var rate, cpu []float64
	for i := 0; i+1 < len(marks); i++ {
		dt := marks[i+1].at.Sub(marks[i].at).Seconds()
		n := float64((marks[i+1].pos - marks[i].pos) * unit)
		slow := probe.slowdown(marks[i].at, marks[i+1].at)
		m.sliceSlow = append(m.sliceSlow, slow)
		m.sliceUpdPerS = append(m.sliceUpdPerS, n/dt)
		if openLoop {
			rate = append(rate, n/dt)
		} else {
			rate = append(rate, n/dt*slow)
		}
		if n > 0 {
			c := float64((marks[i+1].cpu - marks[i].cpu).Microseconds()) / n
			m.sliceCPU = append(m.sliceCPU, c)
			cpu = append(cpu, c/slow)
		}
	}
	first, last := marks[0], marks[len(marks)-1]
	m.updPerS = stats.Median(rate)
	m.cpuUsPerUpd = stats.Median(cpu)
	m.updates = (last.pos - first.pos) * unit
	m.start, m.end = first.at, last.at
	m.from, m.to = first.at.Sub(epoch).Nanoseconds(), last.at.Sub(epoch).Nanoseconds()
	return m
}

// loadResult is everything one load phase observed.
type loadResult struct {
	epoch   time.Time
	windows []measured // one per requested window, in order
	acks    *opLog
	reads   *opLog
	deltas  *opLog
	late    []int64
	endLag  int
	maxLag  int
	sent    []graph.Update
	watch   *watcher
	scrapes []scrape // traced window only
	final   *answersWire
	rssMB   float64
}

// drive runs the workload's writer against dep for warm-up plus nWindows
// consecutive windows of `seconds`, with the paced reader and the watch
// subscriber beside it, then tops the stream up to the restore offset and
// waits for quiescence. scrapeWindow ≥ 0 scrapes /metrics and /healthz once a
// second during that window (the traced one).
func (e *env) drive(dep *deployment, probe *hostProbe, seconds time.Duration, nWindows, scrapeWindow int) (*loadResult, error) {
	w := dep.w
	res := &loadResult{epoch: time.Now(), reads: &opLog{}, watch: &watcher{view: map[int]float64{}}}
	// The reader and the subscriber run beside the writer; their logs may be
	// read only once stopSide has returned.
	ctx, cancel := context.WithCancel(context.Background())
	var side sync.WaitGroup
	stopSide := func() {
		cancel()
		side.Wait()
	}
	defer stopSide()
	ready := make(chan struct{})
	side.Add(1)
	go func() {
		defer side.Done()
		res.watch.run(ctx, e.client, dep.leader.url(), res.epoch, ready)
	}()
	<-ready
	side.Add(1)
	go func() {
		defer side.Done()
		pacedReader(ctx, e.client, dep.leader.url(), res.epoch, readEvery, res.reads)
	}()

	start := time.Now()
	open := start.Add(e.size.warmup)
	slices := slicesIn(seconds)
	var bounds []time.Time
	for i := 0; i <= nWindows*slices; i++ {
		bounds = append(bounds, open.Add(seconds*time.Duration(i)/time.Duration(slices)))
	}
	until := bounds[len(bounds)-1]
	var marks []mark
	var markErr error
	var scrapeErr error
	var meas sync.WaitGroup
	meas.Add(1)
	go func() {
		defer meas.Done()
		marks, markErr = e.marksAt(dep, bounds)
	}()
	if scrapeWindow >= 0 {
		meas.Add(1)
		go func() {
			defer meas.Done()
			from := bounds[scrapeWindow*slices]
			res.scrapes, scrapeErr = e.scrapeEvery(dep, res.epoch, from, from.Add(seconds))
		}()
	}

	every, residue := e.ckpt(w)
	rule := stopRule{until: until, ckptEvery: every, residue: residue}
	var runErr error
	unit := uint64(1)
	if w.json {
		unit = uint64(w.frame)
		jw := &jsonWriter{base: dep.leader.url(), body: w.frame, maxAhead: uint64(w.window), epoch: res.epoch, gen: dep.churn}
		runErr = jw.run(e.client, rule)
		res.acks, res.sent = &jw.posts, jw.sent
	} else {
		bw := &binWriter{addr: dep.leader.binAddr, sid: 1, frame: w.frame, epoch: res.epoch, gen: dep.churn}
		var interval time.Duration
		if w.rate > 0 {
			interval = time.Duration(float64(w.frame) / w.rate * float64(time.Second))
		}
		runErr = bw.run(w.window, interval, rule)
		res.acks, res.sent, res.late, res.endLag, res.maxLag = &bw.acks, bw.sent, bw.late, bw.endLag, bw.maxLag
	}
	meas.Wait()
	for _, err := range []error{runErr, markErr, scrapeErr} {
		if err != nil {
			return res, err
		}
	}
	for i := 0; i < nWindows; i++ {
		res.windows = append(res.windows, windowStats(marks[i*slices:(i+1)*slices+1], unit, res.epoch, probe, w.rate > 0))
	}

	// Everything sent is acked; wait until it is also applied and served.
	if _, err := dep.leader.waitQuiesced(e.client, uint64(len(res.sent))/unit, 60*time.Second); err != nil {
		return res, err
	}
	var err error
	if res.final, err = getAnswers(e.client, dep.leader.url()); err != nil {
		return res, err
	}
	// In-flight SSE frames land within moments of quiescence.
	want := answerMap(res.final)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, ok := res.watch.agrees(want); ok || time.Now().After(deadline) {
			break
		}
	}
	stopSide()
	res.deltas = &res.watch.deltas
	for _, d := range dep.daemons() {
		rss, err := procPeakRSS(d.pid())
		if err != nil {
			return res, err
		}
		res.rssMB += rss
	}
	return res, nil
}

func answerMap(a *answersWire) map[int]float64 {
	m := make(map[int]float64, len(a.Answers))
	for _, x := range a.Answers {
		m[x.ID] = float64(x.Value)
	}
	return m
}

// offlineAnswers recomputes every query from scratch over the initial
// snapshot plus exactly the acked stream: the reference the served answers
// must equal.
func offlineAnswers(dep *deployment, sent []graph.Update) []algo.Value {
	g := graph.FromEdgeList(dep.initial)
	g.Apply(sent)
	eng := core.NewMultiCISO()
	eng.Reset(g, algo.PPSP{}, dep.queries)
	return eng.Answers()
}

// sameAnswers compares a served table with reference values in query order.
func sameAnswers(got *answersWire, want []algo.Value) error {
	if len(got.Answers) != len(want) {
		return fmt.Errorf("served %d answers, want %d", len(got.Answers), len(want))
	}
	for _, a := range got.Answers {
		if a.ID < 0 || a.ID >= len(want) || float64(a.Value) != want[a.ID] {
			return fmt.Errorf("query %d (%d->%d): served %v, offline recomputation gives %v", a.ID, a.S, a.D, float64(a.Value), want[a.ID])
		}
	}
	return nil
}

// verify is the correctness gate: served = offline recomputation; the watch
// subscriber's delta-built view = polled answers; with a follower, follower =
// leader.
func (e *env) verify(dep *deployment, res *loadResult) error {
	want := offlineAnswers(dep, res.sent)
	if err := sameAnswers(res.final, want); err != nil {
		return fmt.Errorf("leader: %w", err)
	}
	if n, ok := res.watch.agrees(answerMap(res.final)); !ok {
		return fmt.Errorf("watch subscriber's delta-built view (%d answers) disagrees with polled /v1/answers", n)
	}
	if dep.follower != nil {
		if _, err := dep.follower.waitQuiesced(e.client, res.final.Batches, 60*time.Second); err != nil {
			return fmt.Errorf("follower catch-up: %w", err)
		}
		fa, err := getAnswers(e.client, dep.follower.url())
		if err != nil {
			return err
		}
		if err := sameAnswers(fa, want); err != nil {
			return fmt.Errorf("follower: %w", err)
		}
	}
	return nil
}

// restore SIGKILLs the leader, restarts it with -resume on the same
// addresses, and returns the time until it serves the pre-kill answers again.
func (e *env) restore(dep *deployment, before *answersWire, rep int) (time.Duration, error) {
	t0 := time.Now()
	dep.leader.stop()
	args := append(dep.leaderArgs[:len(dep.leaderArgs):len(dep.leaderArgs)], "-resume")
	d, err := e.start(filepath.Join(dep.dir, fmt.Sprintf("leader-resume%d.log", rep)), dep.leader, args, nil)
	if err != nil {
		return 0, err
	}
	dep.leader = d
	if _, err := d.waitHealthy(e.client, dep.w.q, 120*time.Second); err != nil {
		return 0, err
	}
	got, err := getAnswers(e.client, d.url())
	if err != nil {
		return 0, err
	}
	took := time.Since(t0)
	if got.Batches != before.Batches {
		return 0, fmt.Errorf("restored leader at position %d, was %d before the kill", got.Batches, before.Batches)
	}
	if err := sameAnswers(got, valuesOf(before)); err != nil {
		return 0, fmt.Errorf("restored leader: %w", err)
	}
	return took, nil
}

func valuesOf(a *answersWire) []algo.Value {
	out := make([]algo.Value, len(a.Answers))
	for _, x := range a.Answers {
		out[x.ID] = float64(x.Value)
	}
	return out
}
