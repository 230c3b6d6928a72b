package main

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// scrape is one once-a-second reading of the running deployment.
type scrape struct {
	at      int64 // ns since the run's epoch
	metrics map[string]float64
	health  healthz
	lag     uint64 // follower lag_batches
}

// scrapeEvery reads /metrics and /healthz at from, once a second after it, and
// at to.
func (e *env) scrapeEvery(dep *deployment, epoch time.Time, from, to time.Time) ([]scrape, error) {
	var out []scrape
	for t := from; ; t = t.Add(time.Second) {
		if t.After(to) {
			t = to
		}
		time.Sleep(time.Until(t))
		s := scrape{at: time.Since(epoch).Nanoseconds()}
		var err error
		if s.metrics, err = scrapeMetrics(e.client, dep.leader.url()); err != nil {
			return nil, err
		}
		if err = getJSON(e.client, dep.leader.url()+"/healthz", &s.health); err != nil {
			return nil, err
		}
		if dep.follower != nil {
			var fh healthz
			if err = getJSON(e.client, dep.follower.url()+"/healthz", &fh); err != nil {
				return nil, err
			}
			if fh.Repl != nil {
				s.lag = fh.Repl.LagBatches
			}
		}
		out = append(out, s)
		if t.Equal(to) {
			return out, nil
		}
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runTraced is the traced run: per-layer metrics from the stage replay
// (exact, in-process) and from counters scraped off the running daemon, never
// the source of an end-to-end metric. README.md lists each metric's source
// call; one a workload does not exercise reads 0.
func (e *env) runTraced(w workload, seed int64, window time.Duration) (*result, error) {
	r := newResult(e.spec.PerLayer)
	r.Correct = true
	set := r.set
	// tail is a percentile only when the sample supports it, 0 otherwise.
	tail := func(xs []int64, p float64) float64 {
		if !supported(len(xs), p) {
			return 0
		}
		return usOf(percentile(xs, p))
	}

	// Part 1: stage replay.
	st, err := e.stageReplay(w, seed)
	if err != nil {
		return nil, err
	}
	tr := st.tr
	upd := float64(st.updates)
	perUpd := func(name string) float64 {
		d, _ := tr.total(name)
		return float64(d.Nanoseconds()) / upd
	}
	set("server.binproto.encode_ns_per_upd", perUpd("server.binproto.encode"))
	set("server.binproto.decode_ns_per_upd", perUpd("server.binproto.decode"))
	post, nPost := tr.total("server.http.post")
	set("server.http.post_us_per_body", ratio(float64(post.Microseconds()), float64(nPost)))
	ans, nAns := tr.total("server.http.answers")
	set("server.http.answers_us", ratio(float64(ans.Nanoseconds())/1e3, float64(nAns)))
	set("resilience.sanitize.ns_per_upd", perUpd("resilience.sanitize"))
	set("resilience.sanitize.dropped_frac", float64(st.dropped)/upd)
	app, nApp := tr.total("resilience.wal.append")
	set("resilience.wal.append_us_per_group", ratio(float64(app.Nanoseconds())/1e3, float64(nApp)))
	set("resilience.wal.sync_us_p50", usOf(percentile(st.fs.syncNs, 0.5)))
	set("resilience.wal.syncs_per_kupd", float64(st.fs.syncs.Load())/upd*1e3)
	set("resilience.wal.bytes_per_upd", float64(st.fs.bytes.Load())/upd)
	set("resilience.replay.ns_per_rec", ratio(float64(st.replayNs), float64(st.records)))
	set("server.restore.ns_per_rec", ratio(float64(st.restoNs), float64(st.records)))
	set("graph.apply_ns_per_upd", perUpd("graph.apply"))
	coreT, nCore := tr.total("core.apply")
	set("core.apply_ns_per_upd", float64(coreT.Nanoseconds())/upd)
	set("core.apply_us_per_group", ratio(float64(coreT.Nanoseconds())/1e3, float64(nCore)))
	set("core.allocs_per_upd", float64(st.allocs)/upd)
	c := func(name string) float64 { return float64(st.counters[name]) }
	set("core.safe_frac", ratio(c("update_safe"), c("update_safe")+c("update_unsafe")))
	classified := c("update_useless") + c("update_delayed") + c("update_valuable")
	set("core.useless_frac", ratio(c("update_useless"), classified))
	set("core.delayed_frac", ratio(c("update_delayed"), classified))
	set("core.valuable_frac", ratio(c("update_valuable"), classified))
	set("core.relax_per_upd", c("relax")/upd)
	set("core.skipped_query_frac", ratio(float64(st.skipped), float64(st.skipped+st.process)))
	set("core.parallel_buckets_per_group", c("parallel_buckets")/float64(st.groups))
	set("core.cold_start_ms_per_query", st.coldMS)
	set("core.state_bytes_per_query", float64(st.stateB))
	self := tr.selfTimes(true)
	set("server.pool.self_ns_per_upd", float64(self["server.pool"].Nanoseconds())/upd)
	set("server.pool.changed_per_kupd", float64(st.changed)/upd*1e3)
	pub, _ := tr.total("watch.publish")
	set("watch.publish_ns_per_event", ratio(float64(pub.Nanoseconds()), float64(st.events)))
	set("watch.delivered", float64(st.hub.Delivered()))
	set("watch.dropped_frac", ratio(float64(st.hub.Dropped()), float64(st.hub.Delivered()+st.hub.Dropped())))
	set("replication.catchup_rec_per_s", st.catchup)
	layers := map[string]time.Duration{}
	var onPath time.Duration
	for name, d := range self {
		if name == "group" {
			continue // harness glue between the calls
		}
		layers[layerOf(name)] += d
		onPath += d
	}
	for _, l := range []string{"core", "server", "resilience", "graph", "watch"} {
		set(l+".self_time_frac", ratio(float64(layers[l]), float64(onPath)))
	}
	// Time blocked in fsync is commit time but not CPU: coverage compares CPU.
	var syncWait int64
	for _, ns := range st.fs.syncNs {
		syncWait += ns
	}
	replayCPU := float64(onPath.Nanoseconds()-syncWait) / 1e3 / upd

	// Part 2: the end-to-end workload again, the measuring time split in two —
	// one untraced window, then one with client-side spans kept and the daemon
	// scraped once a second.
	half := window / 2
	// Per-layer numbers stay as measured; the probe only says what the host
	// was doing meanwhile.
	probe := startHostProbe(e.iso)
	defer probe.stop()
	dep, _, err := e.setup(w, seed, w.name+"-traced")
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer dep.stop()
	res, err := e.drive(dep, nil, half, 2, 1)
	countOps(r, w, res)
	if err != nil {
		return nil, fmt.Errorf("%s (traced): %w", w.name, err)
	}
	if verr := e.verify(dep, res); verr != nil {
		r.Correct, r.Failed = false, r.Attempted
		r.notes = append(r.notes, "INCORRECT: "+verr.Error())
	}
	plain, traced := res.windows[0], res.windows[1]
	set("env.host_slowdown", probe.slowdown(plain.start, traced.end))
	set("loadgen.traced_upd_per_s", traced.updPerS)
	// A traced window faster than the untraced one is noise, not a negative cost.
	set("loadgen.trace_overhead_frac", max(0, 1-ratio(traced.updPerS, plain.updPerS)))
	set("loadgen.replay_coverage_frac", ratio(replayCPU, plain.cpuUsPerUpd))
	set("loadgen.late_p99_us", usOf(percentile(res.late, 0.99)))
	acks := res.acks.window(plain.from, traced.to)
	set("loadgen.ack_p95_us", tail(acks, 0.95))
	set("loadgen.ack_p99_us", tail(acks, 0.99))
	reads := res.reads.window(plain.from, traced.to)
	set("loadgen.read_p50_us", tail(reads, 0.50))
	set("loadgen.read_p95_us", tail(reads, 0.95))
	set("loadgen.read_p99_us", tail(reads, 0.99))
	deltas := res.deltas.window(plain.from, traced.to)
	set("watch.deliver_count", float64(len(deltas)))
	set("watch.deliver_p50_us", tail(deltas, 0.50))
	set("watch.deliver_p95_us", tail(deltas, 0.95))
	set("watch.deliver_p99_us", tail(deltas, 0.99))

	// Scraped counters: the traced window's first reading against its last.
	n := len(res.scrapes)
	first, last := res.scrapes[0].metrics, res.scrapes[n-1].metrics
	d := func(name string) float64 { return last[name] - first[name] }
	set("server.fastpath.upd_per_group", ratio(d("srv_fastpath_updates"), d("srv_fastpath_groups")))
	set("server.dedup.hit_frac", ratio(d("srv_dedup_hits"), d("srv_updates_applied")+d("srv_dedup_hits")))
	cuts := d("srv_batch_cut_size") + d("srv_batch_cut_timer") + d("srv_batch_cut_drain")
	set("server.batcher.cut_size_frac", ratio(d("srv_batch_cut_size"), cuts))
	set("server.answers.cache_hit_frac", ratio(d("srv_answers_cache_hits"), d("srv_answers_cache_hits")+d("srv_answers_cache_misses")))
	set("server.checkpoint.count", d("srv_checkpoints"))
	// The busiest apply-latency class speaks for the workload.
	var best int
	var applyP99 float64
	for _, b := range res.scrapes[n-1].health.ApplyLatency {
		if b.Count >= best {
			best, applyP99 = b.Count, b.P99Ms*1e3
		}
	}
	set("server.apply_latency.p99_us", applyP99)
	var stall int64
	var lag uint64
	for i := 0; i+1 < n; i++ {
		a, b := res.scrapes[i], res.scrapes[i+1]
		if b.lag > lag {
			lag = b.lag
		}
		if b.metrics["srv_checkpoints"] == a.metrics["srv_checkpoints"] {
			continue
		}
		if g := maxGap(res.acks.samples, a.at, b.at); g > stall {
			stall = g
		}
	}
	set("server.checkpoint.stall_max_us", usOf(stall))
	set("replication.lag_batches_max", float64(lag))

	var client []span
	for _, s := range res.acks.samples {
		if s.at >= traced.from && s.at < traced.to {
			client = append(client, span{Name: "loadgen.write", Parent: -1, Start: s.at - s.lat, End: s.at, OnPath: true})
		}
	}
	for _, s := range res.reads.samples {
		if s.at >= traced.from && s.at < traced.to {
			client = append(client, span{Name: "loadgen.read", Parent: -1, Start: s.at - s.lat, End: s.at})
		}
	}
	path, err := e.writeTrace(w, tr, client)
	if err != nil {
		return nil, err
	}

	var promoteMS float64
	if w.follower {
		var perr error
		if promoteMS, perr = e.promote(dep); perr != nil {
			r.Correct, r.Failed = false, r.Attempted
			r.notes = append(r.notes, "INCORRECT: promote: "+perr.Error())
		}
	}
	set("server.promote.writable_ms", promoteMS)
	dep.stop()

	// The single-threaded baseline for what parallel query and propagate
	// workers buy: the workload that asks for them, daemon at GOMAXPROCS=1.
	// Where the daemon has one CPU anyway there is nothing to compare.
	var p1 float64
	if w.propagate && e.iso.daemonCPUs > 1 {
		one, _, err := e.setup(w, seed, w.name+"-p1", "GOMAXPROCS=1")
		if err != nil {
			return nil, fmt.Errorf("GOMAXPROCS=1 set-up: %w", err)
		}
		defer one.stop()
		oneRes, err := e.drive(one, nil, half, 1, -1)
		if err != nil {
			return nil, fmt.Errorf("%s (GOMAXPROCS=1): %w", w.name, err)
		}
		p1 = oneRes.windows[0].updPerS
		if verr := e.verify(one, oneRes); verr != nil {
			r.Correct, r.Failed = false, r.Attempted
			r.notes = append(r.notes, "INCORRECT (GOMAXPROCS=1): "+verr.Error())
		}
	}
	set("core.gomaxprocs1_upd_per_s", p1)

	fs, err := fsyncProbe(e.work)
	if err != nil {
		return nil, err
	}
	set("env.fsync_us", fs)
	r.notes = append(r.notes,
		fmt.Sprintf("%s seed %d traced: stage replay %d updates in %d groups of %d; spans in %s", w.name, seed, st.updates, st.groups, stageGroup(w), path),
		fmt.Sprintf("untraced %.0f upd/s, traced %.0f upd/s; stage replay accounts for %.1f of the daemon's %.1f us CPU per update (plus %.1f us per update blocked in fsync), the rest is unattributed (network, GC, scheduling, goroutine hand-offs, parallel workers)",
			plain.updPerS, traced.updPerS, replayCPU, plain.cpuUsPerUpd, float64(syncWait)/1e3/upd))
	return r, r.complete()
}

// maxGap returns the longest time between consecutive samples completed in
// [from, to).
func maxGap(samples []sample, from, to int64) int64 {
	var prev, gap int64 = -1, 0
	for _, s := range samples {
		if s.at < from || s.at >= to {
			continue
		}
		if prev >= 0 && s.at-prev > gap {
			gap = s.at - prev
		}
		prev = s.at
	}
	return gap
}

// promote measures time-to-writable once: SIGKILL the leader, promote the
// follower, and time until it acks a write.
func (e *env) promote(dep *deployment) (float64, error) {
	t0 := time.Now()
	dep.leader.stop()
	resp, err := e.client.Post(dep.follower.url()+"/v1/admin/promote", "application/json", nil)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST /v1/admin/promote: status %d", resp.StatusCode)
	}
	bw := &binWriter{addr: dep.follower.binAddr, sid: 2, frame: dep.w.frame, epoch: t0, gen: dep.churn}
	if err := bw.run(1, 0, stopRule{exact: uint64(dep.w.frame)}); err != nil {
		return 0, err
	}
	return float64(time.Since(t0).Microseconds()) / 1e3, nil
}

// fsyncProbe times write+fsync of a WAL-group-sized block on the filesystem
// the daemons log to, and returns the median in microseconds.
func fsyncProbe(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 16<<10)
	var ns []int64
	for i := 0; i < 64; i++ {
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return 0, err
		}
		ns = append(ns, time.Since(t0).Nanoseconds())
	}
	return usOf(percentile(ns, 0.5)), nil
}

// environment stamps what the numbers were measured on.
func environment(e *env) map[string]any {
	env := map[string]any{
		"num_cpu": runtime.NumCPU(),
		// The daemons' share of them (their default GOMAXPROCS); the harness
		// keeps the last one to itself when isolated.
		"daemon_cpus": e.iso.daemonCPUs,
		"isolated":    e.iso.on,
		"go_version":  runtime.Version(),
		"goos":        runtime.GOOS,
		"goarch":      runtime.GOARCH,
		"scale":       e.size.scale,
		"commit":      "unknown",
		"wal_fs":      "unknown",
	}
	if out, err := exec.Command("git", "-C", e.out, "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	env["wal_fs"] = fsType(e.work)
	if us, err := fsyncProbe(e.work); err == nil {
		env["fsync_us"] = us
	}
	return env
}

// fsType names the filesystem holding dir: the longest mount point in
// /proc/mounts that prefixes it.
func fsType(dir string) string {
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), f[2]
		}
	}
	return typ
}
