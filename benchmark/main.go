// Command benchmark is the repository's end-to-end benchmark: it builds
// cmd/cisgraphd, generates a seeded RMAT graph and a steady-state churn
// stream, drives real cisgraphd child processes over loopback (WAL + fsync,
// checkpoints, CGBIN/2 sessions), checks the served answers against an
// offline recomputation, and prints every metric by name with its unit.
// README.md in this directory documents workloads, metrics and layers.
//
//	go run ./benchmark --workload ingest-durable --seed 1 --seconds 10 --trace 0
//	go run ./benchmark --seed 42                 # every workload, traced and untraced
//	go run ./benchmark --seed 42 --repeat 5      # the same set five times, then compared
//	go run ./benchmark compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cisgraph/internal/stats"
)

// metric is one reported value in the contract's wire form.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string          // printed above the result line, not part of it
	units map[string]string // declared name → unit
}

// newResult prepares a result that takes exactly the metrics BENCHMARK.json
// declares for this kind of run.
func newResult(defs []boundedMetric) *result {
	r := &result{Metrics: make(map[string]metric, len(defs)), units: make(map[string]string, len(defs))}
	for _, d := range defs {
		r.units[d.Name] = d.Unit
	}
	return r
}

// set reports one metric, once. An undeclared or repeated name is a harness
// bug, never input.
func (r *result) set(name string, v float64) {
	unit, ok := r.units[name]
	if _, dup := r.Metrics[name]; !ok || dup {
		panic("benchmark: metric " + name + " is undeclared in BENCHMARK.json or set twice")
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// complete fails when a declared metric was never set, so that a refactor
// cannot silently drop one.
func (r *result) complete() error {
	for name := range r.units {
		if _, ok := r.Metrics[name]; !ok {
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", name)
		}
	}
	return nil
}

func (r *result) print(defs []boundedMetric) {
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	for _, d := range defs {
		fmt.Printf("%-44s %16.4f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "run one workload and print its result as the last line (default: every workload)")
		seed    = flag.Int64("seed", 42, "seed every input is derived from")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 = the traced run: per-layer metrics from stage replay and scraped counters")
		smoke   = flag.Bool("smoke", false, "scale-10 graph, single set-up and restore: a harness check, not a measurement")
		repeat  = flag.Int("repeat", 1, "with no --workload: run the whole set this many times and compare the sets")
		out     = flag.String("out", "", "with no --workload: also write the summary JSON to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	size := fullSize
	if *smoke {
		size = smokeSize
	}
	e, err := newEnv(size)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	// A signalled harness still reaps its children before it goes.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(1)
	}()
	code := 0
	window := time.Duration(*seconds * float64(time.Second))
	if *name != "" {
		// A single run must end on its own: if a daemon wedges, reap it and
		// fail rather than hang whoever is waiting for the result line.
		time.AfterFunc(runDeadline, func() {
			fmt.Fprintln(os.Stderr, "benchmark: run exceeded", runDeadline)
			e.close()
			os.Exit(1)
		})
		code = runOne(e, *name, *seed, window, *trace == 1)
	} else if err := runAll(e, *seed, window, *repeat, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = 1
	}
	e.close()
	os.Exit(code)
}

// runDeadline bounds one single-workload run, build excluded.
const runDeadline = 170 * time.Second

// runOne is the contract mode: one workload, one result line.
func runOne(e *env, name string, seed int64, window time.Duration, traced bool) int {
	w, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	var (
		r    *result
		err  error
		defs = e.spec.EndToEnd
	)
	if traced {
		defs = e.spec.PerLayer
		r, err = e.runTraced(w, seed, window)
	} else {
		r, err = e.runTimed(w, seed, window)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	r.print(defs)
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

// runTimed is the untraced run: the only source of end-to-end metrics.
func (e *env) runTimed(w workload, seed int64, window time.Duration) (*result, error) {
	r := newResult(e.spec.EndToEnd)
	probe := startHostProbe(e.iso)
	defer probe.stop()
	var dep *deployment
	var setups []float64
	setupFrom := time.Now()
	for i := 0; i < e.size.setups; i++ {
		if dep != nil {
			dep.stop()
		}
		var took time.Duration
		var err error
		if dep, took, err = e.setup(w, seed, fmt.Sprintf("%s-%d", w.name, i)); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took.Seconds())
	}
	defer dep.stop()
	setupSlow := probe.slowdown(setupFrom, time.Now())
	res, err := e.drive(dep, probe, window, 1, -1)
	countOps(r, w, res)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.Correct = true
	if verr := e.verify(dep, res); verr != nil {
		r.Correct, r.Failed = false, r.Attempted
		r.notes = append(r.notes, "INCORRECT: "+verr.Error())
	}
	var restores []float64
	restoreFrom := time.Now()
	for i := 0; i < e.size.restores; i++ {
		took, rerr := e.restore(dep, res.final, i)
		if rerr != nil {
			r.Correct, r.Failed = false, r.Attempted
			r.notes = append(r.notes, "INCORRECT: restore: "+rerr.Error())
			break
		}
		restores = append(restores, took.Seconds())
	}
	restoreSlow := probe.slowdown(restoreFrom, time.Now())

	m := res.windows[0]
	windowSlow := probe.slowdown(m.start, m.end)
	acks, reads, deltas := res.acks.window(m.from, m.to), res.reads.window(m.from, m.to), res.deltas.window(m.from, m.to)
	// paced-watch needs its watch traffic.
	if min := int(w.minDeltas * window.Seconds()); len(deltas) < min {
		r.Failed = r.Attempted
		r.notes = append(r.notes, fmt.Sprintf("INVALID: %d watch deltas in the window, the workload is sized for at least %d", len(deltas), min))
	}
	// Every time below is in reference-host time: as measured, over the host's
	// slowdown while it was measured.
	ackUs := usOf(percentile(acks, 0.50))
	r.set("setup_s", stats.Median(setups)/setupSlow)
	r.set("upd_per_s", m.updPerS)
	r.set("ack_p50_us", ackUs/windowSlow)
	r.set("cpu_us_per_upd", m.cpuUsPerUpd)
	r.set("rss_mb", res.rssMB)
	r.set("restore_s", stats.Median(restores)/restoreSlow)
	r.notes = append(r.notes,
		fmt.Sprintf("%s seed %d: %d updates in a %.1fs window (slices %.0f upd/s, %.1f us CPU/upd), %d acks, %d reads, %d watch deltas",
			w.name, seed, m.updates, window.Seconds(), m.sliceUpdPerS, m.sliceCPU, len(acks), len(reads), len(deltas)),
		fmt.Sprintf("as measured: %.0f upd/s, %.2f us CPU/upd, ack p50 %.0f us, watch delivery p50 %.0f us, set-up %.3f s, restore %.3f s; host slowdown %.3f in set-up, %.3f in the window (slices %.2f), %.3f in restore",
			stats.Median(m.sliceUpdPerS), stats.Median(m.sliceCPU), ackUs, usOf(percentile(deltas, 0.50)), stats.Median(setups), stats.Median(restores), setupSlow, windowSlow, m.sliceSlow, restoreSlow),
		fmt.Sprintf("set-ups %.3f s, restores %.3f s, generator lateness p50 %.0f us p99 %.0f us, unacked frames at end %d (max %d)",
			setups, restores, usOf(percentile(res.late, 0.50)), usOf(percentile(res.late, 0.99)), res.endLag, res.maxLag))
	return r, r.complete()
}

// count folds every client role's operations into the result and applies the
// open loop's validity rule: a schedule the daemon could not keep up with
// measured a queue, not the daemon, so all of its operations count as failed.
func countOps(r *result, w workload, res *loadResult) {
	for _, l := range []*opLog{res.acks, res.reads, res.deltas} {
		if l == nil {
			continue
		}
		r.Attempted += l.attempted
		r.Failed += l.failed
		if l.firstErr != nil {
			r.notes = append(r.notes, "failed operation: "+l.firstErr.Error())
		}
	}
	if w.rate > 0 {
		allowed := int(w.rate / float64(w.frame) / 4) // a quarter second of schedule
		if res.endLag > allowed {
			r.Failed = r.Attempted
			r.notes = append(r.notes, fmt.Sprintf("INVALID: %d frames unacked when the schedule ended (allowed %d): the backlog grew", res.endLag, allowed))
		}
	}
	if r.Attempted == 0 {
		r.Attempted = 1 // nothing got as far as an operation: one failed run
		r.Failed = 1
	}
}

// summary is the all-workloads report.
type summary struct {
	Env       map[string]any               `json:"env"`
	Seed      int64                        `json:"seed"`
	Seconds   float64                      `json:"seconds"`
	EndToEnd  map[string]map[string]metric `json:"end_to_end"`
	PerLayer  map[string]map[string]metric `json:"per_layer"`
	Attempted map[string]int               `json:"attempted"`
	Failed    map[string]int               `json:"failed"`
	Correct   bool                         `json:"correct"`
	Claim     *string                      `json:"claim"` // null: this benchmark reports a baseline
}

// runAll runs every workload untraced then traced, `repeat` times, prints the
// tables, and ends with the summary JSON.
func runAll(e *env, seed int64, window time.Duration, repeat int, out string) error {
	var sets []*summary
	for rep := 0; rep < repeat; rep++ {
		s := &summary{
			Env: environment(e), Seed: seed, Seconds: window.Seconds(), Correct: true,
			EndToEnd: map[string]map[string]metric{}, PerLayer: map[string]map[string]metric{},
			Attempted: map[string]int{}, Failed: map[string]int{},
		}
		for _, w := range workloads {
			fmt.Printf("== %s (untraced, set %d of %d)\n", w.name, rep+1, repeat)
			r, err := e.runTimed(w, seed, window)
			if err != nil {
				return err
			}
			r.print(e.spec.EndToEnd)
			s.EndToEnd[w.name], s.Attempted[w.name], s.Failed[w.name] = r.Metrics, r.Attempted, r.Failed
			s.Correct = s.Correct && r.Correct
			fmt.Printf("== %s (traced)\n", w.name)
			if r, err = e.runTraced(w, seed, window); err != nil {
				return err
			}
			r.print(e.spec.PerLayer)
			s.PerLayer[w.name] = r.Metrics
			s.Correct = s.Correct && r.Correct
		}
		sets = append(sets, s)
	}
	if repeat > 1 {
		// Self-agreement: the first half of the sets against the second.
		printComparison(os.Stdout, compareSets(e.spec, sets[:repeat/2], sets[repeat/2:]))
	}
	b, err := json.MarshalIndent(sets[len(sets)-1], "", "  ")
	if err != nil {
		return err
	}
	if out != "" {
		all, err := json.MarshalIndent(sets, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, all, 0o644); err != nil {
			return err
		}
	}
	fmt.Println(string(b))
	if !sets[len(sets)-1].Correct {
		return fmt.Errorf("a workload served answers that failed verification")
	}
	return nil
}
