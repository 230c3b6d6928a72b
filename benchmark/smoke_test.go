package main

import (
	"math"
	"testing"
	"time"
)

func testSpec(t *testing.T) *benchmarkJSON {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := loadBenchmarkJSON(root)
	if err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestSmokeEveryWorkloadEmitsEveryMetric runs each workload at smoke size,
// untraced and traced, against real cisgraphd children. A run reports exactly
// the names BENCHMARK.json declares, each once with its unit, or fails
// (result.set, result.complete); what is left to hold here is that every value
// is finite and non-negative, that no end-to-end metric of a valid run reads
// 0, and that the served answers verify. A refactor that breaks the harness or drops a metric
// fails here instead of silently in a later comparison. Load-dependent
// verdicts (a paced schedule falling behind on a busy test machine) are not
// asserted.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns cisgraphd children")
	}
	bj := testSpec(t)
	// BENCHMARK.json names the gated workloads, in the harness's order; the
	// harness may know more (replicated-restart is reported, not gated).
	if len(bj.Workloads) > len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bj.Workloads), len(workloads))
	}
	if bj.Paths[0] != "benchmark" || len(bj.Command) < 3 || bj.Command[2] != "./benchmark" {
		t.Fatalf("BENCHMARK.json command %v / paths %v do not point at this package", bj.Command, bj.Paths)
	}
	e, err := newEnv(smokeSize)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	check := func(t *testing.T, r *result, nonZero bool) {
		t.Helper()
		if !r.Correct {
			t.Errorf("served answers failed verification: %v", r.notes)
		}
		if r.Attempted < 1 || r.Failed < 0 || r.Failed > r.Attempted {
			t.Errorf("attempted %d, failed %d", r.Attempted, r.Failed)
		}
		// A run the harness itself declared invalid (too few watch deltas in
		// so short a window) may have nothing to put in a latency.
		nonZero = nonZero && r.Failed < r.Attempted
		for name, m := range r.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 || (nonZero && m.Value == 0) {
				t.Errorf("metric %s = %v %s", name, m.Value, m.Unit)
			}
		}
	}
	const window = 500 * time.Millisecond
	for i, w := range workloads {
		if i < len(bj.Workloads) && bj.Workloads[i].Name != w.name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the harness %q", i, bj.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			r, err := e.runTimed(w, 1, window)
			if err != nil {
				t.Fatalf("untraced: %v", err)
			}
			check(t, r, true)
			if r, err = e.runTraced(w, 1, window); err != nil {
				t.Fatalf("traced: %v", err)
			}
			check(t, r, false)
		})
	}
}
