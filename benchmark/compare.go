package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkJSON is the root BENCHMARK.json: the fixed names, directions and
// bounds every comparison uses.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(root string) (*benchmarkJSON, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bj, nil
}

// cmpRow is one (workload, end-to-end metric) comparison.
type cmpRow struct {
	workload, metric string
	a, b             [3]float64 // first quartile, median, third quartile
	na, nb           int
	ratio            float64 // b's median ÷ a's median (a is the base)
	bound            float64
	verdict          string
}

// loadSets reads a file written by --out: one summary or a list of them.
func loadSets(path string) ([]*summary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sets []*summary
	if err := json.Unmarshal(b, &sets); err != nil {
		var one summary
		if err2 := json.Unmarshal(b, &one); err2 != nil {
			return nil, fmt.Errorf("%s: neither a list of summaries (%v) nor one (%v)", path, err, err2)
		}
		sets = []*summary{&one}
	}
	return sets, nil
}

func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: benchmark compare base.json other.json (files written with --out)")
	}
	a, err := loadSets(args[0])
	if err != nil {
		return err
	}
	b, err := loadSets(args[1])
	if err != nil {
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	bj, err := loadBenchmarkJSON(root)
	if err != nil {
		return err
	}
	printComparison(os.Stdout, compareSets(bj, a, b))
	return nil
}

func quart(xs []float64) [3]float64 {
	if len(xs) == 1 {
		return [3]float64{xs[0], xs[0], xs[0]}
	}
	q1, q2, q3 := quartiles(xs)
	return [3]float64{q1, q2, q3}
}

// compareSets judges every end-to-end metric of every workload: b against
// the base a, by the bound BENCHMARK.json fixes. "unresolved" means either
// side's inter-quartile spread is wider than the bound, so nothing can be
// said; "better" needs a gain beyond the base's own spread (beyond the bound
// when the base is a single run).
func compareSets(bj *benchmarkJSON, a, b []*summary) []cmpRow {
	values := func(sets []*summary, w, m string) []float64 {
		var xs []float64
		for _, s := range sets {
			if v, ok := s.EndToEnd[w][m]; ok {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	var rows []cmpRow
	for _, w := range bj.Workloads {
		for _, m := range bj.EndToEnd {
			xa, xb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			r := cmpRow{workload: w.Name, metric: m.Name, a: quart(xa), b: quart(xb), na: len(xa), nb: len(xb), bound: m.Bound}
			r.ratio = ratio(r.b[1], r.a[1])
			worse := r.ratio - 1 // lower is better
			if m.Better == "higher" {
				worse = 1 - r.ratio
			}
			spreadA, spreadB := ratio(r.a[2]-r.a[0], r.a[1]), ratio(r.b[2]-r.b[0], r.b[1])
			gain := spreadA // what a gain must exceed: the base's own spread
			if len(xa) < 2 {
				gain = m.Bound // a single base run has no spread to show
			}
			switch {
			case spreadA > m.Bound || spreadB > m.Bound:
				r.verdict = "unresolved"
			case worse > m.Bound:
				r.verdict = "worse"
			case -worse > gain:
				r.verdict = "better"
			default:
				r.verdict = "same"
			}
			rows = append(rows, r)
		}
	}
	return rows
}

func printComparison(w io.Writer, rows []cmpRow) {
	fmt.Fprintf(w, "%-20s %-16s %38s %38s %9s %6s  %s\n", "workload", "metric", "base q1 / median / q3 (n)", "other q1 / median / q3 (n)", "other/base", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %-16s %10.4g /%10.4g /%10.4g (%d) %10.4g /%10.4g /%10.4g (%d) %9.4f %5.0f%%  %s\n",
			r.workload, r.metric, r.a[0], r.a[1], r.a[2], r.na, r.b[0], r.b[1], r.b[2], r.nb, r.ratio, 100*r.bound, r.verdict)
	}
}
