// Command cisgraph answers a pairwise query over a streaming graph
// end-to-end: it loads or generates a dataset, splits it into an initial
// snapshot plus update batches (the paper's §IV-A methodology), runs the
// selected engines, and reports the answer, response time and work counters
// after every batch. Every batch, generated or replayed from a -trace, is
// validated against the stream's topology before any engine sees it.
//
// Examples:
//
//	cisgraph -dataset OR -algo PPSP -engine ciso -batches 4
//	cisgraph -file graph.el -algo PPWP -engine accel -s 3 -d 99
//	cisgraph -dataset UK -algo Reach -engine all -batches 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/exp"
	"cisgraph/internal/graph"
	"cisgraph/internal/hw/accel"
	"cisgraph/internal/resilience"
	"cisgraph/internal/stream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cisgraph:", err)
		os.Exit(1)
	}
}

// run parses args, streams the query and writes the report to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cisgraph", flag.ExitOnError)
	var (
		dataset  = fs.String("dataset", "OR", "stand-in dataset: OR, LJ or UK (ignored when -file is set)")
		file     = fs.String("file", "", "load a dataset from an edge-list file (.el text, .bel binary)")
		scale    = fs.Int("scale", 12, "stand-in dataset scale (log2 base vertex count)")
		algoName = fs.String("algo", "PPSP", "algorithm: PPSP, PPWP, PPNP, Viterbi or Reach")
		engName  = fs.String("engine", "ciso", "engine: cs, inc, sgraph, pnp, ciso, accel, or all")
		src      = fs.Int("s", -1, "source vertex (random pair when negative)")
		dst      = fs.Int("d", -1, "destination vertex (random pair when negative)")
		batches  = fs.Int("batches", 3, "number of update batches to stream")
		trace    = fs.String("trace", "", "replay batches from a saved trace file instead of generating them")
		hwTrace  = fs.String("hwtrace", "", "write a Chrome/Perfetto trace of the accelerator's units to this file (engine accel only)")
		seed     = fs.Int64("seed", 42, "deterministic seed")
		verbose  = fs.Bool("v", false, "print per-batch counters")
		sanitize = fs.String("sanitize", "drop", "validate every batch before any engine sees it: drop (remove and count invalid updates), reject or strict (skip a batch that holds one)")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits inside Parse

	a, err := algo.ByName(*algoName)
	if err != nil {
		return err
	}
	policy, err := resilience.ParsePolicy(*sanitize)
	if err != nil {
		return err
	}

	var el *graph.EdgeList
	if *file != "" {
		if el, err = graph.LoadFile(*file); err != nil {
			return err
		}
	} else if el, err = graph.StandIn(*dataset).Build(*scale, *seed); err != nil {
		return err
	}
	fmt.Fprintf(out, "dataset %s: %d vertices, %d edges (avg degree %.1f)\n",
		el.Name, el.N, len(el.Arcs), el.AvgDegree())

	w, err := stream.New(el, stream.DefaultConfig(len(el.Arcs), *seed))
	if err != nil {
		return err
	}
	q := core.Query{}
	if *src >= 0 && *dst >= 0 {
		if *src >= el.N || *dst >= el.N || *src == *dst {
			return fmt.Errorf("invalid query pair %d→%d for N=%d", *src, *dst, el.N)
		}
		q.S, q.D = graph.VertexID(*src), graph.VertexID(*dst)
	} else {
		p := w.QueryPairs(1)[0]
		q.S, q.D = p[0], p[1]
	}
	fmt.Fprintf(out, "query Q(%d→%d), algorithm %s\n\n", q.S, q.D, a.Name())

	engines, err := makeEngines(*engName)
	if err != nil {
		return err
	}
	var tracer *accel.Tracer
	if *hwTrace != "" {
		tracer = &accel.Tracer{}
		attached := false
		for _, e := range engines {
			if hw, ok := e.(*accel.Accel); ok {
				hw.AttachTracer(tracer)
				attached = true
			}
		}
		if !attached {
			return fmt.Errorf("-hwtrace requires the accel engine")
		}
	}
	// topo is the stream's topology as the sanitizer sees it; every engine
	// holds its own clone.
	topo := w.Initial()
	for _, e := range engines {
		e.Reset(topo.Clone(), a, q)
		fmt.Fprintf(out, "%-10s initial answer: %v\n", e.Name(), e.Answer())
	}
	var replay [][]graph.Update
	if *trace != "" {
		f, err := os.Open(*trace)
		if err != nil {
			return err
		}
		replay, err = stream.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		if len(replay) < *batches {
			*batches = len(replay)
		}
	}
	defer func() {
		if tracer == nil {
			return
		}
		f, err := os.Create(*hwTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cisgraph: hwtrace:", err)
			return
		}
		defer f.Close()
		if err := tracer.WriteChromeTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, "cisgraph: hwtrace:", err)
			return
		}
		fmt.Fprintf(out, "wrote %d trace events to %s\n", tracer.Len(), *hwTrace)
	}()
	// A trace from outside may name vertices past the graph, self-loops or
	// NaN weights, and the engines assume none of these: each batch is
	// sanitized once, and only what survives reaches them.
	san := resilience.NewSanitizer(policy, nil)
	for bi := 0; bi < *batches; bi++ {
		var batch []graph.Update
		if replay != nil {
			batch = replay[bi]
		} else {
			batch = w.NextBatch()
		}
		if len(batch) == 0 && replay == nil {
			fmt.Fprintln(out, "stream exhausted")
			break
		}
		fmt.Fprintf(out, "batch %d (%d updates):\n", bi, len(batch))
		clean, rep, err := san.Sanitize(topo, batch)
		if err != nil {
			fmt.Fprintf(out, "  skipped: %v\n", err)
			continue
		}
		if !rep.Clean() {
			fmt.Fprintf(out, "  dropped %d invalid update(s): %v\n", rep.Total(), rep.Dropped)
		}
		topo.Apply(clean)
		for _, e := range engines {
			res := e.ApplyBatch(clean)
			fmt.Fprintf(out, "  %-10s answer=%-12v response=%-14v converged=%v\n",
				e.Name(), res.Answer, res.Response, res.Converged)
			if *verbose {
				counters := res.Counters()
				for _, name := range []string{"relax", "activation", "tagged",
					"update_valuable", "update_delayed", "update_useless", "update_promoted"} {
					if v, ok := counters[name]; ok && v != 0 {
						fmt.Fprintf(out, "    %s=%d", name, v)
					}
				}
				fmt.Fprintln(out)
				if hw, ok := e.(*accel.Accel); ok {
					for _, line := range strings.Split(hw.Report().String(), "\n") {
						fmt.Fprintln(out, "   ", line)
					}
				}
			}
		}
	}
	return nil
}

// makeEngines builds the selected engines.
func makeEngines(name string) ([]core.Engine, error) {
	mk := map[string]func() core.Engine{
		"cs":     func() core.Engine { return core.NewColdStart() },
		"inc":    func() core.Engine { return core.NewIncremental() },
		"sgraph": func() core.Engine { return core.NewSGraph(core.DefaultHubCount) },
		"pnp":    func() core.Engine { return core.NewPnP() },
		"ciso":   func() core.Engine { return core.NewCISO() },
		"accel":  func() core.Engine { return accel.New(scaledAccel()) },
	}
	names := []string{name}
	if name == "all" {
		names = []string{"cs", "inc", "sgraph", "pnp", "ciso", "accel"}
	}
	var out []core.Engine
	for _, n := range names {
		f, ok := mk[n]
		if !ok {
			return nil, fmt.Errorf("unknown engine %q (want cs, inc, sgraph, pnp, ciso, accel or all)", n)
		}
		out = append(out, f())
	}
	return out, nil
}

// scaledAccel mirrors the experiment harness's default accelerator
// configuration (paper Table I with the SPM scaled to the reduced data).
func scaledAccel() accel.Config {
	return exp.Options{}.WithDefaults().HWConfig()
}
