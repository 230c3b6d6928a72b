// Command cisgraph answers a pairwise query over a streaming graph
// end-to-end: it loads or generates a dataset, splits it into an initial
// snapshot plus update batches (the paper's §IV-A methodology), runs the
// selected engine, and reports the answer, response time and work counters
// after every batch.
//
// Examples:
//
//	cisgraph -dataset OR -algo PPSP -engine ciso -batches 4
//	cisgraph -file graph.el -algo PPWP -engine accel -s 3 -d 99
//	cisgraph -dataset UK -algo Reach -engine all -batches 2
package main

import (
	"bytes"
	"flag"
	"fmt"
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
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cisgraph:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dataset  = flag.String("dataset", "OR", "stand-in dataset: OR, LJ or UK (ignored when -file is set)")
		file     = flag.String("file", "", "load a dataset from an edge-list file (.el text, .bel binary)")
		scale    = flag.Int("scale", 12, "stand-in dataset scale (log2 base vertex count)")
		algoName = flag.String("algo", "PPSP", "algorithm: PPSP, PPWP, PPNP, Viterbi or Reach")
		engName  = flag.String("engine", "ciso", "engine: cs, inc, sgraph, pnp, ciso, accel, or all")
		src      = flag.Int("s", -1, "source vertex (random pair when negative)")
		dst      = flag.Int("d", -1, "destination vertex (random pair when negative)")
		batches  = flag.Int("batches", 3, "number of update batches to stream")
		trace    = flag.String("trace", "", "replay batches from a saved trace file instead of generating them")
		hwTrace  = flag.String("hwtrace", "", "write a Chrome/Perfetto trace of the accelerator's units to this file (engine accel only)")
		saveTo   = flag.String("save", "", "write a CISO checkpoint to this file after the last batch (engine ciso only)")
		loadFrom = flag.String("load", "", "resume a CISO engine from a checkpoint instead of computing from scratch")
		seed     = flag.Int64("seed", 42, "deterministic seed")
		verbose  = flag.Bool("v", false, "print per-batch counters")

		sanitize   = flag.String("sanitize", "", "validate every batch before it reaches the engine: drop, reject or strict (enables the resilience guard)")
		walPath    = flag.String("wal", "", "append every sanitized batch to this segmented write-ahead log directory, fsynced, before applying it (single engine only; enables the resilience guard)")
		auditEvery = flag.Int("audit-every", 0, "audit the engine's invariants every N batches, rebuilding on corruption (0 disables; enables the resilience guard)")
		ckptEvery  = flag.Int("checkpoint-every", 0, "persist a recovery checkpoint to the -save path every N batches (engine ciso only; enables the resilience guard)")
	)
	flag.Parse()

	a, err := algo.ByName(*algoName)
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
	fmt.Printf("dataset %s: %d vertices, %d edges (avg degree %.1f)\n",
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
	fmt.Printf("query Q(%d→%d), algorithm %s\n\n", q.S, q.D, a.Name())

	engines, factories, err := makeEngines(*engName)
	if err != nil {
		return err
	}
	var restored *core.CISO
	if *loadFrom != "" {
		if *engName != "ciso" {
			return fmt.Errorf("-load requires -engine ciso")
		}
		if restored, err = loadAnyCheckpoint(*loadFrom); err != nil {
			return err
		}
		engines = []core.Engine{restored}
		factories = []func() core.Engine{func() core.Engine { return core.NewCISO() }}
		fmt.Printf("resumed from %s: answer %v\n", *loadFrom, restored.Answer())
	}

	// Resilience guard: any of the four flags wraps every engine.
	guarded := *sanitize != "" || *walPath != "" || *auditEvery > 0 || *ckptEvery > 0
	var wal *resilience.SegmentedWAL
	if guarded {
		policy := resilience.PolicyDrop
		if *sanitize != "" {
			if policy, err = resilience.ParsePolicy(*sanitize); err != nil {
				return err
			}
		}
		if *walPath != "" {
			if len(engines) != 1 {
				return fmt.Errorf("-wal logs one stream: pick a single engine, not %q", *engName)
			}
			if wal, err = resilience.OpenSegmentedWAL(*walPath, resilience.SegWALOptions{}); err != nil {
				return err
			}
			defer wal.Close()
		}
		if *ckptEvery > 0 {
			if *saveTo == "" {
				return fmt.Errorf("-checkpoint-every needs -save to name the checkpoint file")
			}
			if *engName != "ciso" {
				return fmt.Errorf("-checkpoint-every requires -engine ciso")
			}
		}
		for i := range engines {
			opts := []resilience.GuardOption{
				resilience.WithPolicy(policy),
				resilience.WithAuditEvery(*auditEvery),
				resilience.WithEngineFactory(factories[i]),
			}
			if wal != nil {
				opts = append(opts, resilience.WithWAL(wal))
			}
			if *ckptEvery > 0 {
				opts = append(opts, resilience.WithCheckpointEvery(*ckptEvery),
					resilience.WithCheckpointFile(*saveTo))
			}
			engines[i] = resilience.NewGuard(engines[i], opts...)
		}
		fmt.Printf("resilience guard on: policy=%s wal=%q audit-every=%d checkpoint-every=%d\n",
			policy, *walPath, *auditEvery, *ckptEvery)
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
	init := w.Initial()
	for _, e := range engines {
		if *loadFrom != "" {
			// The restored engine carries its own state; a guard wrapped
			// around it resumes rather than resetting.
			if g, ok := e.(*resilience.Guard); ok {
				var absorbed uint64
				if wal != nil {
					absorbed = wal.NextIndex()
				}
				g.Resume(restored.Topology(), a, q, absorbed)
			}
			break
		}
		e.Reset(init.Clone(), a, q)
		fmt.Printf("%-10s initial answer: %v\n", e.Name(), e.Answer())
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
		fmt.Printf("wrote %d trace events to %s\n", tracer.Len(), *hwTrace)
	}()
	defer func() {
		if *saveTo == "" || *ckptEvery > 0 {
			return // periodic checkpoints already own the -save path
		}
		var ciso *core.CISO
		for _, e := range engines {
			if g, isG := e.(*resilience.Guard); isG {
				e = g.Inner()
			}
			if c, isC := e.(*core.CISO); isC {
				ciso = c
			}
		}
		if ciso == nil {
			fmt.Fprintln(os.Stderr, "cisgraph: -save requires a ciso engine")
			return
		}
		if err := ciso.SaveFile(*saveTo); err != nil {
			fmt.Fprintln(os.Stderr, "cisgraph: save:", err)
			return
		}
		fmt.Printf("checkpoint written to %s\n", *saveTo)
	}()
	for bi := 0; bi < *batches; bi++ {
		var batch []graph.Update
		if replay != nil {
			batch = replay[bi]
		} else {
			batch = w.NextBatch()
		}
		if len(batch) == 0 && replay == nil {
			fmt.Println("stream exhausted")
			break
		}
		fmt.Printf("batch %d (%d updates):\n", bi, len(batch))
		for _, e := range engines {
			res := e.ApplyBatch(batch)
			fmt.Printf("  %-10s answer=%-12v response=%-14v converged=%v\n",
				e.Name(), res.Answer, res.Response, res.Converged)
			if res.Err != nil {
				fmt.Printf("  %-10s degraded: %v\n", "", res.Err)
			}
			if *verbose {
				counters := res.Counters()
				for _, name := range []string{"relax", "activation", "tagged",
					"update_valuable", "update_delayed", "update_useless", "update_promoted"} {
					if v, ok := counters[name]; ok && v != 0 {
						fmt.Printf("    %s=%d", name, v)
					}
				}
				fmt.Println()
				if hw, ok := e.(*accel.Accel); ok {
					for _, line := range strings.Split(hw.Report().String(), "\n") {
						fmt.Println("   ", line)
					}
				}
			}
		}
	}
	return nil
}

// makeEngines builds the selected engines and, for each, the factory that
// recreates it — the resilience guard's ColdStart rebuild path needs a
// constructor matching the wrapped engine's type.
func makeEngines(name string) ([]core.Engine, []func() core.Engine, error) {
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
	var factories []func() core.Engine
	for _, n := range names {
		f, ok := mk[n]
		if !ok {
			return nil, nil, fmt.Errorf("unknown engine %q (want cs, inc, sgraph, pnp, ciso, accel or all)", n)
		}
		out = append(out, f())
		factories = append(factories, f)
	}
	return out, factories, nil
}

// loadAnyCheckpoint reads either a plain CISO checkpoint (written by -save)
// or a guard recovery checkpoint (written by -checkpoint-every, which wraps
// the same payload in a positioned envelope).
func loadAnyCheckpoint(path string) (*core.CISO, error) {
	if _, _, payload, err := resilience.ReadCheckpointMeta(path); err == nil {
		return core.LoadCISO(bytes.NewReader(payload))
	}
	return core.LoadCISOFile(path)
}

// scaledAccel mirrors the experiment harness's default accelerator
// configuration (paper Table I with the SPM scaled to the reduced data).
func scaledAccel() accel.Config {
	return exp.Options{}.WithDefaults().HWConfig()
}
