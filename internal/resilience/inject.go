package resilience

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"cisgraph/internal/algo"
	"cisgraph/internal/graph"
)

// Deterministic fault injection: everything here is a pure function of the
// configured seed, so a failing test reproduces exactly.

// InjectorConfig sets per-update fault probabilities.
type InjectorConfig struct {
	// Seed makes the fault sequence deterministic.
	Seed int64
	// CorruptP inserts a malformed clone of an update (out-of-range ID,
	// self-loop, NaN/±Inf/negative weight) next to the original. The clone
	// is always invalid, so a sanitizer removes it and the stream's
	// semantics are unchanged — the faults stress the validation layer, not
	// the query.
	CorruptP float64
	// DupP appends a duplicate of an update at the end of the batch. The
	// duplicate is always redundant after the original (a second addition
	// of a now-present edge, a second deletion of a now-absent one), so a
	// sanitizer removes it too.
	DupP float64
	// ReorderP shuffles the whole batch (applied at most once per batch).
	// Workload batches carry no same-edge ordering dependencies, so a
	// shuffle is semantics-preserving; it stresses engines' phase logic.
	ReorderP float64
	// DropP silently removes an update. Unlike the other faults this
	// CHANGES the stream's semantics (the update is lost); keep it at 0
	// when comparing against a clean run.
	DropP float64
}

// Injector mangles update batches according to a seeded fault model.
type Injector struct {
	cfg    InjectorConfig
	rng    *rand.Rand
	faults map[string]int
}

// NewInjector returns a deterministic injector for the config.
func NewInjector(cfg InjectorConfig) *Injector {
	return &Injector{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		faults: make(map[string]int),
	}
}

// Faults returns the cumulative injected-fault counts by kind
// ("corrupt", "duplicate", "reorder", "drop").
func (in *Injector) Faults() map[string]int {
	out := make(map[string]int, len(in.faults))
	for k, v := range in.faults {
		out[k] = v
	}
	return out
}

// Mangle returns a faulty copy of batch (the input is not modified).
// numVertices bounds the valid ID range, so corrupt clones can be generated
// strictly outside it.
func (in *Injector) Mangle(numVertices int, batch []graph.Update) []graph.Update {
	out := make([]graph.Update, 0, len(batch)+4)
	var dups []graph.Update
	for _, up := range batch {
		if in.cfg.DropP > 0 && in.rng.Float64() < in.cfg.DropP {
			in.faults["drop"]++
			continue
		}
		out = append(out, up)
		if in.cfg.CorruptP > 0 && in.rng.Float64() < in.cfg.CorruptP {
			out = append(out, in.corruptClone(numVertices, up))
			in.faults["corrupt"]++
		}
		if in.cfg.DupP > 0 && in.rng.Float64() < in.cfg.DupP {
			dups = append(dups, up)
			in.faults["duplicate"]++
		}
	}
	out = append(out, dups...)
	if in.cfg.ReorderP > 0 && in.rng.Float64() < in.cfg.ReorderP {
		in.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		in.faults["reorder"]++
	}
	return out
}

// corruptClone returns a guaranteed-invalid mutation of up: whatever the
// topology, a sanitizer must remove it.
func (in *Injector) corruptClone(n int, up graph.Update) graph.Update {
	bad := up
	switch in.rng.Intn(6) {
	case 0:
		bad.From = graph.VertexID(n + in.rng.Intn(1024))
	case 1:
		bad.To = graph.VertexID(n + in.rng.Intn(1024))
	case 2:
		bad.To = bad.From // self-loop
	case 3:
		bad.W = math.NaN()
	case 4:
		bad.W = math.Inf(1 - 2*in.rng.Intn(2))
	default:
		bad.W = -bad.W - 1
	}
	return bad
}

// PanicAlgorithm wraps an algo.Algorithm and panics once, deterministically,
// on the n-th Propagate call after arming — the fault model for proving
// MultiCISO, and the daemon serving it, recover from a crashing plug-in. It
// reports the inner algorithm's Name.
type PanicAlgorithm struct {
	algo.Algorithm
	after atomic.Int64
	calls atomic.Int64
	armed atomic.Bool
	fired atomic.Int64
}

// NewPanicAlgorithm wraps inner, unarmed.
func NewPanicAlgorithm(inner algo.Algorithm) *PanicAlgorithm {
	return &PanicAlgorithm{Algorithm: inner}
}

// Arm schedules a single panic on the n-th Propagate call from now (n ≥ 1).
func (p *PanicAlgorithm) Arm(n int) {
	p.calls.Store(0)
	p.after.Store(int64(n))
	p.armed.Store(true)
}

// Fired returns how many injected panics have been raised.
func (p *PanicAlgorithm) Fired() int64 { return p.fired.Load() }

// Propagate implements algo.Algorithm, raising the armed panic when due.
func (p *PanicAlgorithm) Propagate(u algo.Value, w float64) algo.Value {
	if p.armed.Load() && p.calls.Add(1) >= p.after.Load() && p.armed.CompareAndSwap(true, false) {
		p.fired.Add(1)
		panic(fmt.Sprintf("resilience: injected panic (propagate call %d)", p.calls.Load()))
	}
	return p.Algorithm.Propagate(u, w)
}
