package core

import "cisgraph/internal/algo"

// opCode names an algebra whose ⊕ and ⊗ the kernel evaluates without going
// through algo.Algorithm. The relax path pays ⊕ and ⊗ once per edge and the
// heap pays ⊗ once per sift step, so the algebra is resolved once, when a
// state is built or a worklist armed (DESIGN.md §9.2).
type opCode uint8

const (
	// opGeneric is every algebra outside the table — future plug-ins, and
	// wrappers such as resilience.PanicAlgorithm, which are deliberately not
	// unwrapped: their injected behaviour has to keep firing.
	opGeneric opCode = iota
	opPPSP
	opPPWP
	opPPNP
	opViterbi
	opReach
	opMinHop
)

// ops is an algebra resolved for the kernel.
type ops struct {
	a    algo.Algorithm
	init algo.Value // a.Init(): what "unreached" compares against
	sign float64    // +1 when ⊗ is MIN, −1 when it is MAX (table algebras)
	code opCode
}

func resolveOps(a algo.Algorithm) ops {
	o := ops{a: a, init: a.Init(), sign: 1}
	switch a.(type) {
	case algo.PPSP:
		o.code = opPPSP
	case algo.PPNP:
		o.code = opPPNP
	case algo.MinHop:
		o.code = opMinHop
	case algo.PPWP:
		o.code, o.sign = opPPWP, -1
	case algo.Viterbi:
		o.code, o.sign = opViterbi, -1
	case algo.Reach:
		o.code, o.sign = opReach, -1
	}
	return o
}

// extend is ⊕ over a raw edge weight: a.Propagate(u, a.Weight(raw)), bit for
// bit. The additive algebra inlines at every call site; the others cost one
// direct call (an inlinable function cannot hold the whole table).
func (o *ops) extend(u algo.Value, raw float64) algo.Value {
	if o.code == opPPSP {
		return u + raw
	}
	return o.extendOther(u, raw)
}

func (o *ops) extendOther(u algo.Value, raw float64) algo.Value {
	switch o.code {
	case opPPWP:
		return min(u, raw) // the builtins are math.Min/math.Max on floats
	case opPPNP:
		return max(u, raw)
	case opViterbi:
		return u * (1 / raw)
	case opReach:
		return u
	case opMinHop:
		return u + 1
	}
	return o.a.Propagate(u, o.a.Weight(raw))
}

// better is the strict preference behind ⊗. Multiplying by ±1 is exact, so
// a·sign < b·sign is a < b for MIN algebras and a > b for MAX ones (±Inf and
// zeros included) without a second branch — which keeps it inlinable.
func (o *ops) better(a, b algo.Value) bool {
	if o.code != opGeneric {
		return a*o.sign < b*o.sign
	}
	return o.a.Better(a, b)
}

// reached reports whether v differs from the unreached Init value.
func (o *ops) reached(v algo.Value) bool { return v != o.init }
