package core

import (
	"fmt"

	"cisgraph/internal/graph"
)

// verifyInvariant checks the dependency-tree invariant (see state) over the
// whole state: the source holds Source(), and every parent edge exists and
// supplies its child's value. It is the reference checker the kernel tests
// hold every state to.
func (st *state) verifyInvariant() error {
	if st.val[st.src] != st.a.Source() {
		return fmt.Errorf("source state %v != %v", st.val[st.src], st.a.Source())
	}
	n := len(st.val)
	for v, p := range st.parent {
		if p == graph.NoVertex {
			continue
		}
		if int(p) >= n {
			return fmt.Errorf("vertex %d: parent %d out of range", v, p)
		}
		w, ok := st.g.HasEdge(p, graph.VertexID(v))
		if !ok {
			return fmt.Errorf("vertex %d: parent edge %d->%d missing", v, p, v)
		}
		if got := st.a.Propagate(st.val[p], st.a.Weight(w)); got != st.val[v] {
			return fmt.Errorf("vertex %d: value %v unsupported by parent %d (edge gives %v)",
				v, st.val[v], p, got)
		}
	}
	return nil
}
