package cisgraph_test

import (
	"fmt"

	"cisgraph"
)

// ExampleClassifyAddition shows Algorithm 1's triangle test on the paper's
// Figure 3: with Dist(v0,v2)=1 and Dist(v0,v5)=5, adding v2→v5 with weight
// 1 is valuable (1+1 < 5), while adding an edge that cannot shorten the
// path is useless.
func ExampleClassifyAddition() {
	ppsp := cisgraph.PPSP()
	fmt.Println(cisgraph.ClassifyAddition(ppsp, 1, 5, 1))
	fmt.Println(cisgraph.ClassifyAddition(ppsp, 4, 5, 9))
	// Output:
	// valuable
	// useless
}

// ExampleNewCISO answers a pairwise shortest-path query over a small
// streaming graph: the first batch improves the answer, the second deletes
// the shortcut again.
func ExampleNewCISO() {
	g := cisgraph.NewDynamic(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 3, 5)

	eng := cisgraph.NewCISO()
	eng.Reset(g, cisgraph.PPSP(), cisgraph.Query{S: 0, D: 3})
	fmt.Println("initial:", eng.Answer())

	res := eng.ApplyBatch([]cisgraph.Update{
		cisgraph.AddEdgeUpdate(0, 2, 1),
		cisgraph.AddEdgeUpdate(2, 3, 1),
	})
	fmt.Println("after shortcut:", res.Answer)

	res = eng.ApplyBatch([]cisgraph.Update{
		cisgraph.DelEdgeUpdate(2, 3, 1),
	})
	fmt.Println("after deletion:", res.Answer)
	// Output:
	// initial: 10
	// after shortcut: 2
	// after deletion: 10
}

// ExampleNewMultiCISO tracks two queries over one shared stream.
func ExampleNewMultiCISO() {
	g := cisgraph.NewDynamic(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 2)
	g.AddEdge(1, 3, 7)

	fleet := cisgraph.NewMultiCISO()
	fleet.Reset(g, cisgraph.PPSP(), []cisgraph.Query{
		{S: 0, D: 2},
		{S: 0, D: 3},
	})
	fmt.Println(fleet.Answers())

	fleet.ApplyBatchDelta([]cisgraph.Update{cisgraph.AddEdgeUpdate(2, 3, 1)})
	fmt.Println(fleet.Answers())
	// Output:
	// [4 9]
	// [4 5]
}

// ExampleAlgorithmByName resolves the paper's Table II abbreviations.
func ExampleAlgorithmByName() {
	a, _ := cisgraph.AlgorithmByName("PPWP")
	// Widest path: ⊕ takes the bottleneck, ⊗ keeps the maximum.
	fmt.Println(a.Name(), a.Propagate(10, a.Weight(4)))
	// Output:
	// PPWP 4
}

// ExampleNewAccelerator runs the same query on the simulated hardware; the
// answer matches the software engines, the response comes from the 1 GHz
// simulated clock.
func ExampleNewAccelerator() {
	g := cisgraph.NewDynamic(3)
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 2, 4)

	hw := cisgraph.NewAccelerator(cisgraph.PaperHWConfig())
	hw.Reset(g, cisgraph.PPSP(), cisgraph.Query{S: 0, D: 2})
	fmt.Println("answer:", hw.Answer())
	// Output:
	// answer: 7
}
