// Quickstart: answer a point-to-point shortest-path query over a streaming
// graph with the contribution-aware CISGraph-O engine, using only the
// public cisgraph API, checking every answer against a cold start.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cisgraph"
)

func main() {
	// A power-law social-network-like graph: 2^12 vertices, average
	// degree 16, deterministic in the seed.
	el := cisgraph.RMAT("quickstart", 12, 16*(1<<12), cisgraph.DefaultRMAT, 64, 42)
	fmt.Printf("dataset: %d vertices, %d edges\n", el.N, len(el.Arcs))

	// The paper's streaming methodology: load 50% of the edges as the
	// initial snapshot; each batch adds withheld edges and deletes loaded
	// ones.
	w, err := cisgraph.NewWorkload(el, cisgraph.DefaultStreamConfig(len(el.Arcs), 42))
	if err != nil {
		log.Fatal(err)
	}

	// A pairwise query: the shortest path from s to d, and nothing else.
	p := w.QueryPairs(1)[0]
	q := cisgraph.Query{S: p[0], D: p[1]}
	fmt.Printf("query: shortest path %d → %d\n\n", q.S, q.D)

	eng := cisgraph.NewCISO() // CISGraph-O: classify, drop, prioritise
	eng.Reset(w.Initial(), cisgraph.PPSP(), q)
	fmt.Printf("initial answer: %v\n", eng.Answer())

	// A cold start recomputes from scratch on every snapshot: the oracle
	// every streamed answer must equal.
	check := cisgraph.NewColdStart()
	check.Reset(w.Initial(), cisgraph.PPSP(), q)

	for batch := 0; batch < 5; batch++ {
		b := w.NextBatch()
		res := eng.ApplyBatch(b)
		if want := check.ApplyBatch(b).Answer; res.Answer != want {
			log.Fatalf("batch %d: streamed answer %v, cold start %v", batch, res.Answer, want)
		}
		counters := res.Counters()
		fmt.Printf("batch %d: answer=%-8v response=%-12v  valuable=%d delayed=%d dropped=%d\n",
			batch, res.Answer, res.Response,
			counters[cisgraph.CntUpdateValuable],
			counters[cisgraph.CntUpdateDelayed],
			counters[cisgraph.CntUpdateUseless])
	}
}
