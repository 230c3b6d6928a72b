// Multiquery: a dispatch service tracks the commute times of a whole fleet
// over one live road network — the multi-query scenario the paper defers to
// future work. All queries share a single topology stream; only the
// per-source contribution analysis is repeated, on a bounded worker pool
// (WithParallelQueries sizes it to GOMAXPROCS; WithWorkers sets an explicit
// bound). Queries that share a source also share one converged state,
// repaired once per batch (DESIGN.md §11). Here every driver starts
// somewhere else, so each pays its own.
//
// Run with:
//
//	go run ./examples/multiquery
package main

import (
	"fmt"
	"math/rand"
	"time"

	"cisgraph"
)

const (
	rows, cols = 48, 48
	drivers    = 8
)

func main() {
	city := cisgraph.Grid("city", rows, cols, 9, 21)
	rng := rand.New(rand.NewSource(21))

	// Each driver has a fixed destination (the depot) and a random start.
	depot := cisgraph.VertexID(rows*cols - 1)
	var queries []cisgraph.Query
	for d := 0; d < drivers; d++ {
		start := cisgraph.VertexID(rng.Intn(rows * cols))
		if start == depot {
			start = 0
		}
		queries = append(queries, cisgraph.Query{S: start, D: depot})
	}

	fleet := cisgraph.NewMultiCISO(cisgraph.WithParallelQueries())
	fleet.Reset(cisgraph.FromEdgeList(city), cisgraph.PPSP(), queries)
	fmt.Printf("fleet of %d drivers heading to depot %d on a %d×%d grid\n\n",
		drivers, depot, rows, cols)
	for i, eta := range fleet.Answers() {
		fmt.Printf("driver %d (at %4d): initial ETA %3v min\n", i, queries[i].S, eta)
	}

	// Traffic: re-weight random road segments each tick.
	for tick := 1; tick <= 4; tick++ {
		var batch []cisgraph.Update
		touched := map[int]bool{}
		for len(batch) < 400 {
			i := rng.Intn(len(city.Arcs))
			if touched[i] {
				continue
			}
			touched[i] = true
			a := &city.Arcs[i]
			newW := float64(1 + rng.Intn(9))
			if newW == a.W {
				continue
			}
			batch = append(batch,
				cisgraph.DelEdgeUpdate(a.From, a.To, a.W),
				cisgraph.AddEdgeUpdate(a.From, a.To, newW))
			a.W = newW
		}
		t0 := time.Now()
		results := fleet.ApplyBatch(batch)
		fmt.Printf("\ntick %d (%d road updates, wall %v):\n", tick, len(batch), time.Since(t0).Round(time.Microsecond))
		for i, r := range results {
			fmt.Printf("  driver %d: ETA %3v min  (response %v)\n", i, r.Answer, r.Response.Round(time.Microsecond))
		}
	}

	// Verify one driver against a cold start on the final snapshot.
	check := cisgraph.NewColdStart()
	check.Reset(cisgraph.FromEdgeList(city), cisgraph.PPSP(), queries[0])
	if got := fleet.Answers()[0]; got != check.Answer() {
		fmt.Printf("\nMISMATCH: fleet=%v cold-start=%v\n", got, check.Answer())
		return
	}
	fmt.Println("\nall ETAs verified against a cold-start recomputation")
}
