// Multiquery: a dispatch service tracks the commute times of a whole fleet
// over one live road network — the multi-query scenario the paper defers to
// future work. All queries share a single topology stream; only the
// per-source contribution analysis is repeated, on a worker pool that
// WithWorkers bounds (here to GOMAXPROCS). Queries that share a source also
// share one converged state, repaired once per batch (DESIGN.md §11). Here
// every driver starts somewhere else, so each pays its own. Each tick reports
// how many ETAs the batch changed; at the end every driver is checked against
// a cold start.
//
// Run with:
//
//	go run ./examples/multiquery
package main

import (
	"fmt"
	"log"
	"math/rand"
	"runtime"
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

	fleet := cisgraph.NewMultiCISO(cisgraph.WithWorkers(runtime.GOMAXPROCS(0)))
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
		d := fleet.ApplyBatchDelta(batch)
		if d.Err != nil {
			log.Fatal(d.Err)
		}
		fmt.Printf("\ntick %d (%d road updates, wall %v, %d ETAs changed):\n",
			tick, len(batch), time.Since(t0).Round(time.Microsecond), len(d.Changed))
		for i, eta := range fleet.Answers() {
			fmt.Printf("  driver %d: ETA %3v min\n", i, eta)
		}
	}

	// Verify every driver against a cold start on the final snapshot.
	etas := fleet.Answers()
	for i, q := range queries {
		check := cisgraph.NewColdStart()
		check.Reset(cisgraph.FromEdgeList(city), cisgraph.PPSP(), q)
		if etas[i] != check.Answer() {
			log.Fatalf("driver %d: fleet ETA %v, cold start %v", i, etas[i], check.Answer())
		}
	}
	fmt.Println("\nall ETAs verified against a cold-start recomputation")
}
