// Navigation: the paper's motivating scenario — a navigation system cares
// about the shortest route from home to the office, not from home to every
// location (§II-B). The road network is a weighted grid; traffic updates
// arrive as edge re-weightings (a deletion plus an addition), and the
// contribution-aware engine answers each refresh while dropping the
// overwhelming majority of irrelevant road changes.
//
// Run with:
//
//	go run ./examples/navigation
package main

import (
	"fmt"
	"log"
	"math/rand"

	"cisgraph"
)

const (
	rows, cols = 64, 64
	maxWeight  = 9 // travel minutes per road segment
)

func main() {
	city := cisgraph.Grid("city", rows, cols, maxWeight, 7)
	home := cisgraph.VertexID(0)               // top-left corner
	office := cisgraph.VertexID(rows*cols - 1) // bottom-right corner
	q := cisgraph.Query{S: home, D: office}

	eng := cisgraph.NewCISO()
	eng.Reset(cisgraph.FromEdgeList(city), cisgraph.PPSP(), q)
	fmt.Printf("city: %d×%d grid (%d intersections, %d road segments)\n",
		rows, cols, city.N, len(city.Arcs))
	fmt.Printf("commute %d → %d, initial travel time: %v minutes\n\n",
		home, office, eng.Answer())

	// Rush hour: every tick re-weights a few hundred random road segments.
	// city.Arcs doubles as the authoritative current weight table so the
	// final cross-check can rebuild the exact same snapshot.
	rng := rand.New(rand.NewSource(99))
	for tick := 1; tick <= 6; tick++ {
		var batch []cisgraph.Update
		touched := map[int]bool{}
		for len(batch) < 600 {
			i := rng.Intn(len(city.Arcs))
			if touched[i] {
				continue
			}
			touched[i] = true
			a := &city.Arcs[i]
			newW := float64(1 + rng.Intn(maxWeight))
			if newW == a.W {
				continue
			}
			// A re-weighting is a deletion followed by an addition — the
			// paper models every topology change as edge updates (§II-A).
			batch = append(batch,
				cisgraph.DelEdgeUpdate(a.From, a.To, a.W),
				cisgraph.AddEdgeUpdate(a.From, a.To, newW))
			a.W = newW
		}
		res := eng.ApplyBatch(batch)
		fmt.Printf("tick %d: travel time %3v min  (response %8v; %3d/%d updates dropped as useless)\n",
			tick, res.Answer, res.Response.Round(0),
			res.Counters()["update_useless"], len(batch))
	}

	// Cross-check the streamed answer against a from-scratch computation on
	// the final snapshot.
	check := cisgraph.NewColdStart()
	check.Reset(cisgraph.FromEdgeList(city), cisgraph.PPSP(), q)
	fmt.Printf("\nfinal answer: %v minutes (cold-start verification: %v)\n",
		eng.Answer(), check.Answer())
	if eng.Answer() != check.Answer() {
		log.Fatalf("streamed answer %v, cold start %v", eng.Answer(), check.Answer())
	}
}
