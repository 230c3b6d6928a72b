package server

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/stream"
)

func testWorkload(t *testing.T) *stream.Workload {
	t.Helper()
	ds := graph.RMAT("srv", 8, 2400, graph.DefaultRMAT, 16, 99)
	w, err := stream.New(ds, stream.DefaultConfig(len(ds.Arcs), 7))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func testAlgo(t *testing.T) algo.Algorithm {
	t.Helper()
	a, err := algo.ByName("PPSP")
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// A sharded pool must publish exactly the answers a single MultiCISO over the
// same stream computes, regardless of which shard each query landed on.
func TestQueryPoolMatchesSingleEngine(t *testing.T) {
	for _, shards := range []int{1, 3} {
		w := testWorkload(t)
		a := testAlgo(t)
		var qs []core.Query
		for _, p := range w.QueryPairsConnected(6) {
			qs = append(qs, core.Query{S: p[0], D: p[1]})
		}

		ref := core.NewMultiCISO()
		ref.Reset(w.Initial(), a, qs)

		pool := NewQueryPool(w.Initial(), a, shards, 1, core.StoreDense, true)
		for _, q := range qs {
			pool.Register(q)
		}
		if got := pool.NumShards(); got != shards {
			t.Fatalf("NumShards=%d, want %d", got, shards)
		}

		for i := 0; i < 10; i++ {
			batch := w.NextBatch()
			ref.ApplyBatch(batch)
			if _, err := pool.ApplyBatch(batch); err != nil {
				t.Fatalf("shards=%d batch %d: %v", shards, i, err)
			}
		}
		snap := pool.Answers()
		if snap.Batches != 10 {
			t.Errorf("shards=%d: snapshot batches=%d, want 10", shards, snap.Batches)
		}
		want := ref.Answers()
		for i := range qs {
			if snap.Values[i] != want[i] {
				t.Errorf("shards=%d query %d Q(%d->%d): pool=%v ref=%v",
					shards, i, qs[i].S, qs[i].D, snap.Values[i], want[i])
			}
		}
	}
}

// TestRegisterAllMatchesRegisterLoop: registering a list in one locked pass
// is a Register loop — same ids, shard placement and local order, answers,
// published snapshot and per-shard engine counters — on an empty and on a
// non-empty pool (the -resume -queries case), and the two pools stay
// identical (answers and classification counters, which read every query's
// values and parents) through later batches. Engine-level values and
// parents are pinned by core's TestAddQueriesMatchesAddQueryLoop.
func TestRegisterAllMatchesRegisterLoop(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for _, npre := range []int{0, 4} {
			w := testWorkload(t)
			a := testAlgo(t)
			pairs := w.QueryPairsConnected(12)
			var qs []core.Query
			for i, p := range pairs {
				// Three sources, two consecutive queries each in turn, so a
				// per-query placement would split a source across shards.
				qs = append(qs, core.Query{S: pairs[(i/2)%3][0], D: p[1]})
			}
			qs = slices.DeleteFunc(qs, func(q core.Query) bool { return q.S == q.D })
			loop := NewQueryPool(w.Initial(), a, shards, 1, core.StoreDense, true)
			bulk := NewQueryPool(w.Initial(), a, shards, 1, core.StoreDense, true)
			for _, q := range qs[:npre] {
				loop.Register(q)
				bulk.Register(q)
			}
			var wantIDs []int
			var wantAns []algo.Value
			for _, q := range qs[npre:] {
				id, ans := loop.Register(q)
				wantIDs, wantAns = append(wantIDs, id), append(wantAns, ans)
			}
			ids, ans := bulk.RegisterAll(qs[npre:])
			label := fmt.Sprintf("shards=%d pre=%d", shards, npre)
			if !slices.Equal(ids, wantIDs) || !slices.Equal(ans, wantAns) {
				t.Fatalf("%s: RegisterAll → ids %v answers %v, Register loop %v %v", label, ids, ans, wantIDs, wantAns)
			}
			same := func(where string) {
				t.Helper()
				if !slices.Equal(bulk.refs, loop.refs) {
					t.Fatalf("%s: placement %v, Register loop %v", where, bulk.refs, loop.refs)
				}
				for si := range loop.locals {
					if !slices.Equal(bulk.locals[si], loop.locals[si]) {
						t.Fatalf("%s: shard %d locals %v, Register loop %v", where, si, bulk.locals[si], loop.locals[si])
					}
					if b, l := bulk.shards[si].eng.Counters().Snapshot(), loop.shards[si].eng.Counters().Snapshot(); !maps.Equal(b, l) {
						t.Fatalf("%s: shard %d counters %v, Register loop %v", where, si, b, l)
					}
				}
				bs, ls := bulk.Answers(), loop.Answers()
				if bs.Batches != ls.Batches || !slices.Equal(bs.Queries, ls.Queries) || !slices.Equal(bs.Values, ls.Values) {
					t.Fatalf("%s: snapshot %+v, Register loop %+v", where, *bs, *ls)
				}
			}
			same(label)
			// Source-affine placement: one shard per source, so a source
			// keeps one shared state in the pool.
			shardOf := map[graph.VertexID]int{}
			for id, q := range bulk.queries {
				if si, ok := shardOf[q.S]; ok && si != bulk.refs[id].shard {
					t.Fatalf("%s: source %d on shards %d and %d", label, q.S, si, bulk.refs[id].shard)
				}
				shardOf[q.S] = bulk.refs[id].shard
			}
			for i := 0; i < 4; i++ {
				batch := w.NextBatch()
				if _, err := loop.ApplyBatch(batch); err != nil {
					t.Fatal(err)
				}
				if _, err := bulk.ApplyBatch(batch); err != nil {
					t.Fatal(err)
				}
				same(fmt.Sprintf("%s batch %d", label, i))
			}
		}
	}
}

// Registration spreads new sources across shards: each goes to the shard
// holding the fewest source groups (eight distinct sources here).
func TestQueryPoolBalancesShards(t *testing.T) {
	w := testWorkload(t)
	pool := NewQueryPool(w.Initial(), testAlgo(t), 4, 1, core.StoreDense, true)
	for _, p := range w.QueryPairs(8) {
		pool.Register(core.Query{S: p[0], D: p[1]})
	}
	load := make(map[int]int)
	for _, r := range pool.refs {
		load[r.shard]++
	}
	for sh := 0; sh < 4; sh++ {
		if load[sh] != 2 {
			t.Errorf("shard %d holds %d queries, want 2 (load %v)", sh, load[sh], load)
		}
	}
}

// Readers must always observe a coherent snapshot while the single writer
// applies batches and new queries register. Run with -race.
func TestQueryPoolSnapshotUnderLoad(t *testing.T) {
	w := testWorkload(t)
	pool := NewQueryPool(w.Initial(), testAlgo(t), 2, 1, core.StoreDense, true)
	pairs := w.QueryPairs(6)
	for _, p := range pairs[:4] {
		pool.Register(core.Query{S: p[0], D: p[1]})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := pool.Answers()
				if len(snap.Queries) != len(snap.Values) {
					t.Error("torn snapshot: queries and values lengths differ")
					return
				}
				pool.Counters()
			}
		}()
	}
	for i := 0; i < 8; i++ {
		if _, err := pool.ApplyBatch(w.NextBatch()); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			pool.Register(core.Query{S: pairs[4][0], D: pairs[4][1]})
		}
	}
	close(stop)
	wg.Wait()

	if got := pool.NumQueries(); got != 5 {
		t.Fatalf("NumQueries=%d, want 5", got)
	}
	if got := len(pool.QueriesSnapshot()); got != 5 {
		t.Fatalf("QueriesSnapshot len=%d, want 5", got)
	}
	if got := pool.Batches(); got != 8 {
		t.Fatalf("Batches=%d, want 8", got)
	}
}
