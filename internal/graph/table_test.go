package graph

import (
	"math/rand"
	"testing"
)

// checkIndex asserts the Table invariants: the count matches the
// occupied slots, and every key is reachable from its home slot, i.e. no
// empty slot lies between a key's home and the slot holding it.
func checkIndex(t *testing.T, x *Table[edgePos]) {
	t.Helper()
	mask, occupied := len(x.slots)-1, 0
	for j, s := range x.slots {
		if s.nk == 0 {
			continue
		}
		occupied++
		for i := x.home(^s.nk); i != j; i = (i + 1) & mask {
			if x.slots[i].nk == 0 {
				t.Fatalf("key %x at slot %d: empty slot %d between it and its home", ^s.nk, j, i)
			}
		}
	}
	if occupied != x.n {
		t.Fatalf("%d occupied slots, count says %d", occupied, x.n)
	}
	if x.n*maxLoadDen > len(x.slots)*maxLoadNum {
		t.Fatalf("load %d/%d above %d/%d", x.n, len(x.slots), maxLoadNum, maxLoadDen)
	}
}

// keysHomedAt returns count distinct edge keys whose home slot in x is
// slot, found by scanning keys from a seeded start.
func keysHomedAt(x *Table[edgePos], slot, count int, rng *rand.Rand) []uint64 {
	var ks []uint64
	seen := map[uint64]bool{}
	for len(ks) < count {
		k := key(VertexID(rng.Intn(1<<20)), VertexID(rng.Intn(1<<20)))
		if x.home(k) == slot && !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	return ks
}

// indexModel drives x and a Go map through the same operation and fails
// on any disagreement.
type indexModel struct {
	t *testing.T
	x Table[edgePos]
	m map[uint64]edgePos
}

func (im *indexModel) put(k uint64, p edgePos) {
	im.t.Helper()
	_, had := im.m[k]
	if got := im.x.Insert(k, p); got == had {
		im.t.Fatalf("insert(%x) = %v, model had it: %v", k, got, had)
	}
	if !had {
		im.m[k] = p
	}
	checkIndex(im.t, &im.x)
}

func (im *indexModel) del(k uint64) {
	im.t.Helper()
	i, ok := im.x.find(k)
	if _, had := im.m[k]; ok != had {
		im.t.Fatalf("find(%x) = %v, model has it: %v", k, ok, had)
	}
	if ok {
		im.x.deleteAt(i)
		delete(im.m, k)
	}
	checkIndex(im.t, &im.x)
}

func (im *indexModel) agree() {
	im.t.Helper()
	if im.x.n != len(im.m) {
		im.t.Fatalf("%d keys, model %d", im.x.n, len(im.m))
	}
	for k, p := range im.m {
		if q, ok := im.x.Get(k); !ok || q != p {
			im.t.Fatalf("get(%x) = %v,%v, model %v", k, q, ok, p)
		}
	}
}

// The table against a Go-map model under seeded put/get/delete churn, with
// a key space small enough to revisit keys and a size that crosses several
// doublings.
func TestTableMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		im := &indexModel{t: t, x: NewTable[edgePos](0), m: map[uint64]edgePos{}}
		im.x.seed = rng.Uint64()
		nv := 4 + rng.Intn(24)
		for op := 0; op < 2000; op++ {
			k := key(VertexID(rng.Intn(nv)), VertexID(rng.Intn(nv)))
			switch rng.Intn(5) {
			case 0, 1, 2:
				im.put(k, edgePos{out: rng.Int31(), in: rng.Int31()})
			case 3:
				im.del(k)
			case 4:
				p, ok := im.x.Get(k)
				if q, had := im.m[k]; ok != had || p != q {
					t.Fatalf("seed %d: get(%x) = %v,%v, model %v,%v", seed, k, p, ok, q, had)
				}
			}
		}
		im.agree()
	}
}

// A cluster homed at the last slot wraps to slot 0; deleting inside it must
// shift the wrapped tail back across the boundary, and growing while it is
// full must keep every key.
func TestTableWrappedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	im := &indexModel{t: t, x: NewTable[edgePos](0), m: map[uint64]edgePos{}}
	last := len(im.x.slots) - 1
	// Four keys homed at the last slot fill it and slots 0..2; one key homed
	// at slot 0 is pushed to slot 3.
	wrap := keysHomedAt(&im.x, last, 4, rng)
	zero := keysHomedAt(&im.x, 0, 1, rng)[0]
	for i, k := range wrap {
		im.put(k, edgePos{out: int32(i)})
	}
	im.put(zero, edgePos{out: 99})
	if i, _ := im.x.find(zero); i != 3 {
		t.Fatalf("slot-0 key at slot %d, want 3 behind the wrapped cluster", i)
	}
	// Delete at the cluster's head (before the wrap), then inside the
	// wrapped part: every later key must move back and stay reachable.
	im.del(wrap[0])
	if i, _ := im.x.find(zero); i != 2 {
		t.Fatalf("after one delete the slot-0 key is at %d, want 2", i)
	}
	im.del(wrap[2])
	im.agree()
	// Refill past the load limit while the cluster wraps: the growth
	// re-homes every key in the doubled table.
	size := len(im.x.slots)
	for v := 0; im.x.n < size; v++ {
		im.put(key(VertexID(v), VertexID(v+1)), edgePos{in: int32(v)})
	}
	if len(im.x.slots) <= size {
		t.Fatalf("table did not grow: %d slots", len(im.x.slots))
	}
	im.agree()
	for k := range im.m {
		im.del(k)
	}
	im.agree()
}

// Growth triggered by an insert that lands in the middle of a cluster keeps
// the cluster's keys and the new one.
func TestTableGrowMidCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	im := &indexModel{t: t, x: NewTable[edgePos](0), m: map[uint64]edgePos{}}
	limit := len(im.x.slots) * maxLoadNum / maxLoadDen
	ks := keysHomedAt(&im.x, 2, limit+1, rng)
	for i, k := range ks {
		im.put(k, edgePos{out: int32(i), in: int32(-i)})
	}
	im.agree()
	if len(im.x.slots) != 2*minTableSlots {
		t.Fatalf("%d slots after %d inserts, want %d", len(im.x.slots), len(ks), 2*minTableSlots)
	}
}

// The seed moves keys between slots and nothing else: two graphs fed the
// same updates under different seeds hold the same adjacency and positions.
func TestDynamicIndependentOfSeed(t *testing.T) {
	a, b := NewDynamic(16), NewDynamic(16)
	a.idx.seed, b.idx.seed = 1, ^uint64(0)
	rng := rand.New(rand.NewSource(5))
	for op := 0; op < 3000; op++ {
		u, v := VertexID(rng.Intn(16)), VertexID(rng.Intn(16))
		if u == v {
			continue
		}
		if rng.Intn(3) == 0 {
			a.RemoveEdge(u, v)
			b.RemoveEdge(u, v)
		} else {
			w := float64(rng.Intn(9))
			a.AddEdge(u, v, w)
			b.AddEdge(u, v, w)
		}
	}
	assertSameDynamic(t, "seeds 1 and ^0", a, b)
}

// Steady-state churn on a presized graph allocates nothing: the index
// never grows and adjacencies reuse their capacity.
func TestDynamicOpsAllocateNothing(t *testing.T) {
	const n = 64
	g := NewDynamic(n)
	for v := 0; v < n; v++ {
		g.AddEdge(VertexID(v), VertexID((v+1)%n), 1)
		g.AddEdge(VertexID(v), VertexID((v+2)%n), 1)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		u, v := VertexID(i%n), VertexID((i+3)%n)
		i++
		g.AddEdge(u, v, 2)
		if _, ok := g.HasEdge(u, v); !ok {
			t.Fatal("added edge missing")
		}
		g.RemoveEdge(u, v)
	})
	if allocs != 0 {
		t.Fatalf("AddEdge+HasEdge+RemoveEdge allocate %v per round, want 0", allocs)
	}
}

// Reset empties a table and keeps its slots up to keepTableSlots while they
// hold the hint; a table grown past that, or too small for the hint, is
// replaced by one sized to the hint, and either way stays usable.
func TestTableResetCapacityRule(t *testing.T) {
	var tb Table[bool]
	if _, ok := tb.Get(1); ok || tb.Len() != 0 {
		t.Fatal("the zero table is not empty")
	}
	fill := func(keys int) {
		for i := 0; i < keys; i++ {
			tb.Set(key(VertexID(i), 1), i%2 == 0)
		}
		if tb.Len() != keys {
			t.Fatalf("%d keys after %d sets", tb.Len(), keys)
		}
	}
	reset := func(hint, wantSlots int) {
		t.Helper()
		tb.Reset(hint)
		if tb.Len() != 0 || tb.Cap() != wantSlots {
			t.Fatalf("Reset(%d): %d keys, %d slots, want 0 and %d", hint, tb.Len(), tb.Cap(), wantSlots)
		}
		for _, s := range tb.slots {
			if s.nk != 0 {
				t.Fatal("Reset left a key behind")
			}
		}
	}
	fill(4096)
	reset(0, keepTableSlots)    // 4,096 keys' slots are kept
	reset(6000, keepTableSlots) // and hold a hint up to 3/4 of them
	reset(6145, 2*keepTableSlots)
	reset(1, minTableSlots) // an outgrown table is not kept
	fill(keepTableSlots*maxLoadNum/maxLoadDen + 1)
	reset(100, 256)
	if _, ok := tb.Get(key(0, 1)); ok {
		t.Fatal("a reset table still finds a key")
	}
	fill(3)
	if v, ok := tb.Get(key(2, 1)); !ok || !v {
		t.Fatalf("Get after refill = %v,%v", v, ok)
	}
}
