package graph

import "math/rand/v2"

// Table is an open-addressed hash table keyed by a packed edge key
// (u<<32 | v), the one hash table on the per-update path: Dynamic's edge
// index, the sanitizer's presence overlay and the batch normalizer's track
// index. It uses linear probing and backward-shift deletion, so there are
// no tombstones and a probe ends at the first empty slot.
//
// The empty key is key(NoVertex, NoVertex), a self-loop, which is never an
// edge and must not be stored. A slot holds the complement of its key, so
// the empty key reads as zero and a freshly allocated slot array is
// already empty.
//
// A table holds at most 3/4 of its slots and doubles beyond that. It mixes
// a random seed into its hash, as Go's own maps do, so a client cannot
// choose edges that collide. Nothing observable depends on the seed: it
// moves keys between slots, and no caller iterates a table.
//
// The zero Table is empty and ready to use.
type Table[V any] struct {
	slots []tableSlot[V] // nil, or a power of two ≥ minTableSlots long
	n     int            // occupied slots
	shift uint           // 64 − log2(len(slots)): home(k) = mix(k) >> shift
	seed  uint64
}

type tableSlot[V any] struct {
	nk uint64 // ^key; 0 = empty
	v  V
}

const (
	minTableSlots = 8
	// A load of at most 3/4 keeps the mean successful probe at 2.5 slots
	// or fewer, and the slot array, at 16 B a slot for Dynamic's index, no
	// larger than the Go map it replaced.
	maxLoadNum, maxLoadDen = 3, 4
	// keepTableSlots is the largest slot array Reset keeps: the one 4,096
	// keys need. After a pass that grew the table beyond it, the next pass
	// starts on a fresh table sized to its own hint, so one outlier batch
	// does not make every later Reset clear its capacity.
	keepTableSlots = 8192
)

// NewTable returns an empty table sized to hold hint keys without growing.
func NewTable[V any](hint int) Table[V] {
	var t Table[V]
	t.alloc(slotsFor(hint))
	return t
}

// slotsFor returns the smallest slot count that holds hint keys.
func slotsFor(hint int) int {
	size := minTableSlots
	for size*maxLoadNum/maxLoadDen < hint {
		size *= 2
	}
	return size
}

// alloc installs an empty slot array of size (a power of two), seeding a
// table that has no seed yet.
func (t *Table[V]) alloc(size int) {
	if t.seed == 0 {
		t.seed = rand.Uint64()
	}
	t.slots = make([]tableSlot[V], size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
}

// home returns k's preferred slot: the seeded key through two
// multiply-xorshift rounds, then the top log2(len(slots)) bits.
func (t *Table[V]) home(k uint64) int {
	h := (k ^ t.seed) * 0x9e3779b97f4a7c15
	h = (h ^ h>>32) * 0xd6e8feb86659fd93
	return int(h >> t.shift)
}

// find returns the slot holding k and true, or the empty slot that ends
// k's probe sequence and false. The table must have slots.
func (t *Table[V]) find(k uint64) (int, bool) {
	nk, mask := ^k, len(t.slots)-1
	for i := t.home(k); ; i = (i + 1) & mask {
		switch t.slots[i].nk {
		case nk:
			return i, true
		case 0:
			return i, false
		}
	}
}

// Len returns the number of keys held.
func (t *Table[V]) Len() int { return t.n }

// Cap returns the number of slots, which bounds what Reset clears.
func (t *Table[V]) Cap() int { return len(t.slots) }

// Get returns k's value and whether k is present.
func (t *Table[V]) Get(k uint64) (V, bool) {
	if t.n == 0 {
		var zero V
		return zero, false
	}
	i, ok := t.find(k)
	return t.slots[i].v, ok
}

// Insert adds k → v and reports true, or reports false and leaves the
// table unchanged when k is present.
func (t *Table[V]) Insert(k uint64, v V) bool {
	i, ok := t.reserve(k)
	if !ok {
		t.slots[i] = tableSlot[V]{nk: ^k, v: v}
		t.n++
	}
	return !ok
}

// Set stores k → v, replacing any value k had.
func (t *Table[V]) Set(k uint64, v V) {
	i, ok := t.reserve(k)
	if !ok {
		t.slots[i].nk = ^k
		t.n++
	}
	t.slots[i].v = v
}

// reserve makes room for one more key and returns find(k).
func (t *Table[V]) reserve(k uint64) (int, bool) {
	if (t.n+1)*maxLoadDen > len(t.slots)*maxLoadNum {
		t.grow()
	}
	return t.find(k)
}

// deleteAt empties slot i, which must be occupied, and shifts the rest of
// its cluster back so that every key stays reachable from its home slot.
func (t *Table[V]) deleteAt(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].nk != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-t.home(^t.slots[j].nk))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = tableSlot[V]{}
	t.n--
}

// grow doubles the slot array (or allocates the first one) and re-inserts
// every entry.
func (t *Table[V]) grow() {
	old := t.slots
	t.alloc(max(2*len(old), minTableSlots))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.nk == 0 {
			continue
		}
		i := t.home(^s.nk)
		for t.slots[i].nk != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// Reset empties the table and sizes it for hint keys. It keeps its slot
// array for reuse when that holds hint keys and is no larger than
// keepTableSlots, and otherwise allocates one that holds hint keys.
func (t *Table[V]) Reset(hint int) {
	if len(t.slots) > keepTableSlots || hint*maxLoadDen > len(t.slots)*maxLoadNum {
		t.alloc(slotsFor(hint))
	} else if t.n > 0 {
		clear(t.slots)
	}
	t.n = 0
}

// clone returns an independent copy with the same seed and slot layout.
func (t *Table[V]) clone() Table[V] {
	c := *t
	c.slots = append([]tableSlot[V](nil), t.slots...)
	return c
}
