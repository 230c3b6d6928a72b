package resilience

import (
	"encoding/binary"
	"math"
	"testing"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
)

// decodeFuzzBatch turns arbitrary bytes into an update batch, deliberately
// WITHOUT clamping: IDs may be far out of range, weights may be NaN/Inf/
// negative, self-loops and duplicates are all possible. That is the point —
// the sanitizer must tame whatever this produces.
func decodeFuzzBatch(data []byte) []graph.Update {
	var batch []graph.Update
	for i := 0; i+13 <= len(data) && len(batch) < 64; i += 13 {
		up := graph.Update{Del: data[i]&1 == 1}
		up.From = binary.LittleEndian.Uint32(data[i+1 : i+5])
		up.To = binary.LittleEndian.Uint32(data[i+5 : i+9])
		up.W = math.Float64frombits(uint64(binary.LittleEndian.Uint32(data[i+9:i+13])) |
			uint64(data[i])<<32) // low-entropy but can hit NaN/Inf patterns
		if data[i]&2 == 2 {
			up.W = math.NaN()
		}
		if data[i]&4 == 4 {
			up.W = -up.W
		}
		if data[i]&8 == 8 {
			up.From %= 64 // bias some IDs into range so updates survive
			up.To %= 64
		}
		batch = append(batch, up)
	}
	return batch
}

// FuzzSanitize: for arbitrary byte-derived batches, the drop pass's output
// must (a) pass ValidateBatch against the same topology — a second drop
// pass drops nothing — (b) apply to the graph without panicking, and (c)
// keep a CISO engine in agreement with ColdStart.
func FuzzSanitize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 1, 0, 0, 0, 2, 0, 0, 0, 64, 64, 64, 64})
	f.Add([]byte{2, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0})
	long := make([]byte, 13*20)
	for i := range long {
		long[i] = byte(i * 7)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		el := graph.Uniform("fuzz", 48, 200, 8, 9)
		g := graph.FromEdgeList(el)
		batch := decodeFuzzBatch(data)

		clean, _, err := NewSanitizer(PolicyDrop, nil).Sanitize(g, batch)
		if err != nil {
			t.Fatalf("drop policy must never error: %v", err)
		}
		if vErr := ValidateBatch(g, clean); vErr != nil {
			t.Fatalf("sanitized batch fails validation: %v", vErr)
		}

		// The clean batch must be safe for the topology and all engines.
		q := core.Query{S: 0, D: 31}
		ref := core.NewColdStart()
		ref.Reset(g.Clone(), algo.PPSP{}, q)
		want := ref.ApplyBatch(clean).Answer

		ciso := core.NewCISO()
		ciso.Reset(g.Clone(), algo.PPSP{}, q)
		if got := ciso.ApplyBatch(clean).Answer; got != want {
			t.Fatalf("CISO %v != ColdStart %v on sanitized batch %v", got, want, clean)
		}
	})
}
