package resilience

import (
	"fmt"
	"math"

	"cisgraph/internal/graph"
	"cisgraph/internal/stats"
)

// Policy is the type of NewSanitizer's policy argument. Drop is the one
// policy; the type stays only because benchmark/stage.go compiles against
// it.
type Policy int

// PolicyDrop removes invalid updates from the batch and counts each removal
// by reason; the cleaned remainder proceeds. It stays only because
// benchmark/stage.go passes it to NewSanitizer.
const PolicyDrop Policy = 0

// Drop reasons, doubling as the stats counter names the sanitizer
// increments.
const (
	DropOutOfRange = stats.CntDropOutOfRange // endpoint ≥ vertex count
	DropSelfLoop   = stats.CntDropSelfLoop   // From == To
	DropBadWeight  = stats.CntDropBadWeight  // NaN, ±Inf or negative weight
	DropDupAdd     = stats.CntDropDupAdd     // addition of a present edge
	DropAbsentDel  = stats.CntDropAbsentDel  // deletion of an absent edge
)

// Report summarises one sanitizer pass over a batch.
type Report struct {
	// Kept is the number of updates that survived.
	Kept int
	// Dropped maps a drop-reason counter name to the number of updates
	// removed for that reason (nil when the batch was fully clean).
	Dropped map[string]int
}

// Total returns the total number of dropped updates.
func (r Report) Total() int {
	n := 0
	for _, v := range r.Dropped {
		n += v
	}
	return n
}

// Clean reports whether the batch needed no intervention.
func (r Report) Clean() bool { return len(r.Dropped) == 0 }

func (r *Report) drop(reason string) {
	if r.Dropped == nil {
		r.Dropped = make(map[string]int)
	}
	r.Dropped[reason]++
}

// Sanitizer validates update batches against a concrete topology before
// they reach any engine. It catches exactly the malformed shapes that
// corrupt engine state downstream: out-of-range vertex IDs (index panics in
// Dynamic.AddEdge), self-loops (the substrate assumes none), NaN/±Inf/
// negative weights (NaN poisons the triangle-inequality classifier — every
// comparison with NaN is false, so a NaN-weighted edge mis-classifies
// forever), duplicate additions and deletions of absent edges (both violate
// the no-parallel-edges batch methodology engines rely on).
//
// A Sanitizer runs one validation pass at a time: Sanitize and Stream share
// its presence overlay and its StreamSanitizer, and each call starts a new
// pass that ends the previous one. Validating concurrently takes one
// Sanitizer per goroutine.
type Sanitizer struct {
	cnt *stats.Counters

	// overlay is the current pass's edge presence on top of its base
	// topology: a key present means the pass accepted an update on that
	// edge, and its value is the edge's presence after it; absent keys read
	// through to the graph. Reused across passes (Reset, not remade).
	overlay graph.Table[bool]
	stream  StreamSanitizer

	// Drop-reason counters are incremented per invalid update — a per-update
	// path under a misbehaving upstream — so each reason's handle is
	// resolved once at construction (DESIGN.md §9).
	hOutOfRange stats.Handle
	hSelfLoop   stats.Handle
	hBadWeight  stats.Handle
	hDupAdd     stats.Handle
	hAbsentDel  stats.Handle
}

// NewSanitizer returns a sanitizer that drops invalid updates. Per-reason
// drop counts are accumulated on cnt (pass nil to skip counting). The policy
// argument is ignored; it stays only because benchmark/stage.go passes it.
func NewSanitizer(_ Policy, cnt *stats.Counters) *Sanitizer {
	s := &Sanitizer{cnt: cnt}
	if cnt != nil {
		s.hOutOfRange = cnt.Handle(DropOutOfRange)
		s.hSelfLoop = cnt.Handle(DropSelfLoop)
		s.hBadWeight = cnt.Handle(DropBadWeight)
		s.hDupAdd = cnt.Handle(DropDupAdd)
		s.hAbsentDel = cnt.Handle(DropAbsentDel)
	}
	return s
}

// count increments the handled counter for a drop reason (no-op without a
// counter set).
func (s *Sanitizer) count(reason string) {
	if s.cnt == nil {
		return
	}
	switch reason {
	case DropOutOfRange:
		s.hOutOfRange.Inc()
	case DropSelfLoop:
		s.hSelfLoop.Inc()
	case DropBadWeight:
		s.hBadWeight.Inc()
	case DropDupAdd:
		s.hDupAdd.Inc()
	case DropAbsentDel:
		s.hAbsentDel.Inc()
	default:
		s.cnt.Inc(reason)
	}
}

// begin starts a validation pass with an empty overlay sized for hint
// accepted updates.
func (s *Sanitizer) begin(hint int) { s.overlay.Reset(hint) }

// admit validates one update against g plus the pass's overlay, and records
// an accepted update's effect for the rest of the pass. It returns the
// drop-reason counter name ("" = accepted); a refused update leaves no
// trace.
func (s *Sanitizer) admit(g *graph.Dynamic, n int, up graph.Update) string {
	k := uint64(up.From)<<32 | uint64(up.To)
	present := false
	if int(up.From) < n && int(up.To) < n {
		var tracked bool
		if present, tracked = s.overlay.Get(k); !tracked {
			_, present = g.HasEdge(up.From, up.To)
		}
	}
	reason := check(up, n, present)
	if reason == "" {
		s.overlay.Set(k, !up.Del)
	}
	return reason
}

// check classifies a single update against the tracked edge presence,
// returning the drop-reason counter name ("" = valid). present reports
// whether the update's edge currently exists (only consulted for valid
// endpoints).
func check(up graph.Update, n int, present bool) string {
	if int(up.From) >= n || int(up.To) >= n {
		return DropOutOfRange
	}
	if up.From == up.To {
		return DropSelfLoop
	}
	if math.IsNaN(up.W) || math.IsInf(up.W, 0) || up.W < 0 {
		return DropBadWeight
	}
	if up.Del {
		if !present {
			return DropAbsentDel
		}
	} else if present {
		return DropDupAdd
	}
	return ""
}

// Sanitize validates batch against g's current topology (g is the pre-batch
// snapshot; it is not modified). Presence is tracked through the batch, so
// an addition made valid by an earlier in-batch deletion (and vice versa)
// is accepted, while the second of two identical additions is a duplicate.
// It returns the cleaned batch and a per-reason report of what it dropped.
// The error is always nil: it stays only because benchmark/stage.go
// compiles against three results.
func (s *Sanitizer) Sanitize(g *graph.Dynamic, batch []graph.Update) ([]graph.Update, Report, error) {
	var rep Report
	s.begin(len(batch))
	n := g.NumVertices()
	clean := batch[:0:0]
	for _, up := range batch {
		if reason := s.admit(g, n, up); reason != "" {
			rep.drop(reason)
			s.count(reason)
			continue
		}
		clean = append(clean, up)
	}
	rep.Kept = len(clean)
	return clean, rep, nil
}

// StreamSanitizer validates updates one at a time against a fixed pre-group
// topology snapshot plus the net effect of previously accepted updates — the
// per-update fast path's equivalent of Sanitize's intra-batch presence
// tracking: an invalid update is refused individually (and counted), never
// able to poison its neighbours.
type StreamSanitizer struct {
	s *Sanitizer
	g *graph.Dynamic
	n int
}

// Stream starts a per-update validation pass against g's current topology
// (g must not be mutated until the pass ends). The returned StreamSanitizer
// is the Sanitizer's own, reused by every pass: it is valid until the next
// Stream or Sanitize call on the same Sanitizer.
func (s *Sanitizer) Stream(g *graph.Dynamic) *StreamSanitizer {
	s.begin(0)
	s.stream = StreamSanitizer{s: s, g: g, n: g.NumVertices()}
	return &s.stream
}

// Check validates one update, returning the drop-reason counter name ("" =
// accepted). An accepted update takes effect for subsequent presence checks;
// a refused one is counted on the sanitizer's counters and has no effect.
func (ss *StreamSanitizer) Check(up graph.Update) string {
	reason := ss.s.admit(ss.g, ss.n, up)
	if reason != "" {
		ss.s.count(reason)
	}
	return reason
}

// ValidateBatch checks batch against g without modifying anything and
// returns an error naming every update a drop pass would remove (nil when
// the batch is fully clean).
func ValidateBatch(g *graph.Dynamic, batch []graph.Update) error {
	if _, rep, _ := NewSanitizer(PolicyDrop, nil).Sanitize(g, batch); !rep.Clean() {
		return fmt.Errorf("resilience: %d invalid update(s): %v", rep.Total(), rep.Dropped)
	}
	return nil
}
