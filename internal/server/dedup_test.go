package server

import (
	"fmt"
	"math/rand"
	"testing"

	"cisgraph/internal/resilience"
)

// dup and advance are the one-record faces of dupRun and advanceRun: what
// the table answers and records one update at a time.
func (d *dedupTable) dup(sid, seq uint64) bool {
	return d.dupRun([]resilience.Record{{SID: sid, Seq: seq}}, nil)[0]
}

func (d *dedupTable) advance(sid, seq uint64) {
	d.advanceRun([]resilience.Record{{SID: sid, Seq: seq}})
}

// TestDedupRunAdvanceMatchesPerRecord drives seeded groups through a
// capacity-3 table a group at a time (dupRun, then advanceRun over the
// accepted records, as commit does) and through one fed record by record.
// Groups interleave five sessions and the untagged session 0 in runs, and
// replay earlier sequence numbers. After every group each dup answer, the
// snapshot (its eviction order included) and a probe of every session's
// marks must agree.
func TestDedupRunAdvanceMatchesPerRecord(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		run, perRec := newDedupTable(3), newDedupTable(3)
		next := map[uint64]uint64{}
		var dups []bool
		for gi := 0; gi < 40; gi++ {
			var group []resilience.Record
			for len(group) < 1+rng.Intn(24) {
				sid := uint64(rng.Intn(6)) // 0 is the untagged session
				for n := 1 + rng.Intn(5); n > 0; n-- {
					seq := next[sid] + 1
					if next[sid] > 0 && rng.Intn(4) == 0 {
						seq = 1 + uint64(rng.Int63n(int64(next[sid]))) // a replay
					}
					next[sid] = max(next[sid], seq)
					group = append(group, resilience.Record{SID: sid, Seq: seq})
				}
			}
			where := fmt.Sprintf("seed %d group %d", seed, gi)
			dups = run.dupRun(group, dups)
			var accepted []resilience.Record
			for i, rec := range group {
				if want := perRec.dup(rec.SID, rec.Seq); dups[i] != want {
					t.Fatalf("%s record %d %+v: dupRun %v, per record %v", where, i, rec, dups[i], want)
				}
				if !dups[i] {
					accepted = append(accepted, rec)
				}
			}
			run.advanceRun(accepted)
			for _, rec := range accepted {
				perRec.advance(rec.SID, rec.Seq)
			}
			if got, want := fmt.Sprint(run.snapshot()), fmt.Sprint(perRec.snapshot()); got != want {
				t.Fatalf("%s: snapshot %s, per record %s", where, got, want)
			}
			for sid := uint64(0); sid < 6; sid++ {
				for seq := uint64(1); seq <= next[sid]+1; seq++ {
					if got, want := run.dup(sid, seq), perRec.dup(sid, seq); got != want {
						t.Fatalf("%s: dup(%d, %d) = %v, per record %v", where, sid, seq, got, want)
					}
				}
			}
		}
	}
}
