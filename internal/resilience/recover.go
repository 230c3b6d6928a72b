package resilience

import (
	"bytes"
	"fmt"
	"os"

	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
)

// RecoveryConfig names the durable artefacts of a crashed run.
type RecoveryConfig struct {
	// WALPath is the segmented write-ahead log directory the run appended to
	// ("" = none).
	WALPath string
	// CheckpointPath is the guard's periodic checkpoint file ("" = none).
	// An unreadable or corrupt checkpoint is not fatal: recovery falls back
	// to a full replay from Init.
	CheckpointPath string
	// Init rebuilds the stream's initial snapshot and query binding, used
	// when no usable checkpoint exists. It may be nil when a checkpoint is
	// guaranteed present.
	Init func() (*graph.Dynamic, algo.Algorithm, core.Query)
	// Options configure the recovered CISO engine.
	Options []core.CISOOption
}

// Recover rebuilds a CISO engine after a crash: load the newest good
// checkpoint (falling back to a fresh engine over Init's snapshot), then
// replay the WAL suffix the checkpoint does not cover. The returned count
// is the number of batches the engine has absorbed — the index the next
// WAL append would use, so a run can continue exactly where it died.
func Recover(cfg RecoveryConfig) (*core.CISO, uint64, error) {
	var eng *core.CISO
	var through uint64
	if cfg.CheckpointPath != "" {
		if covered, _, payload, err := ReadCheckpointMeta(cfg.CheckpointPath); err == nil {
			if e, err := core.LoadCISO(bytes.NewReader(payload), cfg.Options...); err == nil {
				eng, through = e, covered
			}
		} else if !os.IsNotExist(err) && cfg.Init == nil {
			return nil, 0, fmt.Errorf("resilience: recover: %w", err)
		}
	}
	if eng == nil {
		if cfg.Init == nil {
			return nil, 0, fmt.Errorf("resilience: recover: no usable checkpoint and no Init to replay from")
		}
		g, a, q := cfg.Init()
		eng = core.NewCISO(cfg.Options...)
		eng.Reset(g, a, q)
		through = 0
	}
	if cfg.WALPath != "" {
		recs, err := ReplaySegmented(cfg.WALPath)
		if err != nil {
			return nil, 0, fmt.Errorf("resilience: recover: %w", err)
		}
		for _, rec := range recs {
			if rec.Index < through {
				continue // covered by the checkpoint
			}
			if rec.Index != through {
				return nil, 0, fmt.Errorf("resilience: recover: WAL gap (have record %d, expected %d)", rec.Index, through)
			}
			eng.ApplyBatch(rec.Batch)
			through++
		}
	}
	return eng, through, nil
}
