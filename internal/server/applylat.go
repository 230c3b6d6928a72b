package server

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"
)

// Engine-side apply-latency tracking. Every commit records how long the
// engine took to apply it (the pool call only — sanitize, WAL fsync
// and watch publication are excluded), keyed by its update-count bucket.
// Small trickle batches and full-size cuts stress different parts of the
// kernel (per-update routing vs whole-batch repair), so one merged
// distribution would hide regressions in either; the split
// lets loadgen and operators see both (/healthz "apply_latency").

// applyLatRing bounds the retained samples per size bucket: percentiles are
// over the most recent applyLatRing batches of that size class.
const applyLatRing = 512

// applyLatBuckets covers batch sizes up to 2^31: bucket k holds sizes
// [2^k, 2^(k+1)).
const applyLatBuckets = 32

// ApplyLatBucket is one size class of the engine apply-latency report.
type ApplyLatBucket struct {
	// Sizes is the half-open batch-size range, e.g. "4-7" or "512-1023".
	Sizes string `json:"sizes"`
	// Count is the total batches applied in this class (not capped by the
	// sample ring).
	Count uint64 `json:"count"`
	// Percentiles over the most recent samples, in milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"` // worst retained sample
}

type applyLatBucket struct {
	count uint64
	ring  []time.Duration
	next  int // ring write position once len(ring) == applyLatRing
}

// applyLatRecorder is the concurrency-safe recorder. Every apply path
// (batcher, per-update fast path, WAL replay, follower tail) records through
// it, a fast-path group under its update count; the per-apply mutex is noise
// next to an engine apply — as long as report, which the commit stage waits
// on through it, only copies under it.
type applyLatRecorder struct {
	mu      sync.Mutex
	buckets [applyLatBuckets]applyLatBucket
}

// record files one engine apply of a batch of n updates.
func (r *applyLatRecorder) record(n int, d time.Duration) {
	if n <= 0 {
		return
	}
	k := bits.Len(uint(n)) - 1 // floor(log2 n)
	if k >= applyLatBuckets {
		k = applyLatBuckets - 1
	}
	r.mu.Lock()
	b := &r.buckets[k]
	b.count++
	if len(b.ring) < applyLatRing {
		b.ring = append(b.ring, d)
	} else {
		b.ring[b.next] = d
		b.next = (b.next + 1) % applyLatRing
	}
	r.mu.Unlock()
}

// report renders the non-empty size classes in ascending size order. The
// rings are copied under the lock and sorted outside it, so a /healthz poll
// never holds up a commit for the sorts.
func (r *applyLatRecorder) report() []ApplyLatBucket {
	type class struct {
		k      int
		count  uint64
		lo, hi int // the class's samples in all[lo:hi]
	}
	var classes []class
	var all []time.Duration
	r.mu.Lock()
	for k := range r.buckets {
		b := &r.buckets[k]
		if b.count == 0 {
			continue
		}
		lo := len(all)
		all = append(all, b.ring...)
		classes = append(classes, class{k, b.count, lo, len(all)})
	}
	r.mu.Unlock()

	var out []ApplyLatBucket
	for _, c := range classes {
		sorted := all[c.lo:c.hi]
		slices.Sort(sorted)
		out = append(out, ApplyLatBucket{
			Sizes: fmt.Sprintf("%d-%d", 1<<c.k, 1<<(c.k+1)-1),
			Count: c.count,
			P50Ms: msOf(latPercentile(sorted, 0.50)),
			P90Ms: msOf(latPercentile(sorted, 0.90)),
			P99Ms: msOf(latPercentile(sorted, 0.99)),
			MaxMs: msOf(sorted[len(sorted)-1]),
		})
	}
	return out
}

// latPercentile reads the p-quantile of an ascending-sorted sample set
// (nearest-rank).
func latPercentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
