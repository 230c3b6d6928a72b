package server

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"cisgraph/internal/resilience"
)

// cpuBudget is the CPU budget SizeProcs recorded; 0 until it is called.
var cpuBudget atomic.Int64

// SizeProcs gives admission a P of its own beside the engine and returns
// the CPU budget engine widths are sized from. Call it once, first thing at
// start-up.
//
// The budget is GOMAXPROCS as the process found it: the affinity mask, or
// the GOMAXPROCS environment variable when set. SizeProcs then runs
// budget+1 Ps. The reason is the runtime's network poller: a P polls the
// network only when it runs out of runnable goroutines, and sysmon polls on
// its own only every 10 ms. With budget Ps all busy in an apply, a POST
// that merely enqueues is not even runnable until the apply ends, blocks,
// or is preempted at the 10 ms tick (runtime.Gosched cannot help: the
// scheduler checks its run queue before the poller). The spare P instead
// parks its thread in epoll_wait, the kernel wakes it the moment a request
// arrives, and the handler runs on a thread the OS time-slices with the
// applier's. The engine's width is the budget, not GOMAXPROCS, so the
// engine never occupies the spare P.
func SizeProcs() (engineCPUs int) {
	budget := runtime.GOMAXPROCS(0)
	cpuBudget.Store(int64(budget))
	runtime.GOMAXPROCS(budget + 1)
	return budget
}

// engineBudget is the engine's worker-pool width: the budget SizeProcs
// recorded, or GOMAXPROCS in a process that never called it. An operator
// sizes it through the CPU mask or GOMAXPROCS.
func engineBudget() int {
	if b := cpuBudget.Load(); b > 0 {
		return int(b)
	}
	return runtime.GOMAXPROCS(0)
}

// Config tunes the serving layer. The zero value is usable: WithDefaults
// fills every unset field with the documented default.
type Config struct {
	// RequestTimeout bounds each HTTP request's handler time (default 10s).
	// Every endpoint runs under a context carrying this deadline; a handler
	// that overruns gets 503 and its context cancelled.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds POST request bodies (http.MaxBytesReader; default
	// 8 MiB). Oversized bodies get 413 without buffering the excess.
	MaxBodyBytes int64
	// MaxInFlight bounds concurrently executing /v1/* requests (admission
	// control; default 256). Requests beyond the gate are shed with 429 +
	// Retry-After before they can pile onto the ingest queue. /healthz and
	// /metrics bypass the gate so operators can always observe the server.
	MaxInFlight int
	// WALPath is the segmented write-ahead log directory ("" disables
	// durability): every group commit appends its records there in one
	// write and one fsync before applying them — one record per JSON body,
	// one per CGBIN/2 update, each record one stream position. Anything at this path that is
	// not a directory of CGWALOG3 segments is refused, never rewritten.
	WALPath string
	// WALSegmentBytes rolls the WAL to a new segment at this size (default
	// 4 MiB). Smaller segments mean finer-grained retention.
	WALSegmentBytes int64
	// CheckpointPath is where drain (and, with CheckpointEvery, periodic)
	// checkpoints are written ("" disables). After a successful checkpoint,
	// WAL segments wholly covered by it are deleted, bounding disk usage
	// and crash-recovery replay length.
	CheckpointPath string
	// CheckpointEvery writes a checkpoint whenever a commit moves the stream
	// position across a multiple of N (0 = only at drain). Requires
	// CheckpointPath.
	CheckpointEvery int
	// DiskRetryBase / DiskRetryMax shape the degraded-mode disk retry loop:
	// after a durable-write failure trips the breaker, the disk is probed
	// with jittered exponential backoff from DiskRetryBase up to
	// DiskRetryMax (defaults 100ms / 5s).
	DiskRetryBase time.Duration
	DiskRetryMax  time.Duration
	// FS is the filesystem seam for WAL and checkpoint writes (default the
	// real filesystem). Tests inject a resilience.FaultFS to exercise
	// degraded mode deterministically.
	FS resilience.FS
	// FollowURL switches the server into follower mode (DESIGN.md §13): it
	// bootstraps from this leader's checkpoint, tails its WAL, and serves
	// reads only — writes are refused with 421 + the leader's location.
	// A follower without WALPath is stateless; setting WALPath (and usually
	// CheckpointPath) makes it PROMOTABLE (DESIGN.md §17): every replicated
	// record is written to its own durable log, so /v1/admin/promote can
	// seal the log at the durable prefix and take over as leader.
	FollowURL string
	// Peers lists every cluster member's base URL in deterministic promotion
	// priority order (highest priority first). The promote-on-leader-loss
	// watchdog ranks candidates by it, and deposed or orphaned nodes probe it
	// to locate the current leader by epoch.
	Peers []string
	// AdvertiseURL is this node's own base URL as it appears in Peers; the
	// watchdog needs it to know the node's promotion rank, and peer probes
	// skip it.
	AdvertiseURL string
	// PromoteOnLeaderLoss arms the follower watchdog: when the leader stays
	// unreachable for PromoteAfter scaled by the node's rank in Peers, the
	// follower promotes itself — unless a higher-epoch leader is discovered
	// among Peers first, in which case it re-points its tail there. Requires
	// a promotable follower (FollowURL + WALPath).
	PromoteOnLeaderLoss bool
	// PromoteAfter is the watchdog's base leader-loss patience (default 2s).
	// Rank r in Peers waits PromoteAfter × (r+1), so candidates promote in a
	// deterministic order instead of racing.
	PromoteAfter time.Duration
	// SyncFollowers gates fast-path (binary ingest) acks on replication: an
	// update is acked OK only once at least this many follower tail positions
	// have passed its commit — "acked means durable on the serving leader,
	// across failover". 0 (the default) acks on local fsync alone.
	SyncFollowers int
	// SyncAckTimeout bounds how long a replication-gated ack may wait for
	// followers before it is refused with a Degraded status (the client
	// retries; session dedup absorbs the replay). Default 5s.
	SyncAckTimeout time.Duration
	// MaxStaleness is the follower's degraded threshold: when the time since
	// the follower last confirmed it was caught up exceeds this, /healthz
	// reports degraded (0 = never degrade on staleness). Reads still serve —
	// stamped with X-CISGraph-Staleness — unless the client bounds its own
	// staleness via the X-CISGraph-Max-Staleness request header.
	MaxStaleness time.Duration
	// ReplLongPoll bounds how long a leader parks a caught-up follower's
	// tail request, and the follower's per-request deadline grows from it
	// (default 10s). Lower values tighten failover detection in tests.
	ReplLongPoll time.Duration
	// ReplBackoffBase / ReplBackoffMax shape the follower's jittered
	// exponential reconnect backoff (defaults 100ms / 5s).
	ReplBackoffBase time.Duration
	ReplBackoffMax  time.Duration
	// ReplSeed seeds the follower's backoff jitter so chaos runs reproduce
	// (default 1).
	ReplSeed int64
	// PropagateWorkers is accepted and ignored: every drain is the one
	// best-first worklist drain (DESIGN.md §16). It stays because
	// benchmark/stage.go sets it; it goes with ROADMAP item 3's benchmark
	// change.
	PropagateWorkers int
	// WatchQueue bounds each /v1/watch subscriber's pending-delta queue, in
	// messages (default 64). A subscriber that falls further behind is
	// marked lost and receives a resync marker instead of unbounded buffering.
	WatchQueue int
	// MaxWatchers caps concurrent /v1/watch subscribers (admission control;
	// default 4096). Beyond the cap, new subscriptions are shed with 429.
	MaxWatchers int
}

// WithDefaults returns a copy of c with every unset field defaulted.
func (c Config) WithDefaults() Config {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.WALSegmentBytes <= 0 {
		c.WALSegmentBytes = 4 << 20
	}
	if c.DiskRetryBase <= 0 {
		c.DiskRetryBase = 100 * time.Millisecond
	}
	if c.DiskRetryMax <= 0 {
		c.DiskRetryMax = 5 * time.Second
	}
	if c.FS == nil {
		c.FS = resilience.OsFS{}
	}
	if c.ReplLongPoll <= 0 {
		c.ReplLongPoll = 10 * time.Second
	}
	if c.ReplBackoffBase <= 0 {
		c.ReplBackoffBase = 100 * time.Millisecond
	}
	if c.ReplBackoffMax <= 0 {
		c.ReplBackoffMax = 5 * time.Second
	}
	if c.ReplSeed == 0 {
		c.ReplSeed = 1
	}
	if c.PromoteAfter <= 0 {
		c.PromoteAfter = 2 * time.Second
	}
	if c.SyncAckTimeout <= 0 {
		c.SyncAckTimeout = 5 * time.Second
	}
	if c.WatchQueue <= 0 {
		c.WatchQueue = 64
	}
	if c.MaxWatchers <= 0 {
		c.MaxWatchers = 4096
	}
	return c
}

// Validate rejects configurations the server cannot honor.
func (c Config) Validate() error {
	if c.CheckpointEvery > 0 && c.CheckpointPath == "" {
		return fmt.Errorf("server: CheckpointEvery set without CheckpointPath")
	}
	if c.FollowURL != "" && c.CheckpointPath != "" && c.WALPath == "" {
		// A promotable follower's checkpoint is only meaningful together with
		// the local log it coordinates retention against; a checkpoint alone
		// would shadow the leader's state without being resumable.
		return fmt.Errorf("server: promotable follower needs WALPath alongside CheckpointPath")
	}
	if c.PromoteOnLeaderLoss && c.WALPath == "" {
		// The watchdog only runs on followers, but the flag is legal on a
		// leader: cluster nodes share one flag set, and a deposed leader
		// restarts as a follower with it armed. A local WAL is what makes
		// promotion possible at all, so that part stays required.
		return fmt.Errorf("server: PromoteOnLeaderLoss requires a local WAL (WALPath) to be promotable")
	}
	if c.SyncFollowers > 0 && c.WALPath == "" {
		return fmt.Errorf("server: SyncFollowers requires WALPath (followers replicate the WAL)")
	}
	return nil
}
