// Package replication implements WAL-shipping read replication for
// cisgraphd (DESIGN.md §13). The engine is a deterministic state machine —
// sanitize → segmented WAL → apply, keyed by batch index — so a follower
// that replays the leader's durable log byte for byte converges on exactly
// the leader's answers; divergence is impossible by construction.
//
// The leader ships its segmented WAL over HTTP:
//
//	GET /v1/repl/segments            live segment listing + next/oldest index
//	GET /v1/repl/tail?from=N         long-poll stream of CRC-checked WAL records
//	GET /v1/repl/checkpoint          latest checkpoint envelope (bootstrap)
//
// Followers bootstrap from the checkpoint, tail the log with jittered
// exponential backoff across leader restarts and partitions, re-verify every
// record's CRC (a torn or truncated response costs only a re-fetch of the
// unverified suffix), and re-bootstrap automatically when retention has
// deleted a segment they still need (HTTP 410).
//
// A tail response is the records themselves, in the WAL's one record codec
// (resilience.AppendRecord to write, resilience.ReadRecord to read and
// check), byte-identical to the on-disk records:
//
//	uint64 index | uint32 payload length | uint32 CRC-32 (IEEE, of the
//	payload) | payload
//
// so the CRC the follower verifies is the CRC the leader fsynced.
package replication

// Replication endpoint paths (mounted by the serving layer on leaders).
const (
	PathSegments   = "/v1/repl/segments"
	PathTail       = "/v1/repl/tail"
	PathCheckpoint = "/v1/repl/checkpoint"
)

// Replication HTTP headers.
const (
	// HeaderNext carries the leader's next WAL index on every tail and
	// checkpoint response — the follower's lag denominator, present even on
	// empty long-poll returns.
	HeaderNext = "X-CISGraph-Repl-Next"
	// HeaderStaleness stamps follower read responses with the seconds since
	// the follower last confirmed it was caught up with the leader.
	HeaderStaleness = "X-CISGraph-Staleness"
	// HeaderMaxStaleness is the client-side staleness bound: a follower
	// whose staleness exceeds it answers 503 instead of a stale read.
	HeaderMaxStaleness = "X-CISGraph-Max-Staleness"
	// HeaderRole identifies the responding node's role (leader/follower).
	HeaderRole = "X-CISGraph-Role"
	// HeaderEpoch carries a node's leadership epoch — the fencing token of
	// DESIGN.md §17. Sources stamp it on every replication response;
	// tailers send their own epoch on every request, so both sides can
	// detect a deposed peer and refuse to serve or apply across the fence.
	HeaderEpoch = "X-CISGraph-Epoch"
)
