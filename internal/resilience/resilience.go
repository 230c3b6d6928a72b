// Package resilience is the hardening layer the daemon's commit stage runs
// on: validated ingestion (a sanitizer that keeps malformed updates out of
// every engine), durable streams (a checksummed segmented write-ahead log
// plus an atomic positioned checkpoint envelope, from which cisgraphd
// restores by replaying the WAL suffix over the latest good checkpoint), and
// deterministic fault injection (mangled batches, a panicking algorithm
// plug-in, a failing filesystem) used by the tests to prove both. Panic
// recovery lives in the engine that panics: MultiCISO recomputes a
// panicking source group on the shared topology.
//
// The paper's workload generator (§IV-A) only ever emits well-formed
// batches; a deployment ingesting real update streams cannot assume that.
// RisGraph (Feng et al., SIGMOD'21) and the streaming-graph survey of Besta
// et al. both identify durable, validated ingestion as a defining
// requirement of production streaming-graph systems — this package is that
// layer for CISGraph.
package resilience
