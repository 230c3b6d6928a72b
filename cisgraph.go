// Package cisgraph is the public API of the CISGraph reproduction: a
// contribution-driven system for pairwise queries over streaming graphs
// (Feng et al., "CISGraph: A Contribution-Driven Accelerator for Pairwise
// Streaming Graph Analytics", DATE 2025).
//
// The package re-exports the stable surface of the internal packages:
//
//   - graph substrate: mutable topology (Dynamic), datasets (EdgeList),
//     deterministic generators and edge-list I/O;
//   - streaming workloads: the paper's 50%-load + batched-update
//     methodology (Workload);
//   - the paper's five monotonic pairwise algorithms (PPSP, PPWP, PPNP,
//     Viterbi, Reach) plus the MinHop extension, behind the Algorithm
//     interface;
//   - five software engines (ColdStart, Incremental, SGraph, PnP, CISO)
//     and the simulated CISGraph accelerator, all behind the Engine
//     interface, plus the multi-query MultiCISO.
//
// # Quick start
//
//	el := cisgraph.RMAT("demo", 12, 1<<16, cisgraph.DefaultRMAT, 64, 42)
//	w, _ := cisgraph.NewWorkload(el, cisgraph.DefaultStreamConfig(len(el.Arcs), 42))
//	q := cisgraph.Query{S: 0, D: 99}
//	eng := cisgraph.NewCISO()
//	eng.Reset(w.Initial(), cisgraph.PPSP(), q)
//	res := eng.ApplyBatch(w.NextBatch())
//	fmt.Println(res.Answer, res.Response)
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package cisgraph

import (
	"cisgraph/internal/algo"
	"cisgraph/internal/core"
	"cisgraph/internal/graph"
	"cisgraph/internal/hw/accel"
	"cisgraph/internal/replication"
	"cisgraph/internal/resilience"
	"cisgraph/internal/stats"
	"cisgraph/internal/stream"
)

// Graph substrate types.
type (
	// VertexID identifies a vertex (0..N-1).
	VertexID = graph.VertexID
	// Edge is an out-edge (target, raw weight).
	Edge = graph.Edge
	// Arc is a fully specified directed edge.
	Arc = graph.Arc
	// Update is one streaming mutation (edge addition or deletion).
	Update = graph.Update
	// EdgeList is a dataset: vertex count plus arcs.
	EdgeList = graph.EdgeList
	// Dynamic is the mutable streaming graph.
	Dynamic = graph.Dynamic
	// RMATParams configures the R-MAT generator.
	RMATParams = graph.RMATParams
	// StandIn names the paper's dataset stand-ins (OR, LJ, UK).
	StandIn = graph.StandIn
)

// NoVertex is the "no such vertex" sentinel.
const NoVertex = graph.NoVertex

// Stand-in dataset names (paper Table III).
const (
	StandInOR = graph.StandInOR
	StandInLJ = graph.StandInLJ
	StandInUK = graph.StandInUK
)

// DefaultRMAT is the Graph500 R-MAT parameterisation.
var DefaultRMAT = graph.DefaultRMAT

// Graph constructors and I/O.
var (
	// NewDynamic returns an empty mutable graph with n vertices.
	NewDynamic = graph.NewDynamic
	// FromEdgeList builds a Dynamic from a dataset.
	FromEdgeList = graph.FromEdgeList
	// RMAT, Uniform, Crawl and Grid are the deterministic generators.
	RMAT    = graph.RMAT
	Uniform = graph.Uniform
	Crawl   = graph.Crawl
	Grid    = graph.Grid
	// AddEdgeUpdate and DelEdgeUpdate build stream updates.
	AddEdgeUpdate = graph.Add
	DelEdgeUpdate = graph.Del
	// SaveEdgeList / LoadEdgeList persist datasets (.el text, else binary).
	SaveEdgeList = graph.SaveFile
	LoadEdgeList = graph.LoadFile
)

// Streaming workload types (paper §IV-A methodology).
type (
	// Workload splits a dataset into an initial snapshot and update batches.
	Workload = stream.Workload
	// StreamConfig controls the split and batch sizes.
	StreamConfig = stream.Config
)

var (
	// NewWorkload builds a workload from a dataset.
	NewWorkload = stream.New
	// DefaultStreamConfig mirrors the paper's ratios (50% load, ~0.12%
	// of edges added and deleted per batch).
	DefaultStreamConfig = stream.DefaultConfig
)

// Algorithm is a monotonic pairwise graph algorithm (paper Table II).
type Algorithm = algo.Algorithm

// Value is a vertex state.
type Value = algo.Value

// The five evaluated algorithms.
func PPSP() Algorithm    { return algo.PPSP{} }
func PPWP() Algorithm    { return algo.PPWP{} }
func PPNP() Algorithm    { return algo.PPNP{} }
func Viterbi() Algorithm { return algo.Viterbi{} }
func Reach() Algorithm   { return algo.Reach{} }

// MinHop is an extension algorithm (hop-count BFS distance); it is not part
// of the paper's Table II but runs on every engine unchanged.
func MinHop() Algorithm { return algo.MinHop{} }

var (
	// Algorithms returns all five paper algorithms in Table II order.
	Algorithms = algo.All
	// AlgorithmByName resolves a paper abbreviation ("PPSP", ...).
	AlgorithmByName = algo.ByName
)

// Engine types.
type (
	// Query is a pairwise query Q(s→d).
	Query = core.Query
	// Result reports one applied batch (answer, response, counters).
	Result = core.Result
	// Engine is a pairwise streaming query core.
	Engine = core.Engine
	// Class is Algorithm 1's contribution level.
	Class = core.Class
	// CISOOption configures CISGraph-O ablation variants.
	CISOOption = core.CISOOption
	// MultiCISO answers several pairwise queries over one shared stream
	// (the paper's future-work scenario).
	MultiCISO = core.MultiCISO
	// MultiOption configures a MultiCISO core.
	MultiOption = core.MultiOption
)

// Contribution levels (Algorithm 1).
const (
	ClassUseless  = core.ClassUseless
	ClassDelayed  = core.ClassDelayed
	ClassValuable = core.ClassValuable
)

// Counter names for Result.Counters() and Engine.Counters().
const (
	// CntRelax counts ⊕ applications — the paper's "computations".
	CntRelax = stats.CntRelax
	// CntActivation counts buffered vertex activations.
	CntActivation = stats.CntActivation
	// CntUpdateValuable / CntUpdateDelayed / CntUpdateUseless count
	// Algorithm 1's classification outcomes per batch.
	CntUpdateValuable = stats.CntUpdateValuable
	CntUpdateDelayed  = stats.CntUpdateDelayed
	CntUpdateUseless  = stats.CntUpdateUseless
	// CntUpdatePromoted counts delayed deletions promoted onto the key path.
	CntUpdatePromoted = stats.CntUpdatePromoted
	// CntTagged counts vertices visited by deletion-recovery tagging.
	CntTagged = stats.CntTagged
)

var (
	// NewColdStart is the paper's CS baseline (full recompute).
	NewColdStart = core.NewColdStart
	// NewIncremental is the contribution-independent incremental baseline.
	NewIncremental = core.NewIncremental
	// NewSGraph is the hub-based pruning comparator (16 hubs by default).
	NewSGraph = core.NewSGraph
	// NewPnP is the pruning-and-prediction baseline (goal-directed pruned
	// search, no incremental state).
	NewPnP = core.NewPnP
	// NewCISO is CISGraph-O, the contribution-aware software workflow.
	NewCISO = core.NewCISO
	// NewMultiCISO answers several queries over one shared stream.
	// WithWorkers bounds its per-source-group worker pool.
	NewMultiCISO = core.NewMultiCISO
	WithWorkers  = core.WithWorkers
	// WithNoDrop / WithFIFO disable CISO's dropping / priority scheduling.
	WithNoDrop = core.WithNoDrop
	WithFIFO   = core.WithFIFO
	// ClassifyAddition / ClassifyDeletion expose Algorithm 1 directly.
	ClassifyAddition = core.ClassifyAddition
	ClassifyDeletion = core.ClassifyDeletion
)

// Resilience layer: validated ingestion, durable streams and fault
// injection (see DESIGN.md "Resilience & recovery").
type (
	// SanitizePolicy is the type of NewSanitizer's policy argument, whose
	// one value is SanitizeDrop.
	SanitizePolicy = resilience.Policy
	// Sanitizer validates update batches against a topology.
	Sanitizer = resilience.Sanitizer
	// SanitizeReport breaks a batch's drops down by reason.
	SanitizeReport = resilience.Report
	// WALRecord is one log entry (index + batch + session tag).
	WALRecord = resilience.Record
	// SegmentedWAL is the append-only, checksummed write-ahead log: a
	// directory of segment files with checkpoint-coordinated retention
	// (DESIGN.md §12.1); SegWALOptions tunes it.
	SegmentedWAL  = resilience.SegmentedWAL
	SegWALOptions = resilience.SegWALOptions
	// FS is the filesystem seam the durability writers run on; FaultFS is
	// the error-injecting test implementation (DESIGN.md §12.2).
	FS      = resilience.FS
	FaultFS = resilience.FaultFS
	// FaultInjector mangles batches deterministically for resilience tests.
	FaultInjector = resilience.Injector
	// FaultConfig sets the injector's per-update fault probabilities.
	FaultConfig = resilience.InjectorConfig
	// PanicAlgorithm wraps an Algorithm with a deterministic injected panic.
	PanicAlgorithm = resilience.PanicAlgorithm
	// Replication layer (DESIGN.md §13): ReplTailer streams a leader's WAL
	// into a follower's apply path; ReplSource serves it; ReplProxy is the
	// fault-injecting TCP relay the partition chaos harness stands between
	// them.
	ReplTailer       = replication.Tailer
	ReplTailerConfig = replication.TailerConfig
	ReplSource       = replication.Source
	ReplProxy        = replication.Proxy
)

// SanitizeDrop drops invalid updates and counts them: the one sanitize
// policy.
const SanitizeDrop = resilience.PolicyDrop

var (
	// NewSanitizer builds a standalone batch validator; ValidateBatch
	// reports whether a drop pass would remove anything.
	NewSanitizer  = resilience.NewSanitizer
	ValidateBatch = resilience.ValidateBatch
	// Segmented WAL (DESIGN.md §12): CreateSegmentedWAL starts a fresh log,
	// OpenSegmentedWAL resumes one (truncating a torn tail), and
	// ReplaySegmented reads every durable record back.
	CreateSegmentedWAL = resilience.CreateSegmentedWAL
	OpenSegmentedWAL   = resilience.OpenSegmentedWAL
	ReplaySegmented    = resilience.ReplaySegmented
	// Replication constructors: a follower-side WAL tailer and the chaos
	// harness's drop/heal TCP proxy. ReplLeaderURL normalizes a -follow
	// target to scheme+host.
	NewReplTailer  = replication.NewTailer
	NewReplProxy   = replication.NewProxy
	NewReplProxyOn = replication.NewProxyOn
	ReplLeaderURL  = replication.LeaderURL
	// NewFaultInjector / NewPanicAlgorithm are the deterministic fault
	// models used by the resilience tests.
	NewFaultInjector  = resilience.NewInjector
	NewPanicAlgorithm = resilience.NewPanicAlgorithm
)

// Accelerator model (paper §III-B).
type (
	// HWConfig configures the simulated accelerator.
	HWConfig = accel.Config
	// Accelerator is the cycle-level CISGraph model; it implements Engine
	// with simulated response times.
	Accelerator = accel.Accel
	// EnergyConfig parameterises the accelerator's energy model.
	EnergyConfig = accel.EnergyConfig
	// Energy is a per-component energy breakdown in nanojoules.
	Energy = accel.Energy
)

var (
	// NewAccelerator builds an accelerator instance.
	NewAccelerator = accel.New
	// PaperHWConfig is Table I: 4 pipelines @ 1 GHz, 32 MB scratchpad,
	// 8× DDR4-3200.
	PaperHWConfig = accel.PaperConfig
	// DefaultEnergy returns representative per-event energy constants.
	DefaultEnergy = accel.DefaultEnergy
)
