// Micro-benchmark wrappers over the internal/bench suite, so the hot-path
// substrate benches (DESIGN.md §9) are reachable both via `go test -bench`
// and via the cmd/bench JSON runner from one set of bodies.
package cisgraph_test

import (
	"testing"

	"cisgraph/internal/bench"
)

func BenchmarkRelaxPath(b *testing.B)        { bench.RelaxPath(b) }
func BenchmarkPropagation(b *testing.B)      { bench.Propagation(b) }
func BenchmarkWorklist(b *testing.B)         { bench.WorklistHeap(b) }
func BenchmarkWorklistFIFO(b *testing.B)     { bench.WorklistFIFO(b) }
func BenchmarkCounterHandleInc(b *testing.B) { bench.CounterHandleInc(b) }
func BenchmarkCounterStringInc(b *testing.B) { bench.CounterStringInc(b) }
func BenchmarkDynamicAddRemove(b *testing.B) { bench.DynamicAddRemove(b) }
func BenchmarkDynamicHasEdge(b *testing.B)   { bench.DynamicHasEdge(b) }
func BenchmarkDynamicClone(b *testing.B)     { bench.DynamicClone(b) }
func BenchmarkTopDegree(b *testing.B)        { bench.TopDegree(b) }
func BenchmarkApplyBatch(b *testing.B)       { bench.ApplyBatch(b) }

func BenchmarkMultiQueryScaleQ16Dense(b *testing.B) { bench.MultiQueryScale(16)(b) }

func BenchmarkBatchRepairQ64S64(b *testing.B) { bench.BatchRepair(64, 64)(b) }

func BenchmarkColdStartS64(b *testing.B) { bench.ColdStart(64)(b) }
func BenchmarkGraphBuild(b *testing.B)   { bench.GraphBuild(b) }

func BenchmarkRestoreS64(b *testing.B)        { bench.Restore(64, true, 1<<14)(b) }
func BenchmarkRestoreS4(b *testing.B)         { bench.Restore(4, false, 1<<16)(b) }
func BenchmarkAddQueryNewSource(b *testing.B) { bench.AddQueryNewSource(b) }
