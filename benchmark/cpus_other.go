//go:build !linux

package main

import "runtime"

// isolation is a no-op where there is no sched_setaffinity; the benchmark's
// numbers are only comparable on Linux, where it reads /proc as well.
type isolation struct {
	daemonCPUs int
	on         bool
}

func isolate() (*isolation, error) { return &isolation{daemonCPUs: runtime.NumCPU()}, nil }

func (iso *isolation) startOnDaemonCPUs(start func() error) error { return start() }

func (iso *isolation) joinDaemonCPUs() {}
