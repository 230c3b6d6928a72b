//go:build !linux

package main

// probeKernel has no portable form; without samples every slowdown reads 1.
func probeKernel() (int64, bool) { return 0, false }
