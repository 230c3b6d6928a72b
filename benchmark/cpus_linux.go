package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a kernel CPU affinity mask (room for 1,024 CPUs).
type cpuSet [16]uint64

func (s *cpuSet) list() []int {
	var out []int
	for i := 0; i < len(s)*64; i++ {
		if s[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

func cpuSetOf(cpus []int) cpuSet {
	var s cpuSet
	for _, c := range cpus {
		s[c/64] |= 1 << (c % 64)
	}
	return s
}

// setAffinity restricts one thread (0 = the calling one) to s.
func setAffinity(tid int, s cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
	}
	return nil
}

// isolation keeps the load generator off the CPUs of the program it measures.
// On a small shared box a harness that shares CPUs with the daemon measures
// the scheduler: identical runs of a 2-core daemon beside a free-running
// harness differed by ±10 %, the same daemon on one CPU with the harness on
// the other by ±1 % (README.md, "Reference-host time").
type isolation struct {
	harness, daemon cpuSet
	daemonCPUs      int
	on              bool
}

// isolate gives the harness the last CPU this process may run on and leaves
// the others to the daemons, which then size GOMAXPROCS from their own mask.
// With a single CPU there is nothing to split.
func isolate() (*isolation, error) {
	var all cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(all), uintptr(unsafe.Pointer(&all))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpus := all.list()
	if len(cpus) < 2 {
		return &isolation{daemonCPUs: 1}, nil
	}
	iso := &isolation{
		harness:    cpuSetOf(cpus[len(cpus)-1:]),
		daemon:     cpuSetOf(cpus[:len(cpus)-1]),
		daemonCPUs: len(cpus) - 1,
		on:         true,
	}
	// One CPU, one P: the harness's goroutines take turns in-process instead of
	// as threads the kernel time-slices.
	runtime.GOMAXPROCS(1)
	// A new thread inherits its creator's mask, so once every existing thread
	// is pinned every later one is too; a second pass catches a thread born
	// from a not-yet-pinned one during the first.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return nil, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// ESRCH: the thread ended between the listing and the call.
			if err := setAffinity(tid, iso.harness); err != nil && !errors.Is(err, syscall.ESRCH) {
				return nil, err
			}
		}
	}
	return iso, nil
}

// startOnDaemonCPUs runs start — a fork — on a thread that carries the
// daemons' mask, which the child inherits, and puts the thread back.
func (iso *isolation) startOnDaemonCPUs(start func() error) error {
	if !iso.on {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, iso.daemon); err != nil {
		return err
	}
	err := start()
	if rerr := setAffinity(0, iso.harness); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// joinDaemonCPUs moves the calling thread, which the caller has locked, onto
// the daemons' CPUs.
func (iso *isolation) joinDaemonCPUs() {
	if iso.on {
		_ = setAffinity(0, iso.daemon) // on failure the probe stays on the harness CPU and follows the host less closely
	}
}
