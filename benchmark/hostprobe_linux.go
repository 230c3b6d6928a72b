package main

import (
	"syscall"
	"unsafe"
)

func threadCPUNs() int64 {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

// probeKernel returns the thread CPU time of one kernel run.
func probeKernel() (int64, bool) {
	t0 := threadCPUNs()
	b, err := syscall.Mmap(-1, 0, probePages*4096, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, false
	}
	const madvNoHugepage = 15
	_ = syscall.Madvise(b, madvNoHugepage) // advice only: without it a huge page would make this one fault
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	if err := syscall.Munmap(b); err != nil {
		return 0, false
	}
	ns := threadCPUNs() - t0
	return ns, t0 != 0 && ns > 0
}
