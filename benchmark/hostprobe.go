package main

import (
	"runtime"
	"sync"
	"time"

	"cisgraph/internal/stats"
)

const (
	probePages = 512
	probeEvery = 125 * time.Millisecond
	// referenceProbeNs is what the probe kernel costs on the reference box in
	// its quiet state; README.md, "Reference-host time", says how it was taken.
	referenceProbeNs = 1100e3
)

// probeSample is one timing of the probe kernel.
type probeSample struct{ at, ns int64 } // at: ns since the run's epoch

// hostProbe measures how fast the host is running right now. The box is a
// slice of a shared machine whose effective speed moves by a quarter or more
// for minutes at a time, kernel- and memory-heavy code most and pure ALU code
// hardly; the probe kernel — map 2 MiB, touch every page, unmap — is of the
// first kind, like the daemon, and its thread CPU time follows the daemon's
// slow-downs one for one (README.md has the measurements).
type hostProbe struct {
	epoch   time.Time
	quit    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples []probeSample
}

func startHostProbe(iso *isolation) *hostProbe {
	p := &hostProbe{epoch: time.Now(), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		// Thread CPU time needs one thread from start to end of a sample.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		// On a daemon CPU, where the slow-downs it is to follow happen; its
		// CPU time does not count the moments the daemon holds that CPU.
		iso.joinDaemonCPUs()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			if ns, ok := probeKernel(); ok {
				p.mu.Lock()
				p.samples = append(p.samples, probeSample{at: time.Since(p.epoch).Nanoseconds(), ns: ns})
				p.mu.Unlock()
			}
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// stop ends the sampling and returns once the sampling goroutine has ended.
func (p *hostProbe) stop() {
	close(p.quit)
	<-p.done
}

// slowdown is the host's speed over [from, to) relative to the reference: the
// median probe time there over the reference time, 1.25 when everything takes
// a quarter longer. With no sample in the interval it falls back to the
// nearest one, and to 1 when the probe never ran.
func (p *hostProbe) slowdown(t0, t1 time.Time) float64 {
	if p == nil {
		return 1 // the traced run reports raw numbers
	}
	from, to := t0.Sub(p.epoch).Nanoseconds(), t1.Sub(p.epoch).Nanoseconds()
	p.mu.Lock()
	defer p.mu.Unlock()
	var in []float64
	for _, s := range p.samples {
		if s.at >= from && s.at < to {
			in = append(in, float64(s.ns))
		}
	}
	if len(in) == 0 {
		best, gap := 0.0, int64(-1)
		for _, s := range p.samples {
			if d := max(from-s.at, s.at-to); gap < 0 || d < gap {
				best, gap = float64(s.ns), d
			}
		}
		if gap < 0 {
			return 1
		}
		in = []float64{best}
	}
	return stats.Median(in) / referenceProbeNs
}
