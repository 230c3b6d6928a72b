package main

import (
	"testing"
	"time"
)

// TestSlowdown pins the conversion every end-to-end time goes through: the
// median probe time inside the interval over the reference, the nearest sample
// when the interval holds none, and 1 when there is nothing to go by.
func TestSlowdown(t *testing.T) {
	epoch := time.Unix(1000, 0)
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	p := &hostProbe{epoch: epoch}
	for i, ns := range []float64{1, 1.5, 2, 9, 1.2} { // × the reference, at 100 ms, 200 ms, …
		p.samples = append(p.samples, probeSample{at: at(100 * (i + 1)).Sub(epoch).Nanoseconds(), ns: int64(ns * referenceProbeNs)})
	}
	for _, c := range []struct {
		name     string
		from, to time.Time
		want     float64
	}{
		{"median of three", at(100), at(400), 1.5},
		{"an outlier does not move it", at(200), at(501), 1.75},
		{"nearest before", at(510), at(900), 1.2},
		{"nearest after", at(0), at(50), 1},
	} {
		if got := p.slowdown(c.from, c.to); got != c.want {
			t.Errorf("%s: slowdown = %v, want %v", c.name, got, c.want)
		}
	}
	if got := (&hostProbe{epoch: epoch}).slowdown(at(0), at(100)); got != 1 {
		t.Errorf("no samples: slowdown = %v, want 1", got)
	}
	if got := (*hostProbe)(nil).slowdown(at(0), at(100)); got != 1 {
		t.Errorf("no probe: slowdown = %v, want 1", got)
	}
}
