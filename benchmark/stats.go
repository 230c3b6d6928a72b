package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs, 0 when
// xs is empty. It sorts xs in place.
func percentile(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// supported reports whether xs has at least ten samples beyond its
// p-quantile — the rule for which tail percentile a sample may speak for.
func supported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

// quartiles returns the first, second and third quartile of xs by the
// exclusive method, the same numbers Python's statistics.quantiles(xs, n=4)
// gives. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }
