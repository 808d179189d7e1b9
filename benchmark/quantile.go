package main

import (
	"sort"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of xs by the "exclusive" method: rank
// h = (n+1)·q, interpolated between the two order statistics around it,
// with the pair clamped to the ends of the sample (so a rank outside it
// extrapolates). It is the method Python's statistics.quantiles uses by
// default, so these quartiles agree with any script that checks the
// benchmark's spread.
func quantile(xs []float64, q float64) float64 {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	h := float64(len(s)+1) * q
	j := int(h)
	j = max(1, min(j, len(s)-1))
	return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile of xs.
func quartiles(xs []float64) (q1, q3 float64) { return quantile(xs, 0.25), quantile(xs, 0.75) }

// tailQuantiles are the percentiles a tail is reported at, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.9, 0.5}

// tail picks the highest of tailQuantiles that has at least ten samples
// beyond it, and its value. When even the median has fewer than ten
// samples above it, it returns q = 1 and the maximum.
func tail(xs []float64) (q, v float64) {
	n := float64(len(xs))
	for _, q := range tailQuantiles {
		if int(n*(1-q)+1e-9) >= 10 {
			return q, quantile(xs, q)
		}
	}
	if len(xs) == 0 {
		return 1, 0
	}
	s := sorted(xs)
	return 1, s[len(s)-1]
}

// msOf converts durations to float milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
