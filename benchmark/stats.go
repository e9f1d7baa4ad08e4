package main

import (
	"sort"
	"time"
)

// sample is one reported metric: a value as measured, its unit, and the
// number of observations it was computed from.
type sample struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), which is what the driver uses to judge
// run-to-run spread. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// driver's steadiness measure. Fewer than two values have no spread.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianNs times fn (which performs iters operations) reps times and
// returns the median cost of one operation in nanoseconds. Micro-costs
// are reported as a median of repetitions so one preempted repetition
// does not move the number.
func medianNs(reps, iters int, fn func()) float64 {
	per := make([]float64, reps)
	for r := range per {
		start := time.Now()
		fn()
		per[r] = float64(time.Since(start)) / float64(iters)
	}
	return median(per)
}
