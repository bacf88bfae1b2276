package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// minSamples is the sample count that gives p90 its minBeyond samples
// above it; the warm and serve workloads keep issuing requests until they
// have this many of each kind.
const minSamples = 100

// percentile returns the nearest-rank q-quantile of xs and whether at
// least minBeyond samples lie above it.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return s[i], len(s)-1-i >= minBeyond
}

// reportedPercentile is the value reported for the q-quantile: the
// percentile itself when at least minBeyond samples lie above it, and
// otherwise the sample maximum, which bounds the percentile from above.
// The second result says which of the two it is.
func reportedPercentile(xs []float64, q float64) (float64, bool) {
	v, ok := percentile(xs, q)
	if ok {
		return v, true
	}
	m, _ := percentile(xs, 1)
	return m, false
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20
