package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile with the exclusive
// method of Python's statistics.quantiles(values, n=4) — the method the
// acceptance check uses, so -calibrate prints the same spread.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		if n == 1 {
			return vs[0], vs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j)*4
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return math.Abs((q3 - q1) / m)
}

// tailBeyond is how many samples must lie beyond the reported tail
// percentile for it to be a measurement and not an extreme value.
const tailBeyond = 10

// latencies is a sorted sample of per-operation wall times.
type latencies []time.Duration

func sortedLatencies(ds []time.Duration) latencies {
	s := append(latencies(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// pct returns the nearest-rank p-th percentile.
func (l latencies) pct(p float64) time.Duration {
	if len(l) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(l)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(l) {
		i = len(l) - 1
	}
	return l[i]
}

// tail returns the p99, or the highest lower percentile that still has
// tailBeyond samples above it when the sample is too small for a p99,
// together with the percentile actually reported.
func (l latencies) tail() (time.Duration, float64) {
	n := len(l)
	if n == 0 {
		return 0, 0
	}
	p := 99.0
	if beyond := float64(n) / 100; beyond < tailBeyond {
		p = 100 * (1 - tailBeyond/float64(n))
		if p < 50 {
			p = 50
		}
	}
	return l.pct(p), p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianDur is the median of unsorted durations.
func medianDur(ds []time.Duration) time.Duration {
	return sortedLatencies(ds).pct(50)
}
