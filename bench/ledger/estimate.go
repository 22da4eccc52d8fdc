package main

import (
	"math"
	"sort"
	"time"
)

// opSample is one completed operation of a timed round.
type opSample struct {
	ms     float64 // latency as the client saw it
	cycles uint64  // simulated cycles of the result delivered (simulated or served from cache)
	failed bool    // errored, unexpected status, or result differing from its pin
}

// roundSample is one round: a fixed, identical schedule of operations.
type roundSample struct {
	wall  time.Duration
	ops   []opSample
	calib calibReading // the machine around the round: between the readings before and after it
}

// slowness is the mean slowness of the machine over the rounds.
func slowness(rounds []roundSample) float64 {
	var sum float64
	for _, r := range rounds {
		sum += r.calib.slowness()
	}
	return ratio(sum, float64(len(rounds)))
}

// keepFastest returns the fastest ceil(n/2) rounds by wall time. Rounds
// are identical work, so a slow round measures the machine, not the
// program. This shared box inflates rounds by 15-40 % for seconds to half
// a minute at a time; whatever part of a run falls outside such an
// episode is in the fastest rounds. Across 24 s windows of one long
// series of rounds the fastest half repeats within 7-11 % where the mean
// of all rounds repeats within 12-14 %; keeping only a quarter was no
// steadier over eighty runs, and leaves the percentiles under 100 ops.
func keepFastest(rounds []roundSample) []roundSample {
	sorted := append([]roundSample(nil), rounds...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].wall < sorted[j].wall })
	return sorted[:(len(sorted)+1)/2]
}

// throughput is ops and simulated kilocycles per second of wall time over
// the given rounds.
func throughput(rounds []roundSample) (opsPerS, kcyclesPerS float64) {
	var wall time.Duration
	var ops int
	var cycles uint64
	for _, r := range rounds {
		wall += r.wall
		ops += len(r.ops)
		for _, o := range r.ops {
			cycles += o.cycles
		}
	}
	s := wall.Seconds()
	if s == 0 {
		return 0, 0
	}
	return float64(ops) / s, float64(cycles) / 1000 / s
}

// latencies returns the op latencies of the rounds, sorted ascending.
func latencies(rounds []roundSample) []float64 {
	var ms []float64
	for _, r := range rounds {
		for _, o := range r.ops {
			ms = append(ms, o.ms)
		}
	}
	sort.Float64s(ms)
	return ms
}

// percentile is the nearest-rank percentile of sorted values; 0 when
// there are none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// maxPercentile is the highest percentile a sample of n supports under
// the rule "at least ten samples beyond it".
func maxPercentile(n int) float64 {
	if n <= 10 {
		return 0
	}
	return float64(n-10) / float64(n)
}

// median of unsorted values; 0 when there are none.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartileSpread is (q3-q1)/median with quartiles as Python's
// statistics.quantiles(v, n=4) computes them (exclusive method), the
// spread the acceptance check uses. It needs at least two values.
func quartileSpread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}
