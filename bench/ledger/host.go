package main

import (
	"bufio"
	"crypto/sha256"
	"math"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's high-water resident set (VmHWM) from
// /proc/self/status.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}

// calibrator times two fixed kernels that no change to the repository
// can move: a compute-bound one (SHA-256 over a buffer that stays in
// cache) and a memory-bound one (random lookups in a map larger than the
// per-core cache). This shared box changes speed for minutes at a time:
// the memory-bound reading goes from 27 ms to 50 ms and more while the
// compute-bound one stands still at 18 ms, and every workload slows down
// with the first. On one binary, two sets of ten sim_retry runs taken
// twenty minutes apart read 5.9 and 9.5 ops/s on the clock, a distance no
// bound the benchmark may set covers. A reading taken beside every round
// says how slow the machine was for that round; the timing metrics are
// the clock's values divided by that, and the clock's values are printed
// beside them. README.md has the runs behind this.
//
// Both of the calibrator's buffers hold no pointers and never change
// size: the collector does not scan them, and they add the same 11 MiB
// to the heap on every run of every commit.
type calibrator struct {
	buf   []byte
	table map[uint64]uint64
	sink  uint64
}

// calibReading is one sample of both kernels.
type calibReading struct{ compute, memory time.Duration }

const (
	// The reference machine: this box on a quiet minute. slowness is a
	// product of powers, so the two times fix its scale and nothing else:
	// the ratio between two runs' slowness is the same whatever they are.
	calibComputeRef = 17500 * time.Microsecond
	calibMemoryRef  = 25 * time.Millisecond
	// calibMemoryShare is how much of a workload's time moves with the
	// memory-bound reading. Fitted once over eighty runs of the seed code
	// (serve_hot and sweep_cold fit 0.4-0.5 best, the sims 0.6-0.7) and
	// then fixed for every workload. The two shares add up to 1, so a
	// machine that is slower by one factor in everything (a stolen core,
	// a lower clock) reads exactly that factor.
	calibMemoryShare = 0.5
)

// slowness is how much longer than on the reference machine work took
// on the machine the reading saw: 1 on the reference machine.
func (r calibReading) slowness() float64 {
	return math.Pow(r.memory.Seconds()/calibMemoryRef.Seconds(), calibMemoryShare) *
		math.Pow(r.compute.Seconds()/calibComputeRef.Seconds(), 1-calibMemoryShare)
}

// between is the reading halfway between two.
func (r calibReading) between(o calibReading) calibReading {
	return calibReading{compute: (r.compute + o.compute) / 2, memory: (r.memory + o.memory) / 2}
}

const (
	calibTableSize = 1 << 18
	calibHashes    = 6       // per part
	calibLookups   = 1 << 18 // per part
	calibParts     = 4
)

func newCalibrator() *calibrator {
	c := &calibrator{buf: make([]byte, 1<<20), table: make(map[uint64]uint64, calibTableSize)}
	for i := uint64(0); i < calibTableSize; i++ {
		c.table[i*8] = i
	}
	return c
}

// read times each kernel in calibParts equal parts and reports the
// fastest part of each, scaled to the whole: a reading is a few tens of
// milliseconds, and one preemption inside it would otherwise pass for a
// slow machine.
func (c *calibrator) read() calibReading {
	fastest := func(part func()) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < calibParts; i++ {
			t0 := time.Now()
			part()
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best * calibParts
	}
	compute := fastest(func() {
		for i := 0; i < calibHashes; i++ {
			sum := sha256.Sum256(c.buf)
			copy(c.buf, sum[:])
		}
	})
	x := uint64(88172645463325252)
	lookups := func() {
		for i := 0; i < calibLookups; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			c.sink += c.table[(x%calibTableSize)*8]
		}
	}
	// The round that just ended left the caches in its own state: walk
	// part of the table untimed first, so every reading starts alike.
	lookups()
	return calibReading{compute: compute, memory: fastest(lookups)}
}
