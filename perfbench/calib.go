package main

import (
	"fmt"
	"time"
)

// The host's speed drifts: on a shared machine the same run has been
// measured twice as fast an hour later, with every workload moving
// together. So each run also times a fixed calibration kernel, between
// repetitions and from a collected heap, and reports its times scaled
// to a machine on which the kernel takes calRef of CPU time. The kernel
// shares no code with the simulator and allocates nothing, so no change
// to the program can move it; the unscaled times are printed on note
// lines.
const calRef = time.Millisecond

// The kernel's state: an open-addressed table of calKeys slots and a
// value array, about 1 MiB together, so it runs from the L2 cache like
// the simulator's hot state.
const calKeys = 1 << 15

var (
	calTable [calKeys]uint64
	calVals  [calKeys]float64
	calSum   float64
)

// calKernel runs the fixed work: integer hashing with linear probing,
// dependent loads and floating-point accumulation.
func calKernel() {
	clear(calTable[:])
	clear(calVals[:])
	const mask = calKeys - 1
	for i := uint64(1); i <= 200000; i++ {
		key := (i*7919)%20011 + 1
		h := (key * 0x9e3779b97f4a7c15) >> 49
		for calTable[h&mask] != 0 && calTable[h&mask] != key {
			h++
		}
		calTable[h&mask] = key
		calVals[h&mask] = calVals[h&mask]*0.999 + float64(i)*1.0001
	}
	calSum += calVals[1]
}

// calibrate times one kernel run in CPU time.
func calibrate() time.Duration {
	c0 := cpuNow()
	calKernel()
	return cpuNow() - c0
}

// calScale returns the factor that scales this run's times to the
// reference machine, and a note line describing the samples.
func calScale(samples []float64) (float64, string) {
	med := median(samples)
	if med <= 0 {
		return 1, "calibration: no samples, times unscaled"
	}
	return float64(calRef) / med, fmt.Sprintf(
		"calibration: kernel CPU time over %d runs q1=%.0f median=%.0f q3=%.0f ns; times scaled by %.4f",
		len(samples), quantile(samples, 0.25), med, quantile(samples, 0.75), float64(calRef)/med)
}
