//go:build !linux

package main

import "time"

var processStart = time.Now()

// cpuNow falls back to wall time where the process CPU clock is not
// wired up; numbers from such a machine are wall times.
func cpuNow() time.Duration { return time.Since(processStart) }
