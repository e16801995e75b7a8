package cfs

import (
	"time"

	"arv/internal/sim"
)

// TickRebuild ticks s through the full rebuild path whatever its dirty
// set holds. A scheduler ticked only this way rebuilds its allocation
// every tick: it is the reference the equivalence tests compare the
// production Tick dispatch against.
func (s *Scheduler) TickRebuild(now sim.Time, dt time.Duration) {
	s.allocValid = false
	s.Tick(now, dt)
}

// CountTopPhases makes every later repair tick of s count which path
// its top-level phase took: n[0] counts full fills, n[1] the dirty-only
// path of an under-subscribed fill.
func (s *Scheduler) CountTopPhases() *[2]int {
	n := new([2]int)
	s.onTopPhase = func(dirtyOnly bool) {
		if dirtyOnly {
			n[1]++
		} else {
			n[0]++
		}
	}
	return n
}
