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
