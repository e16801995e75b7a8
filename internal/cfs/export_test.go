package cfs

import (
	"testing"
	"time"

	"arv/internal/sim"
	"arv/internal/telemetry"
)

// TickRebuild ticks s through the full rebuild path whatever its dirty
// set holds. A scheduler ticked only this way rebuilds its allocation
// every tick: it is the reference the equivalence tests compare the
// production Tick dispatch against.
func (s *Scheduler) TickRebuild(now sim.Time, dt time.Duration) {
	s.allocValid = false
	s.Tick(now, dt)
}

// flightEvents is how many trace events FlightRecorder logs per arm.
const flightEvents = 32

// FlightRecorder registers a cleanup that, once t has failed, logs the
// last flightEvents events of both arms' trace rings, so a divergence
// report shows what each arm did just before it.
func FlightRecorder(t testing.TB, eager, repair *telemetry.Tracer) {
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		for _, arm := range []struct {
			name string
			tr   *telemetry.Tracer
		}{{"eager", eager}, {"repair", repair}} {
			ev := arm.tr.Events()
			if len(ev) > flightEvents {
				ev = ev[len(ev)-flightEvents:]
			}
			t.Logf("flight recorder, %s arm: last %d of %d trace events", arm.name, len(ev), arm.tr.Emitted())
			for _, e := range ev {
				t.Logf("  %v", e)
			}
		}
	})
}
