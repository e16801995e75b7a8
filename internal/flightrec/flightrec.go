// Package flightrec is test support for the differential tests: a
// flight recorder that, once a test has failed, logs the last trace
// events of every arm of the comparison, so a divergence report shows
// what each arm did just before it.
package flightrec

import (
	"testing"

	"arv/internal/telemetry"
)

// Events is how many trace events Record logs per arm. A trace ring of
// this size holds everything the recorder will show.
const Events = 32

// Arm names one side of a differential comparison and its trace ring.
type Arm struct {
	Name  string
	Trace *telemetry.Tracer
}

// Record registers a cleanup that, once t has failed, logs the last
// Events trace events of each arm, in the order given.
func Record(t testing.TB, arms ...Arm) {
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		for _, arm := range arms {
			ev := arm.Trace.Events()
			if len(ev) > Events {
				ev = ev[len(ev)-Events:]
			}
			t.Logf("flight recorder, %s arm: last %d of %d trace events", arm.Name, len(ev), arm.Trace.Emitted())
			for _, e := range ev {
				t.Logf("  %v", e)
			}
		}
	})
}
