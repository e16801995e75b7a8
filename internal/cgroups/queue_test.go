package cgroups

import (
	"testing"

	"arv/internal/units"
)

// TestQueueDefersInFIFOOrder pins the deferral semantics: no subscriber
// sees an event until Drain, Queued counts the backlog exactly, and one
// Drain delivers everything in publication order across cgroups.
func TestQueueDefersInFIFOOrder(t *testing.T) {
	h := newHier()
	var got []Event
	h.Subscribe(func(e Event) { got = append(got, e) })

	a := h.Create("a")
	b := h.Create("b")
	a.SetShares(2048)
	b.SetQuota(200_000, 100_000)
	h.Remove(b)

	if len(got) != 0 {
		t.Fatalf("%d events delivered before Drain", len(got))
	}
	if q := h.Queued(); q != 5 {
		t.Fatalf("Queued() = %d before drain, want 5", q)
	}
	h.Drain()
	if q := h.Queued(); q != 0 {
		t.Fatalf("Queued() = %d after drain, want 0", q)
	}
	want := []Event{{Created, a}, {Created, b}, {CPUChanged, a}, {CPUChanged, b}, {Removed, b}}
	if len(got) != len(want) {
		t.Fatalf("drain delivered %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %v %s, want %v %s", i, got[i].Kind, got[i].Cgroup.Name, want[i].Kind, want[i].Cgroup.Name)
		}
	}
}

// TestDrainReentrancy drives a subscriber that publishes further events
// while a drain is running: the same Drain must deliver the follow-on
// events after everything queued before them, and a nested Drain call
// from inside a subscriber must be a guarded no-op rather than a
// reordering or an infinite loop.
func TestDrainReentrancy(t *testing.T) {
	h := newHier()
	var kinds []EventKind
	reacted := false
	var cg *Cgroup
	h.Subscribe(func(e Event) {
		kinds = append(kinds, e.Kind)
		if e.Kind == CPUChanged && !reacted {
			reacted = true
			cg.SetMemLimits(2*units.GiB, units.GiB) // enqueues during drain
			h.Drain()                               // re-entrant: must no-op
		}
	})
	cg = h.Create("c")
	cg.SetShares(512)
	cg.SetCpuset(2)
	h.Drain()
	want := []EventKind{Created, CPUChanged, CPUChanged, MemChanged}
	if len(kinds) != len(want) {
		t.Fatalf("drain delivered kinds %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("drain delivered kinds %v, want %v", kinds, want)
		}
	}
	if h.Queued() != 0 {
		t.Fatalf("Queued() = %d after re-entrant drain, want 0", h.Queued())
	}
}

// TestInterceptorSynchronous pins the fault-layer contract: the
// interceptor is consulted at publication time, before any queueing, so
// a drop decision suppresses the event entirely and Suppressed moves
// immediately — the queue defers delivery, never the fault decision.
func TestInterceptorSynchronous(t *testing.T) {
	h := newHier()
	var delivered int
	h.Subscribe(func(Event) { delivered++ })
	cg := h.Create("c")
	h.Drain()
	delivered = 0

	var offered int
	h.Intercept(func(Event) bool { offered++; return false })
	cg.SetShares(256)
	if offered != 1 || h.Suppressed() != 1 {
		t.Fatalf("interceptor offered %d events, Suppressed() = %d after one publish; want 1 and 1", offered, h.Suppressed())
	}
	if h.Queued() != 0 {
		t.Fatalf("Queued() = %d: a suppressed event was queued anyway", h.Queued())
	}
	h.Intercept(nil)
	h.Drain()
	if delivered != 0 {
		t.Fatalf("drain delivered %d events, want 0 (the only publish was suppressed)", delivered)
	}
}
