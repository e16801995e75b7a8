package faults

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"arv/internal/container"
	"arv/internal/host"
	"arv/internal/sim"
	"arv/internal/telemetry"
	"arv/internal/units"
	"arv/internal/workloads"
)

// dispatches are the host configurations every test here runs under:
// the library default, and the one the benchmarks build, which still
// sets the deprecated EventShards. Every host delivers cgroup events
// through one deferred FIFO whatever EventShards says, so a fault's
// observable effect must not differ between them. The subtest names are
// kept from when the two configurations selected different dispatch
// modes, so test IDs stay stable.
var dispatches = []struct {
	name   string
	shards int
}{{"sync", 0}, {"shards=8", 8}}

// forEachDispatch runs test once per host configuration, as a subtest,
// with a constructor for the tests' host under it.
func forEachDispatch(t *testing.T, test func(t *testing.T, newHost func() *host.Host)) {
	for _, d := range dispatches {
		t.Run(d.name, func(t *testing.T) {
			test(t, func() *host.Host {
				return host.New(host.Config{CPUs: 4, Memory: 8 * units.GiB, Seed: 7, EventShards: d.shards})
			})
		})
	}
}

// runWorkload executes a fixed mixed workload — two containers, two
// sysbench runs, a mid-run quota change and a mid-run memory-limit
// change — and returns the final snapshot rendering, all counters, and
// the full event trace.
func runWorkload(newHost func() *host.Host, withInjector bool) (string, map[string]uint64, []telemetry.Event) {
	h := newHost()
	tr := h.EnableTelemetry(1 << 14)
	if withInjector {
		Attach(h, Config{})
	}
	a := h.Runtime.Create(container.Spec{Name: "a", CPUQuotaUS: 200_000})
	a.Exec("app")
	b := h.Runtime.Create(container.Spec{Name: "b"})
	b.Exec("app")
	workloads.NewSysbench(h, a, 2, 1.0).Start()
	workloads.NewSysbench(h, b, 4, 2.0).Start()
	h.Clock.After(100*time.Millisecond, func(sim.Time) { a.Cgroup.SetQuotaCPUs(3) })
	h.Clock.After(250*time.Millisecond, func(sim.Time) { b.Cgroup.SetMemLimits(2*units.GiB, units.GiB) })
	h.Run(2 * time.Second)
	var buf bytes.Buffer
	h.Snapshot().WriteTo(&buf)
	return buf.String(), tr.Counters(), tr.Events()
}

// A zero-config injector must be invisible: no RNG draws, no counter
// movement, no trace divergence — the run is byte-identical to one with
// no injector attached at all.
func TestZeroFaultInjectorIsByteIdentical(t *testing.T) {
	forEachDispatch(t, func(t *testing.T, newHost func() *host.Host) {
		snapA, ctrsA, evsA := runWorkload(newHost, false)
		snapB, ctrsB, evsB := runWorkload(newHost, true)
		if snapA != snapB {
			t.Fatalf("snapshots diverge:\n--- without injector ---\n%s--- with injector ---\n%s", snapA, snapB)
		}
		if !reflect.DeepEqual(ctrsA, ctrsB) {
			t.Fatalf("counters diverge:\nwithout: %v\nwith:    %v", ctrsA, ctrsB)
		}
		if !reflect.DeepEqual(evsA, evsB) {
			t.Fatalf("event traces diverge: %d vs %d events", len(evsA), len(evsB))
		}
	})
}

// With drop probability 1 every limit-change event is suppressed, so
// the counter equals the scripted change count exactly and the
// namespace bounds go stale until faults are lifted.
func TestEventDropExactCountersAndStaleBounds(t *testing.T) {
	forEachDispatch(t, func(t *testing.T, newHost func() *host.Host) {
		h := newHost()
		tr := h.EnableTelemetry(0)
		inj := Attach(h, Config{EventDropProb: 1})
		ctr := h.Runtime.Create(container.Spec{Name: "a"})
		ctr.Exec("app")

		ctr.Cgroup.SetQuotaCPUs(2)
		ctr.Cgroup.SetShares(2048)
		ctr.Cgroup.SetMemLimits(2*units.GiB, units.GiB)
		if got := tr.Count(telemetry.CtrEventsDropped); got != 3 {
			t.Fatalf("events_dropped = %d, want 3", got)
		}
		if _, upper := ctr.NS.CPUBounds(); upper != 4 {
			t.Fatalf("upper = %d after dropped events, want stale 4", upper)
		}

		inj.SetEventFaults(0, 0, 0)
		ctr.Cgroup.SetQuotaCPUs(2) // delivered: recomputes from live values
		if _, upper := ctr.NS.CPUBounds(); upper != 2 {
			t.Fatalf("upper = %d after delivered event, want 2", upper)
		}
		if got := tr.Count(telemetry.CtrEventsDropped); got != 3 {
			t.Fatalf("events_dropped moved to %d after faults lifted", got)
		}
	})
}

// A delayed event leaves the view stale for exactly the delay, then
// lands.
func TestEventDelayDefersRecompute(t *testing.T) {
	forEachDispatch(t, func(t *testing.T, newHost func() *host.Host) {
		h := newHost()
		tr := h.EnableTelemetry(0)
		Attach(h, Config{EventDelay: 50 * time.Millisecond})
		ctr := h.Runtime.Create(container.Spec{Name: "a"})
		ctr.Exec("app")

		ctr.Cgroup.SetQuotaCPUs(2)
		if _, upper := ctr.NS.CPUBounds(); upper != 4 {
			t.Fatalf("upper = %d immediately after deferred event, want stale 4", upper)
		}
		h.Run(60 * time.Millisecond)
		if _, upper := ctr.NS.CPUBounds(); upper != 2 {
			t.Fatalf("upper = %d after redelivery, want 2", upper)
		}
		if got := tr.Count(telemetry.CtrEventsDelayed); got != 1 {
			t.Fatalf("events_delayed = %d, want 1", got)
		}
	})
}

// With miss probability 1 no periodic round ever runs: the miss counter
// moves, the update counter does not.
func TestUpdateMissSuppressesAllRounds(t *testing.T) {
	forEachDispatch(t, func(t *testing.T, newHost func() *host.Host) {
		h := newHost()
		tr := h.EnableTelemetry(0)
		Attach(h, Config{UpdateMissProb: 1})
		ctr := h.Runtime.Create(container.Spec{Name: "a"})
		ctr.Exec("app")

		h.Run(500 * time.Millisecond)
		if got := tr.Count(telemetry.CtrUpdatesMissed); got == 0 {
			t.Fatal("updates_missed = 0, want > 0")
		}
		if got := tr.Count(telemetry.CtrNSUpdates); got != 0 {
			t.Fatalf("sysns.updates = %d with all rounds missed, want 0", got)
		}
		if got := ctr.NS.Updates(); got != 0 {
			t.Fatalf("namespace updates = %d, want 0", got)
		}
	})
}

// Update lag postpones rounds without losing them: every lagged round
// eventually runs (at most one may still be in flight at cutoff).
func TestUpdateLagPostponesRounds(t *testing.T) {
	forEachDispatch(t, func(t *testing.T, newHost func() *host.Host) {
		h := newHost()
		tr := h.EnableTelemetry(0)
		Attach(h, Config{UpdateLag: 10 * time.Millisecond})
		ctr := h.Runtime.Create(container.Spec{Name: "a"})
		ctr.Exec("app")

		h.Run(500 * time.Millisecond)
		lagged := tr.Count(telemetry.CtrUpdatesLagged)
		ran := ctr.NS.Updates()
		if lagged == 0 {
			t.Fatal("updates_lagged = 0, want > 0")
		}
		if ran != lagged && ran != lagged-1 {
			t.Fatalf("namespace ran %d rounds, %d were lagged: want equal (mod one in flight)", ran, lagged)
		}
	})
}

// A bounded churn rule fires exactly Count times, and every written
// quota stays inside the configured range.
func TestChurnExactCountAndRange(t *testing.T) {
	forEachDispatch(t, func(t *testing.T, newHost func() *host.Host) {
		h := newHost()
		tr := h.EnableTelemetry(0)
		inj := Attach(h, Config{Seed: 3})
		ctr := h.Runtime.Create(container.Spec{Name: "a"})
		ctr.Exec("app")

		inj.StartChurn(ChurnRule{
			Target:       "a",
			Interval:     50 * time.Millisecond,
			MinQuotaCPUs: 1,
			MaxQuotaCPUs: 3,
			Count:        4,
		})
		h.Run(time.Second)
		if got := tr.Count(telemetry.CtrLimitChurns); got != 4 {
			t.Fatalf("limit_churns = %d, want exactly 4", got)
		}
		if q := ctr.Cgroup.CPU.QuotaUS; q < 100_000 || q > 300_000 {
			t.Fatalf("final quota %d outside churn range [100000, 300000]", q)
		}
	})
}

// Kill-and-restart: the victim's workload self-terminates instead of
// panicking in the scheduler, and the restarted container is live with
// the same spec.
func TestKillAndRestart(t *testing.T) {
	forEachDispatch(t, func(t *testing.T, newHost func() *host.Host) {
		h := newHost()
		tr := h.EnableTelemetry(0)
		inj := Attach(h, Config{})
		ctr := h.Runtime.Create(container.Spec{Name: "victim", CPUQuotaUS: 200_000})
		ctr.Exec("app")
		workloads.NewSysbench(h, ctr, 2, 10.0).Start() // far more work than the run allows

		var restarted *container.Container
		inj.ScheduleKill(KillRule{
			Target:       "victim",
			At:           100 * time.Millisecond,
			Restart:      true,
			RestartDelay: 50 * time.Millisecond,
			OnRestart:    func(nc *container.Container) { restarted = nc },
		})
		h.Run(300 * time.Millisecond)

		if got := tr.Count(telemetry.CtrKills); got != 1 {
			t.Fatalf("kills = %d, want 1", got)
		}
		if restarted == nil {
			t.Fatal("OnRestart never ran")
		}
		if restarted.State() != container.Running {
			t.Fatalf("restarted container state = %v, want running", restarted.State())
		}
		if restarted.Spec.CPUQuotaUS != 200_000 {
			t.Fatalf("restarted quota = %d, want the original 200000", restarted.Spec.CPUQuotaUS)
		}
		live := h.Runtime.Containers()
		if len(live) != 1 || live[0].Name != "victim" {
			t.Fatalf("live containers = %v, want exactly the restarted victim", live)
		}
		if h.Programs() != 0 {
			t.Fatalf("%d programs still registered; the killed sysbench must retire", h.Programs())
		}
		var sawRestart bool
		for _, e := range tr.EventsOf(telemetry.KindFault) {
			if e.Actor == "restart" {
				sawRestart = true
			}
		}
		if !sawRestart {
			t.Fatal("no restart trace event")
		}
	})
}

// The fault schedule is a pure function of the injector seed.
func TestFaultScheduleDeterministicPerSeed(t *testing.T) {
	forEachDispatch(t, func(t *testing.T, newHost func() *host.Host) {
		run := func(seed uint64) []telemetry.Event {
			h := newHost()
			tr := h.EnableTelemetry(1 << 14)
			inj := Attach(h, Config{Seed: seed, EventDropProb: 0.5, EventDelay: 5 * time.Millisecond, EventDelayJitter: 0.5})
			ctr := h.Runtime.Create(container.Spec{Name: "a"})
			ctr.Exec("app")
			inj.StartChurn(ChurnRule{
				Target:       "a",
				Interval:     20 * time.Millisecond,
				Jitter:       0.5,
				MinQuotaCPUs: 1,
				MaxQuotaCPUs: 4,
				Count:        16,
			})
			h.Run(2 * time.Second)
			return tr.EventsOf(telemetry.KindFault)
		}
		a1, a2, b := run(3), run(3), run(4)
		if !reflect.DeepEqual(a1, a2) {
			t.Fatalf("same seed, different fault schedule: %d vs %d events", len(a1), len(a2))
		}
		if reflect.DeepEqual(a1, b) {
			t.Fatal("different seeds produced an identical fault schedule")
		}
	})
}

// Staleness budget: when all update rounds are missed, the view ages
// past the budget, the conservative fallback engages, and the first
// clean round clears it.
func TestStalenessFallbackEngagesAndClears(t *testing.T) {
	forEachDispatch(t, func(t *testing.T, newHost func() *host.Host) {
		h := newHost()
		tr := h.EnableTelemetry(0)
		inj := Attach(h, Config{UpdateMissProb: 1})
		h.Monitor.SetDegradation(100*time.Millisecond, 0)
		ctr := h.Runtime.Create(container.Spec{Name: "a"})
		ctr.Exec("a")

		h.Run(200 * time.Millisecond)
		if !ctr.NS.Degraded() {
			t.Fatal("namespace not degraded after aging past the budget")
		}
		lower, _ := ctr.NS.CPUBounds()
		if got := ctr.NS.EffectiveCPU(); got != lower {
			t.Fatalf("degraded E_CPU = %d, want lower bound %d", got, lower)
		}
		if tr.Count(telemetry.CtrStaleFallbacks) == 0 {
			t.Fatal("staleness_fallbacks = 0, want > 0")
		}

		inj.SetMonitorFaults(0, 0, 0)
		h.Run(100 * time.Millisecond)
		if ctr.NS.Degraded() {
			t.Fatal("namespace still degraded after a clean update round")
		}
	})
}

// Resync repairs bounds drift caused by dropped events and backs its
// interval off when no drift is found.
func TestResyncRepairsDroppedEventDrift(t *testing.T) {
	forEachDispatch(t, func(t *testing.T, newHost func() *host.Host) {
		h := newHost()
		tr := h.EnableTelemetry(0)
		inj := Attach(h, Config{EventDropProb: 1})
		h.Monitor.SetDegradation(0, 50*time.Millisecond)
		ctr := h.Runtime.Create(container.Spec{Name: "a"})
		ctr.Exec("a")

		ctr.Cgroup.SetQuotaCPUs(2) // dropped
		if _, upper := ctr.NS.CPUBounds(); upper != 4 {
			t.Fatalf("upper = %d, want stale 4 before resync", upper)
		}
		h.Run(100 * time.Millisecond)
		if _, upper := ctr.NS.CPUBounds(); upper != 2 {
			t.Fatalf("upper = %d, want 2 after resync repair", upper)
		}
		if tr.Count(telemetry.CtrRecomputeRetries) == 0 {
			t.Fatal("recompute_retries = 0, want > 0")
		}
		inj.SetEventFaults(0, 0, 0)

		// With no further drift the retry interval doubles: intervals in the
		// KindResync trace must be non-decreasing after the repair.
		h.Run(2 * time.Second)
		evs := tr.EventsOf(telemetry.KindResync)
		if len(evs) < 3 {
			t.Fatalf("only %d resync events, want >= 3", len(evs))
		}
		var last int64
		for _, e := range evs[1:] { // evs[0] may be the drift-reset pass
			if e.A == 1 {
				continue
			}
			if e.B < last {
				t.Fatalf("resync interval shrank without drift: %v", evs)
			}
			last = e.B
		}
	})
}
