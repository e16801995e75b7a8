package cfs_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"arv/internal/cfs"
	"arv/internal/container"
	"arv/internal/faults"
	"arv/internal/flightrec"
	"arv/internal/host"
	"arv/internal/sim"
	"arv/internal/telemetry"
	"arv/internal/units"
	"arv/internal/workloads"
)

// rebuildEveryTick stands in for a host's scheduler subsystem and ticks
// it through the rebuild-every-tick reference (cfs.Scheduler.TickRebuild).
type rebuildEveryTick struct{ *cfs.Scheduler }

func (r rebuildEveryTick) Tick(now sim.Time, dt time.Duration) { r.TickRebuild(now, dt) }

// buildFaultMixHost assembles the differential scenario: a host with
// flat containers and one pod, CPU-bound workloads, and every fault
// class armed — limit churn, event drop/delay, monitor lag/miss, and a
// kill/restart cycle. The schedule is a pure function of the seeds, so
// two hosts built with the same arguments see identical perturbation
// streams and any state divergence is the scheduler protocol's. With
// reference set, the host's scheduler rebuilds every tick.
func buildFaultMixHost(t *testing.T, reference bool) (*host.Host, []*container.Container) {
	h := host.New(host.Config{
		CPUs:   16,
		Memory: 64 * units.GiB,
		Seed:   7,
	})
	if reference {
		// The kernel loop drives the subsystems through this slice.
		ss := h.Subsystems()
		if ss[0] != host.Subsystem(h.Sched) {
			t.Fatalf("scheduler is not the first subsystem: %s", ss[0].SubsystemName())
		}
		ss[0] = rebuildEveryTick{h.Sched}
	}

	var ctrs []*container.Container
	for i := 0; i < 6; i++ {
		c := h.Runtime.Create(container.Spec{
			Name:      fmt.Sprintf("c%d", i),
			CPUShares: int64(512 + 256*(i%3)),
			MemHard:   2 * units.GiB,
			MemSoft:   1 * units.GiB,
		})
		c.Exec("app")
		workloads.NewSysbench(h, c, 1+i%3, 1e9).Start()
		ctrs = append(ctrs, c)
	}
	pod := h.Runtime.CreatePod(container.PodSpec{Name: "pod"})
	for i := 0; i < 2; i++ {
		c := h.Runtime.CreateInPod(pod, container.Spec{
			Name:      fmt.Sprintf("p%d", i),
			CPUShares: 1024,
			MemHard:   2 * units.GiB,
			MemSoft:   1 * units.GiB,
		})
		c.Exec("app")
		workloads.NewSysbench(h, c, 2, 1e9).Start()
		ctrs = append(ctrs, c)
	}

	inj := faults.Attach(h, faults.Config{
		Seed:             99,
		EventDropProb:    0.1,
		EventDelay:       3 * time.Millisecond,
		EventDelayJitter: 0.5,
		UpdateLag:        2 * time.Millisecond,
		UpdateLagJitter:  0.5,
		UpdateMissProb:   0.05,
	})
	for i := 0; i < 6; i++ {
		inj.StartChurn(faults.ChurnRule{
			Target:       fmt.Sprintf("c%d", i),
			Interval:     40 * time.Millisecond,
			Jitter:       0.4,
			MinQuotaCPUs: 1, MaxQuotaCPUs: 6,
			MinMemHard: 1 * units.GiB, MaxMemHard: 3 * units.GiB,
		})
	}
	inj.ScheduleKill(faults.KillRule{
		Target: "c3", At: 900 * time.Millisecond,
		Restart: true, RestartDelay: 150 * time.Millisecond,
	})
	return h, ctrs
}

// TestRepairMatchesEagerUnderFaultMix is the system-level differential
// lockdown for the scheduler's tick protocol: two full hosts — one whose
// scheduler rebuilds eagerly every tick, one on the production repair
// dispatch — run the same fault-mix schedule, and every sampled
// observable must be bit-identical at every sample point. This is the
// end-to-end complement to the mirror property tests in repair_test.go:
// it routes the comparison through cgroups, ns_monitor, faults, and
// kill/restart container lifecycles rather than direct scheduler calls.
// On failure the last trace events of both hosts are logged.
func TestRepairMatchesEagerUnderFaultMix(t *testing.T) {
	he, ce := buildFaultMixHost(t, true)
	hr, cr := buildFaultMixHost(t, false)
	tre := he.EnableTelemetry(0)
	trr := hr.EnableTelemetry(0)
	flightrec.Record(t, flightrec.Arm{Name: "eager", Trace: tre}, flightrec.Arm{Name: "repair", Trace: trr})

	feq := func(ctx string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s diverged: eager %v (%x) repair %v (%x)",
				ctx, a, math.Float64bits(a), b, math.Float64bits(b))
		}
	}
	sample := func(seg int) {
		t.Helper()
		for i := range ce {
			a, b := ce[i], cr[i]
			ctx := fmt.Sprintf("seg %d %s", seg, a.Name)
			if a.Cgroup == nil || b.Cgroup == nil {
				// c3's kill/restart swaps the Container object out of
				// the runtime; the pre-kill handle goes stale in both
				// hosts identically.
				if (a.Cgroup == nil) != (b.Cgroup == nil) {
					t.Fatalf("%s: lifecycle diverged", ctx)
				}
				continue
			}
			feq(ctx+" usage", float64(a.Cgroup.CPU.Usage()), float64(b.Cgroup.CPU.Usage()))
			feq(ctx+" lastRate", a.Cgroup.CPU.LastRate(), b.Cgroup.CPU.LastRate())
			if a.Cgroup.CPU.ThrottledTime() != b.Cgroup.CPU.ThrottledTime() {
				t.Fatalf("%s throttled time diverged: %v vs %v",
					ctx, a.Cgroup.CPU.ThrottledTime(), b.Cgroup.CPU.ThrottledTime())
			}
			if ae, be := a.NS.EffectiveCPU(), b.NS.EffectiveCPU(); ae != be {
				t.Fatalf("%s E_CPU diverged: %d vs %d", ctx, ae, be)
			}
			al, au := a.NS.CPUBounds()
			bl, bu := b.NS.CPUBounds()
			if al != bl || au != bu {
				t.Fatalf("%s CPU bounds diverged: [%d,%d] vs [%d,%d]", ctx, al, au, bl, bu)
			}
			if am, bm := a.NS.EffectiveMemory(), b.NS.EffectiveMemory(); am != bm {
				t.Fatalf("%s E_MEM diverged: %v vs %v", ctx, am, bm)
			}
		}
		feq(fmt.Sprintf("seg %d slack", seg), he.Sched.SlackLast(), hr.Sched.SlackLast())
		feq(fmt.Sprintf("seg %d loadavg", seg), he.Sched.LoadAvg(), hr.Sched.LoadAvg())
	}

	// Uneven segment lengths land the samples at different phases of
	// the churn and update cadences.
	for seg, span := range []time.Duration{
		120 * time.Millisecond,
		380 * time.Millisecond,
		500 * time.Millisecond, // crosses the kill
		230 * time.Millisecond, // crosses the restart
		770 * time.Millisecond,
	} {
		he.Run(span)
		hr.Run(span)
		sample(seg)
	}

	// The comparison is only meaningful if the repair host actually
	// took the incremental paths (and the reference host never did).
	if n := trr.Count(telemetry.CtrTickRepairs); n == 0 {
		t.Fatalf("repair host recorded no repair ticks")
	}
	if n := tre.Count(telemetry.CtrTickRepairs); n != 0 {
		t.Fatalf("reference host recorded %d repair ticks", n)
	}
}
