package sysns_test

import (
	"fmt"
	"testing"
	"time"

	"arv/internal/container"
	"arv/internal/faults"
	"arv/internal/flightrec"
	"arv/internal/host"
	"arv/internal/units"
	"arv/internal/workloads"
)

// buildDifferentialHost constructs one of a mirrored pair: identical
// seeds, containers, workloads, and fault schedule, differing only in
// the monitor's recompute path. With fullWalk set the monitor is the
// test-only full-walk reference (UseFullWalk). eventShards is passed as
// the deprecated Config.EventShards, which the benchmarks still set and
// the host ignores: every host queues its cgroup events in one FIFO
// either way. Because the fault layer draws from its own seeded RNG and the monitor path never
// consumes randomness, the two hosts see byte-identical event and churn
// schedules — any divergence in view state is the production path's
// fault. The host's trace ring is sized for the flight recorder.
func buildDifferentialHost(fullWalk bool, eventShards int) *host.Host {
	h := host.New(host.Config{
		CPUs:        8,
		Memory:      16 * units.GiB,
		Seed:        11,
		EventShards: eventShards,
	})
	if fullWalk {
		h.Monitor.UseFullWalk()
	}
	h.EnableTelemetry(flightrec.Events)
	inj := faults.Attach(h, faults.Config{
		Seed:             5,
		EventDropProb:    0.3,
		EventDelay:       8 * time.Millisecond,
		EventDelayJitter: 0.5,
		UpdateLag:        3 * time.Millisecond,
		UpdateLagJitter:  0.5,
		UpdateMissProb:   0.2,
	})
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("c%d", i)
		c := h.Runtime.Create(container.Spec{
			Name:      name,
			CPUShares: int64(512 + 256*i),
			MemHard:   units.Bytes(1+i%3) * units.GiB,
			MemSoft:   units.Bytes(1+i%3) * units.GiB / 2,
		})
		c.Exec("app")
		workloads.NewSysbench(h, c, 1+i%3, 5.0).Start()
		inj.StartChurn(faults.ChurnRule{
			Target:       name,
			Interval:     40 * time.Millisecond,
			Jitter:       0.4,
			MinQuotaCPUs: 1,
			MaxQuotaCPUs: 6,
			MinMemHard:   1 * units.GiB,
			MaxMemHard:   4 * units.GiB,
			SoftFrac:     0.5,
		})
	}
	inj.ScheduleKill(faults.KillRule{
		Target:       "c2",
		At:           300 * time.Millisecond,
		Restart:      true,
		RestartDelay: 40 * time.Millisecond,
	})
	return h
}

// compareUnderFaults runs a production host and the full-walk reference
// side by side, sampling every 25 simulated milliseconds: every
// namespace's CPU bounds, effective CPU, and effective memory must match
// at every sample. On both hosts limit events queue until a read
// boundary delivers them; the production monitor's subtree work and
// deferred Σw_j pass land there, while the reference rebuilds from live
// state at every delivered trigger. On failure the last trace events of
// both hosts are logged.
func compareUnderFaults(t *testing.T, eventShards int) {
	hA := buildDifferentialHost(false, eventShards)
	hB := buildDifferentialHost(true, 0)
	flightrec.Record(t, flightrec.Arm{Name: "production", Trace: hA.Trace}, flightrec.Arm{Name: "full-walk", Trace: hB.Trace})

	for step := 0; step < 40; step++ {
		hA.Run(25 * time.Millisecond)
		hB.Run(25 * time.Millisecond)

		ctrsA, ctrsB := hA.Runtime.Containers(), hB.Runtime.Containers()
		if len(ctrsA) != len(ctrsB) {
			t.Fatalf("sample %d: container counts diverged: %d vs %d", step, len(ctrsA), len(ctrsB))
		}
		byName := make(map[string]*container.Container, len(ctrsB))
		for _, c := range ctrsB {
			byName[c.Name] = c
		}
		for _, a := range ctrsA {
			b := byName[a.Name]
			if b == nil {
				t.Fatalf("sample %d: %s live on the production host only", step, a.Name)
			}
			if (a.NS == nil) != (b.NS == nil) {
				t.Fatalf("sample %d: %s namespace presence diverged", step, a.Name)
			}
			if a.NS == nil {
				continue
			}
			al, au := a.NS.CPUBounds()
			bl, bu := b.NS.CPUBounds()
			if al != bl || au != bu {
				t.Fatalf("sample %d: %s bounds diverged: production [%d,%d], full walk [%d,%d]",
					step, a.Name, al, au, bl, bu)
			}
			if ea, eb := a.NS.EffectiveCPU(), b.NS.EffectiveCPU(); ea != eb {
				t.Fatalf("sample %d: %s E_CPU diverged: production %d, full walk %d", step, a.Name, ea, eb)
			}
			if ma, mb := a.NS.EffectiveMemory(), b.NS.EffectiveMemory(); ma != mb {
				t.Fatalf("sample %d: %s E_MEM diverged: production %d, full walk %d", step, a.Name, ma, mb)
			}
		}
	}
}

// TestIncrementalMatchesFullUnderFaults is the end-to-end differential
// check for the monitor's recompute protocol: two full hosts under an
// aggressive fault mix — dropped and delayed limit events, lagged and
// missed update rounds, per-container limit churn, and a kill-restart —
// compared with compareUnderFaults, including across the
// suppression-recovery path (dropped events force the cache to
// resynchronize at the next delivered trigger, the same instant the
// full walk absorbs the lost change).
func TestIncrementalMatchesFullUnderFaults(t *testing.T) {
	compareUnderFaults(t, 0)
}

// TestShardedMatchesFullUnderFaults is the same differential with the
// production host built the way the benchmarks build theirs, with the
// deprecated EventShards set. The field must stay inert: the host still
// delivers through the one FIFO and matches the reference exactly.
func TestShardedMatchesFullUnderFaults(t *testing.T) {
	compareUnderFaults(t, 8)
}
