package sysns

import (
	"sync/atomic"

	"arv/internal/sim"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// This file implements versioned snapshot publication (DESIGN.md §11):
// ns_monitor periodically freezes every namespace's effective view —
// plus host totals and the cgroup control-file values — into an
// immutable ViewSnapshot and publishes it with a single atomic pointer
// swap. Readers (the fsd HTTP daemon, in-simulation probers) load the
// pointer and resolve entirely against the frozen struct, so the read
// path shares no lock with the simulation's write path.
//
// A snapshot is only ever cut at a consistent post-recompute point:
// immediately after Attach/Detach complete their cache updates and
// bounds recomputation, after a full UpdateAll round, or — for
// event-driven changes coalesced within one kernel tick — in the
// observe phase, after every subsystem and program has run. The §10
// trigger-atomicity rule therefore extends to snapshots: no snapshot
// exposes a half-applied Σw_j or a mid-trigger E_CPU clamp.

// HostInfo is the frozen host-level portion of a snapshot: what the
// init-namespace (unmodified kernel) view reports.
type HostInfo struct {
	// NCPU is the host CPU count.
	NCPU int
	// TotalMemory and FreeMemory are the host's physical memory size
	// and currently free bytes.
	TotalMemory units.Bytes
	FreeMemory  units.Bytes
	// LoadAvg is the scheduler's load average at publication time.
	LoadAvg float64
}

// ContainerView is one container's frozen effective-resource view.
type ContainerView struct {
	// Name is the container (cgroup) name; Pod is the enclosing pod's
	// name, empty for flat containers.
	Name string
	Pod  string
	// State is the container lifecycle state ("created", "running"),
	// supplied by the runtime through Monitor.SetStateProvider; empty
	// when no provider is installed.
	State string

	// EffectiveCPU is E_CPU; LowerCPU and UpperCPU its Algorithm 1
	// bounds.
	EffectiveCPU int
	LowerCPU     int
	UpperCPU     int

	// EffectiveMemory is E_MEM; Resident and Swapped are the cgroup's
	// memory-controller charges at publication time.
	EffectiveMemory units.Bytes
	Resident        units.Bytes
	Swapped         units.Bytes

	// Degraded reports whether the conservative staleness fallback was
	// engaged; Updates counts the namespace's completed update rounds;
	// LastUpdate is when the last round ran.
	Degraded   bool
	Updates    uint64
	LastUpdate sim.Time
}

// CgroupView is one cgroup's frozen control-file values — everything
// sysfs.ReadCgroupView needs to render the administrator-facing files.
// Every live cgroup appears (pods included), not just those with an
// attached namespace.
type CgroupView struct {
	// Name is the cgroup name.
	Name string

	// Shares, QuotaUS, PeriodUS, and CpusetN are the cpu controller's
	// administrator-set knobs.
	Shares   int64
	QuotaUS  int64
	PeriodUS int64
	CpusetN  int
	// ThrottledNS and UsageNS are cumulative throttled time and CPU
	// usage in nanoseconds, as cpu.stat / cpuacct.usage report them.
	ThrottledNS int64
	UsageNS     int64

	// HardLimit and SoftLimit are the memory limits (0 = unlimited);
	// Resident, Swapped, and SubtreeResident the controller's charges;
	// SwapOut and SwapIn its cumulative swap traffic.
	HardLimit       units.Bytes
	SoftLimit       units.Bytes
	Resident        units.Bytes
	Swapped         units.Bytes
	SubtreeResident units.Bytes
	SwapOut         units.Bytes
	SwapIn          units.Bytes
}

// ViewSnapshot is one immutable, versioned picture of every resource
// view on the host. Once published it is never mutated; readers may
// hold it arbitrarily long and see a consistent state. Versions are
// monotone: a reader comparing versions across loads observes
// non-decreasing values.
type ViewSnapshot struct {
	// Version increases by one per publication, starting at 1.
	Version uint64
	// At is the virtual time the snapshot was cut.
	At sim.Time
	// Host is the frozen host view.
	Host HostInfo
	// Containers holds the attached namespaces' views in attach
	// (= creation) order; Cgroups every live cgroup in creation order.
	Containers []ContainerView
	Cgroups    []CgroupView

	// Name indexes, shared across publications while the topology is
	// unchanged (the slices are rebuilt per publication; the maps only
	// when a container or cgroup came or went).
	byName   map[string]int
	cgByName map[string]int
}

// Container returns the named container's view, or nil.
func (s *ViewSnapshot) Container(name string) *ContainerView {
	if i, ok := s.byName[name]; ok {
		return &s.Containers[i]
	}
	return nil
}

// Cgroup returns the named cgroup's view, or nil.
func (s *ViewSnapshot) Cgroup(name string) *CgroupView {
	if i, ok := s.cgByName[name]; ok {
		return &s.Cgroups[i]
	}
	return nil
}

// StateProvider reports a container's lifecycle state for its cgroup
// ("created", "running"); it is installed by the container runtime so
// snapshots can carry state without sysns importing the runtime.
type StateProvider func(name string) string

// SetStateProvider installs fn as the source of ContainerView.State
// (nil clears it). The runtime calls this once at construction.
func (m *Monitor) SetStateProvider(fn StateProvider) { m.stateFn = fn }

// Snapshot returns the most recently published snapshot. It never
// returns nil (an initial snapshot is published at construction) and is
// safe to call from any goroutine — this is the lock-free read path.
//
// The first call marks the monitor as having snapshot consumers, which
// turns publication on: a monitor nobody reads skips every cut (the
// dirtiness is recorded instead), so simulations without a serving
// surface pay nothing for the mechanism. A first-ever reader may
// therefore see a snapshot up to one pending flush old; callers that
// hand Snapshot to concurrent readers should WarmSnapshot first.
func (m *Monitor) Snapshot() *ViewSnapshot {
	if !m.observed.Load() {
		m.observed.Store(true)
	}
	return m.snap.Load()
}

// WarmSnapshot turns publication on and flushes any dirtiness that
// accumulated while nobody was reading. Call it from the simulation
// goroutine before exposing Snapshot to concurrent readers
// (fsd.NewServer and the prober workload do).
//
// It also guards the Snapshot-never-nil contract: a monitor that has
// tracked zero pods since construction may never have cut a snapshot
// (NewMonitor publishes one, but a monitor assembled without it — or a
// future construction path that defers the initial cut — would not),
// and a consumer warming at exactly that point would race the first
// publish and crash on a nil view. Warming therefore publishes whenever
// no snapshot exists yet, dirty or not.
func (m *Monitor) WarmSnapshot() {
	m.observed.Store(true)
	if m.snap.Load() == nil || m.snapDirty {
		m.Publish(m.clock.Now())
	}
}

// publishTopo is the gated publication for topology triggers (attach,
// detach): immediate when the monitor has consumers, recorded as
// pending dirtiness otherwise. While drain is delivering queued events
// the publication is deferred too: the entry point that drained, or
// else the tick's observe phase (PublishIfDirty), cuts one consistent
// snapshot for the whole batch.
func (m *Monitor) publishTopo(now sim.Time) {
	m.markTopoDirty()
	if m.draining {
		return
	}
	if m.observed.Load() {
		m.Publish(now)
	}
}

// publishRound is the gated publication for the periodic update round.
func (m *Monitor) publishRound(now sim.Time) {
	m.markDirty()
	if m.observed.Load() {
		m.Publish(now)
	}
}

// markDirty records that simulation state diverged from the published
// snapshot; the next PublishIfDirty (host observe phase) or explicit
// Publish flushes it. Setting a bool keeps trigger handling and the
// UpdateAll hot path allocation-free.
func (m *Monitor) markDirty() { m.snapDirty = true }

// markTopoDirty additionally invalidates the shared name indexes (a
// container or cgroup came or went).
func (m *Monitor) markTopoDirty() {
	m.snapDirty = true
	m.topoDirty = true
}

// PublishIfDirty publishes a snapshot if any trigger marked state dirty
// since the last publication, and reports whether it published. The
// host kernel calls this once per tick in the observe phase, coalescing
// any number of same-tick triggers into at most one publication.
//
// Value-only dirtiness (limit and bounds changes) is additionally
// coalesced to one publication per update period: a per-container limit
// churn storm would otherwise dirty every tick and force an O(n)
// snapshot cut each time, turning churn cost from O(events) into
// O(events × containers). Deferred dirtiness stays set, so the cut
// happens the moment the gap elapses, and the periodic UpdateAll round
// publishes unconditionally — snapshot staleness remains bounded by the
// update period. Topology changes (containers or cgroups coming or
// going) publish immediately: names must resolve without waiting.
func (m *Monitor) PublishIfDirty(now sim.Time) bool {
	if !m.observed.Load() {
		return false
	}
	// Queued events carry the dirtiness this check reads: a removal
	// still in the queue must publish now, not at the next round.
	m.drain()
	if !m.snapDirty {
		return false
	}
	if !m.topoDirty && now-m.lastPub < sim.Time(m.Period()) {
		return false
	}
	m.Publish(now)
	return true
}

// Republish cuts and publishes a snapshot at the current virtual time
// (gated, like every trigger, on the monitor having consumers). The
// runtime uses it for changes invisible to the cgroup event bus (a
// container transitioning to running).
func (m *Monitor) Republish() {
	m.markDirty()
	if m.observed.Load() {
		m.Publish(m.clock.Now())
	}
}

// Publish cuts an immutable snapshot of the current views and swaps it
// in with a single atomic store. It must only be called from the
// simulation goroutine, at a consistent post-recompute point (never
// mid-trigger). Steady-state cost is three allocations — the snapshot
// header and the two slices — because the name indexes are shared with
// the previous snapshot while the topology is unchanged; it reads
// simulation state strictly through non-mutating accessors, so
// publication never perturbs the simulation.
func (m *Monitor) Publish(now sim.Time) *ViewSnapshot {
	// A snapshot is a read of every bounds value: run any deferred
	// event delivery and Σw_j pass first so the cut never exposes
	// pre-pass bounds.
	m.flushBounds()
	prev := m.snap.Load()
	sched := m.hier.Scheduler()
	mem := m.hier.Memory()
	m.version++
	s := &ViewSnapshot{
		Version: m.version,
		At:      now,
		Host: HostInfo{
			NCPU:        sched.NCPU(),
			TotalMemory: mem.Total(),
			FreeMemory:  mem.Free(),
			LoadAvg:     sched.LoadAvg(),
		},
		Containers: make([]ContainerView, len(m.order)),
	}
	for i, ns := range m.order {
		cv := &s.Containers[i]
		cv.Name = ns.cg.Name
		if p := ns.cg.Parent; p != nil {
			cv.Pod = p.Name
		}
		if m.stateFn != nil {
			cv.State = m.stateFn(ns.cg.Name)
		}
		cs, mt := &m.nsCPU[ns.slot], &m.nsMeta[ns.slot]
		cv.EffectiveCPU = cs.eCPU
		cv.LowerCPU = cs.lowerCPU
		cv.UpperCPU = cs.upperCPU
		cv.EffectiveMemory = m.nsMem[ns.slot].eMem
		cv.Resident = ns.cg.Mem.Resident()
		cv.Swapped = ns.cg.Mem.Swapped()
		cv.Degraded = mt.degraded
		cv.Updates = mt.updates
		cv.LastUpdate = mt.lastAt
	}
	cgs := m.hier.Cgroups()
	s.Cgroups = make([]CgroupView, len(cgs))
	for i, cg := range cgs {
		gv := &s.Cgroups[i]
		out, in := cg.Mem.SwapTraffic()
		gv.Name = cg.Name
		gv.Shares = cg.CPU.Shares
		gv.QuotaUS = cg.CPU.QuotaUS
		gv.PeriodUS = cg.CPU.PeriodUS
		gv.CpusetN = cg.CPU.CpusetN
		gv.ThrottledNS = cg.CPU.ThrottledTime().Nanoseconds()
		gv.UsageNS = int64(float64(cg.CPU.Usage()) * 1e9)
		gv.HardLimit = cg.Mem.HardLimit
		gv.SoftLimit = cg.Mem.SoftLimit
		gv.Resident = cg.Mem.Resident()
		gv.Swapped = cg.Mem.Swapped()
		gv.SubtreeResident = cg.Mem.SubtreeResident()
		gv.SwapOut, gv.SwapIn = out, in
	}
	if prev != nil && !m.topoDirty {
		s.byName, s.cgByName = prev.byName, prev.cgByName
	} else {
		s.byName = make(map[string]int, len(s.Containers))
		for i := range s.Containers {
			s.byName[s.Containers[i].Name] = i
		}
		s.cgByName = make(map[string]int, len(s.Cgroups))
		for i := range s.Cgroups {
			s.cgByName[s.Cgroups[i].Name] = i
		}
	}
	m.snapDirty, m.topoDirty = false, false
	m.lastPub = now
	m.snap.Store(s)
	m.Trace.Add(telemetry.CtrSnapshotsPublished, 1)
	return s
}

// snapState is the Monitor's publication machinery, embedded so the
// Monitor struct literal in NewMonitor stays unchanged.
type snapState struct {
	snap      atomic.Pointer[ViewSnapshot]
	observed  atomic.Bool // any Snapshot consumer ever seen; publication is off until then
	version   uint64
	lastPub   sim.Time // instant of the last publication (coalescing floor)
	snapDirty bool
	topoDirty bool
	stateFn   StateProvider
}
