// Package sysns implements the paper's central contribution: the
// per-container sys_namespace that maintains the *effective* CPU and
// memory capacity of a container (Algorithms 1 and 2 of the paper), plus
// the system-wide ns_monitor that keeps namespace bounds in sync with
// cgroup changes.
//
// Effective CPU is exported as a discrete CPU count whose aggregate
// capacity equals the CPU time the container can actually use given its
// share, limit, affinity, and the real-time usage of co-located
// containers. Effective memory reflects the container's soft limit,
// expanded toward the hard limit while the host has free memory, and
// reset to the soft limit whenever kswapd is reclaiming.
package sysns

import (
	"math"
	"time"

	"arv/internal/cgroups"
	"arv/internal/memctl"
	"arv/internal/sim"
	"arv/internal/units"
)

// Tunables of the two algorithms, as published.
const (
	// UtilThreshold is UTIL_THRSHD of Algorithm 1: effective CPU grows
	// only when the container used more than this fraction of its
	// current effective capacity during the last update period.
	UtilThreshold = 0.95
	// MemUtilThreshold is the Algorithm 2 analogue: effective memory
	// grows only when the container uses more than this fraction of it.
	MemUtilThreshold = 0.90
	// MemStepFrac is the Algorithm 2 expansion increment: 10% of the
	// remaining headroom toward the hard limit.
	MemStepFrac = 0.10
	// CPUStep bounds the per-update change of effective CPU ("changes
	// to effective CPU are limited to 1 per update to prevent abrupt
	// fluctuations").
	CPUStep = 1
)

// Options tune a SysNamespace away from the paper's published constants.
// The zero value selects the published behaviour; it is what every
// experiment other than the ablations uses.
type Options struct {
	// UtilThreshold overrides UtilThreshold when non-zero.
	UtilThreshold float64
	// MemUtilThreshold overrides MemUtilThreshold when non-zero.
	MemUtilThreshold float64
	// MemStepFrac overrides MemStepFrac when non-zero.
	MemStepFrac float64
	// CPUStep overrides CPUStep when non-zero.
	CPUStep int
	// DisableGrowth pins effective CPU at its lower bound and effective
	// memory at the soft limit (the "static" ablation, which is what
	// JDK 10's share-based heuristic effectively computes).
	DisableGrowth bool

	// StalenessBudget bounds how old a namespace's view may grow before
	// ns_monitor engages the conservative fallback (E_CPU to the lower
	// bound, E_MEM to the soft limit). Zero — the default, and what
	// every paper experiment uses — disables staleness detection
	// entirely. The budget is monitor-level graceful-degradation
	// machinery, not an Algorithm 1/2 tunable; it lives here so it can
	// flow through host.Config.NSOptions like the other knobs.
	StalenessBudget time.Duration

	// ResyncMin enables retry-with-backoff bounds recomputation: when
	// positive, ns_monitor periodically re-derives every namespace's
	// bounds straight from the cgroup hierarchy, recovering from
	// limit-change events that were dropped before it saw them. The
	// retry interval starts at ResyncMin, doubles after every clean
	// resync (no drift found), resets to ResyncMin when drift is
	// found, and is capped at ResyncMax (default 32x ResyncMin).
	ResyncMin time.Duration
	// ResyncMax caps the resync backoff (0 selects 32x ResyncMin).
	ResyncMax time.Duration

	// Deprecated: BatchedRecompute is ignored. ns_monitor has one
	// recompute protocol (subtree work at event time, one deferred Σw_j
	// pass at the next read boundary; DESIGN.md §14); the field remains
	// so existing configurations compile.
	BatchedRecompute bool
}

func (o Options) resyncMax() time.Duration {
	if o.ResyncMax > 0 {
		return o.ResyncMax
	}
	return 32 * o.ResyncMin
}

func (o Options) utilThreshold() float64 {
	if o.UtilThreshold > 0 {
		return o.UtilThreshold
	}
	return UtilThreshold
}

func (o Options) memUtilThreshold() float64 {
	if o.MemUtilThreshold > 0 {
		return o.MemUtilThreshold
	}
	return MemUtilThreshold
}

func (o Options) memStepFrac() float64 {
	if o.MemStepFrac > 0 {
		return o.MemStepFrac
	}
	return MemStepFrac
}

func (o Options) cpuStep() int {
	if o.CPUStep > 0 {
		return o.CPUStep
	}
	return CPUStep
}

// cpuSlot is the Algorithm 1 field group of one namespace slot: the
// effective CPU and its bounds, written by every bounds recompute and
// every CPU update round. Keeping the group contiguous per slot makes
// the monitor's O(n) bounds passes walk one dense array.
type cpuSlot struct {
	eCPU     int
	lowerCPU int
	upperCPU int
}

// shareSlot is the share-input field group: what the last event-time
// recompute read for the namespace's guaranteed fraction — the
// top-level entity's shares, the namespace's own, and its sibling sum
// (0 for a flat container). The deferred Σw_j pass rebuilds lower
// bounds from it without reading the hierarchy. It is split from
// cpuSlot because only recomputes read it, while every update round and
// snapshot cut walks cpuSlot.
type shareSlot struct {
	top, own, siblings int64
}

// frac is the guaranteed share fraction for Σw_j = total: w_i/Σw_j for
// a flat container, the pod's fraction times the container's fraction
// among its siblings for a nested one. Every input is an int64 sum,
// equal to a fresh walk's, so the float expression is bit-identical to
// the historical full-recompute path.
func (s *shareSlot) frac(total int64) float64 {
	switch {
	case total <= 0:
		return 0
	case s.siblings == 0:
		return float64(s.own) / float64(total)
	}
	return float64(s.top) / float64(total) * float64(s.own) / float64(s.siblings)
}

// setBounds sets [LOWER_CPU, UPPER_CPU] from the upper bound and the
// guaranteed share fraction (Algorithm 1, lines 4-5) and clamps E_CPU
// into the new range. p is the host CPU count.
func (c *cpuSlot) setBounds(upper int, shareFrac float64, p int) {
	shareCPUs := p
	if shareFrac > 0 {
		shareCPUs = max(1, int(math.Ceil(shareFrac*float64(p))))
	}
	lower := min(upper, shareCPUs)
	c.lowerCPU, c.upperCPU = lower, upper
	if c.eCPU == 0 {
		// Initialisation: E_CPU_i = LOWER_CPU_i (Algorithm 1, line 6).
		c.eCPU = lower
	}
	c.eCPU = units.ClampInt(c.eCPU, lower, upper)
}

// memSlot is the Algorithm 2 field group: the effective memory and the
// previous round's inputs (p_free, p_mem, and the kswapd run count).
type memSlot struct {
	eMem       units.Bytes
	prevFree   units.Bytes
	prevUsage  units.Bytes
	prevKswapd int
	havePrev   bool
}

// metaSlot is the update-metadata field group: round counting, staleness
// tracking, and the degraded-fallback flag.
type metaSlot struct {
	updates  uint64
	lastAt   sim.Time
	degraded bool
}

// SysNamespace holds one container's effective-resource view. It is a
// handle: the hot per-view state — bounds, E_CPU, E_MEM, the Algorithm 2
// history, update metadata — lives in slot-indexed parallel arrays owned
// by the Monitor (struct-of-arrays, split by access pattern; DESIGN.md
// §14), so the monitor's O(n) passes over all views walk dense memory
// instead of chasing one heap object per container. Slots are
// index-stable for the namespace's lifetime; Detach freezes the slot
// state into the handle before recycling it, so late readers (post-run
// summaries over killed containers) keep seeing the last live values.
type SysNamespace struct {
	cg   *cgroups.Cgroup
	hier *cgroups.Hierarchy
	mon  *Monitor
	opts Options
	slot int

	// OwnerPID is the PID of the task owning the namespace. Ownership
	// starts at the container's bootstrap init process and is
	// transferred to the post-exec init when the original init dies
	// (§3.2); see internal/container.
	OwnerPID int

	created  sim.Time
	detached bool

	// Frozen copies of the slot state, written once at Detach.
	finalCPU  cpuSlot
	finalMem  memSlot
	finalMeta metaSlot
}

// slotCPU returns the namespace's Algorithm 1 state: its monitor slot
// while attached, the frozen copy afterwards.
func (ns *SysNamespace) slotCPU() *cpuSlot {
	if ns.detached {
		return &ns.finalCPU
	}
	return &ns.mon.nsCPU[ns.slot]
}

// slotMem returns the namespace's Algorithm 2 state.
func (ns *SysNamespace) slotMem() *memSlot {
	if ns.detached {
		return &ns.finalMem
	}
	return &ns.mon.nsMem[ns.slot]
}

// slotMeta returns the namespace's update metadata.
func (ns *SysNamespace) slotMeta() *metaSlot {
	if ns.detached {
		return &ns.finalMeta
	}
	return &ns.mon.nsMeta[ns.slot]
}

// Cgroup returns the control group this namespace describes.
func (ns *SysNamespace) Cgroup() *cgroups.Cgroup { return ns.cg }

// EffectiveCPU returns E_CPU: the number of dedicated-CPU equivalents
// currently available to the container. The read is a read boundary:
// queued events and a pending Σw_j pass are applied first, so callers
// never observe pre-pass values.
func (ns *SysNamespace) EffectiveCPU() int {
	ns.mon.flushBounds()
	return ns.slotCPU().eCPU
}

// EffectiveMemory returns E_MEM.
func (ns *SysNamespace) EffectiveMemory() units.Bytes { return ns.slotMem().eMem }

// CPUBounds returns the current [LOWER_CPU, UPPER_CPU] range. Like
// EffectiveCPU, the read is a read boundary.
func (ns *SysNamespace) CPUBounds() (lower, upper int) {
	ns.mon.flushBounds()
	c := ns.slotCPU()
	return c.lowerCPU, c.upperCPU
}

// Updates returns how many timer updates the namespace has processed.
func (ns *SysNamespace) Updates() uint64 { return ns.slotMeta().updates }

// Age returns the virtual-time age of the view: how long ago the last
// Algorithm 1 round ran (or, before the first round, how long ago the
// namespace was attached).
func (ns *SysNamespace) Age(now sim.Time) time.Duration {
	return time.Duration(now - ns.slotMeta().lastAt)
}

// Degraded reports whether the conservative fallback view is currently
// engaged (the view's age exceeded the monitor's staleness budget and
// no update has landed since).
func (ns *SysNamespace) Degraded() bool { return ns.slotMeta().degraded }

// fallback engages the conservative view: the guaranteed CPU lower
// bound and the guaranteed (soft-limit) memory — the values the
// container holds regardless of what happened since the view went
// stale. The next successful update round clears it.
func (ns *SysNamespace) fallback() {
	c := ns.slotCPU()
	c.eCPU = c.lowerCPU
	ns.slotMem().eMem = ns.softMem()
	ns.slotMeta().degraded = true
}

// hardMem returns the hard limit with "unlimited" resolved to host RAM.
func (ns *SysNamespace) hardMem() units.Bytes {
	if h := ns.cg.Mem.HardLimit; h > 0 {
		return h
	}
	return ns.hier.Memory().Total()
}

// softMem returns the soft limit with "unlimited" resolved to the hard
// limit (a container with no soft limit has nothing reclaimable, so its
// guaranteed memory is its hard limit).
func (ns *SysNamespace) softMem() units.Bytes {
	if s := ns.cg.Mem.SoftLimit; s > 0 {
		return s
	}
	return ns.hardMem()
}

// RecomputeBounds recalculates LOWER_CPU and UPPER_CPU (Algorithm 1,
// lines 4-5) from the container's limit l/t, affinity |M|, and its
// guaranteed share fraction of the host (w_i/Σw_j for flat containers;
// the product of the pod's and the container's fractions for nested
// ones — ns_monitor computes it), and clamps E_CPU into the new range.
// The limit and mask of an enclosing cgroup bound the container too.
func (ns *SysNamespace) RecomputeBounds(shareFrac float64) {
	p := ns.hier.Scheduler().NCPU()

	limitCPUs := func(g interface {
		CPULimit() float64
	}) int {
		lim := g.CPULimit() // l / t, in CPUs
		if math.IsInf(lim, 1) {
			return p
		}
		n := int(math.Floor(lim + 1e-9))
		if n < 1 {
			n = 1
		}
		return n
	}

	upper := min(limitCPUs(ns.cg.CPU), p)
	if mask := ns.cg.CPU.CpusetN; mask > 0 {
		upper = min(upper, mask)
	}
	if parent := ns.cg.CPU.Parent(); parent != nil {
		upper = min(upper, limitCPUs(parent))
		if mask := parent.CpusetN; mask > 0 {
			upper = min(upper, mask)
		}
	}

	ns.slotCPU().setBounds(upper, shareFrac, p)
}

// ResetMemory initialises (or re-initialises) effective memory to the
// soft limit (Algorithm 2, lines 3 and 14).
func (ns *SysNamespace) ResetMemory() {
	ns.slotMem().eMem = ns.softMem()
}

// UpdateCPU performs one Algorithm 1 adjustment round. window is the
// update period t; usage is the container's CPU consumption u_i during
// the window; slack is the system-wide unused CPU capacity accumulated
// during the window (p_slack).
func (ns *SysNamespace) UpdateCPU(now sim.Time, window time.Duration, usage, slack units.CPUSeconds) {
	mt := ns.slotMeta()
	mt.updates++
	mt.lastAt = now
	mt.degraded = false
	c := ns.slotCPU()
	if ns.opts.DisableGrowth {
		c.eCPU = c.lowerCPU
		return
	}
	step := ns.opts.cpuStep()
	if slack > 0 {
		capacity := float64(c.eCPU) * window.Seconds()
		if capacity > 0 && float64(usage)/capacity > ns.opts.utilThreshold() && c.eCPU < c.upperCPU {
			c.eCPU = units.ClampInt(c.eCPU+step, c.lowerCPU, c.upperCPU)
		}
	} else if c.eCPU > c.lowerCPU {
		c.eCPU = units.ClampInt(c.eCPU-step, c.lowerCPU, c.upperCPU)
	}
}

// UpdateMem performs one Algorithm 2 adjustment round using the host's
// current free memory and the container's current usage. The previous
// round's values (p_free, p_mem) are remembered internally.
func (ns *SysNamespace) UpdateMem(now sim.Time) {
	mem := ns.hier.Memory()
	cfree := mem.Free()
	cmem := ns.cg.Mem.Resident()
	kswapd := mem.KswapdRuns()
	ns.updateMem(mem, cfree, cmem, kswapd)
	ms := ns.slotMem()
	ms.prevFree, ms.prevUsage, ms.havePrev = cfree, cmem, true
	ms.prevKswapd = kswapd
}

// updateMem is UpdateMem's adjustment logic, split out so the caller can
// record the round's inputs as p_free/p_mem on every exit path without a
// deferred closure (UpdateMem runs once per namespace per period — it is
// the monitor's hot path and must not allocate).
func (ns *SysNamespace) updateMem(mem *memctl.Controller, cfree, cmem units.Bytes, kswapd int) {
	ms := ns.slotMem()
	// "Whenever system memory is in shortage and kswapd is reclaiming
	// memory, reset a container's effective memory to its soft limit":
	// shortage is visible either as free memory below the low watermark
	// right now, or as kswapd activity since the previous update (free
	// memory may already have recovered to the high watermark by the
	// time the timer fires).
	reclaiming := cfree <= mem.LowWM || kswapd > ms.prevKswapd

	if ms.eMem == 0 {
		ns.ResetMemory()
	}
	if ns.opts.DisableGrowth {
		ms.eMem = ns.softMem()
		return
	}

	hard := ns.hardMem()
	if !reclaiming {
		if ms.eMem > 0 && float64(cmem)/float64(ms.eMem) > ns.opts.memUtilThreshold() && ms.eMem < hard {
			delta := units.Bytes(float64(hard-ms.eMem) * ns.opts.memStepFrac())
			if delta <= 0 {
				return
			}
			// Predict the system-wide free-memory cost of granting
			// delta, from the previous round's marginal ratio
			// (Algorithm 2, line 8). With no history, or a container
			// that did not grow, assume a 1:1 ratio.
			ratio := 1.0
			if ms.havePrev && cmem > ms.prevUsage {
				ratio = float64(ms.prevFree-cfree) / float64(cmem-ms.prevUsage)
				if ratio < 0 {
					ratio = 0
				}
			}
			predicted := units.Bytes(ratio * float64(delta))
			if cfree-predicted > mem.HighWM {
				ms.eMem += delta
				if ms.eMem > hard {
					ms.eMem = hard
				}
			}
		}
	} else {
		// Memory shortage: kswapd is (or has been) reclaiming; fall
		// back to the guaranteed soft limit.
		ns.ResetMemory()
	}
}
