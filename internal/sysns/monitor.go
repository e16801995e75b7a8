package sysns

import (
	"time"

	"arv/internal/cgroups"
	"arv/internal/sim"
	"arv/internal/telemetry"
)

// Monitor is ns_monitor: the system-wide daemon (a kernel thread in the
// paper) that (1) creates and destroys sys_namespaces as containers come
// and go, (2) recomputes every namespace's CPU bounds whenever any cgroup
// setting changes — the share term of Algorithm 1 couples all containers
// through Σw_j — and (3) drives the periodic effective-CPU/memory updates
// with an interval equal to the CFS scheduling period (§3.2).
type Monitor struct {
	// snapState is the versioned snapshot publication machinery (see
	// snapshot.go and DESIGN.md §11): the atomic pointer readers load,
	// the monotone version counter, and the dirty flags trigger
	// handlers set for the observe-phase flush.
	snapState

	hier  *cgroups.Hierarchy
	clock *sim.Clock
	opts  Options

	spaces map[*cgroups.Cgroup]*SysNamespace
	order  []*SysNamespace

	// Slot-indexed hot state (struct-of-arrays, split by access pattern;
	// see the SysNamespace comment and DESIGN.md §14). order holds the
	// attach-order handles; each handle's slot indexes these parallel
	// arrays. A slot is index-stable for the namespace's lifetime and
	// recycled through freeSlots after Detach freezes it.
	nsCPU     []cpuSlot
	nsShare   []shareSlot
	nsMem     []memSlot
	nsMeta    []metaSlot
	freeSlots []int

	// Incremental recompute cache (see DESIGN.md §10). tops holds one
	// entry per top-level entity with attached namespaces below it (for
	// a flat container, its own cgroup; for a nested one, the enclosing
	// pod): a refcount of those namespaces plus the shares value the
	// cache last saw, so a shares change yields the Σw_j delta without a
	// walk. totalTop is Σ shares over those entries — the denominator of
	// every namespace's guaranteed fraction. seenSuppressed is the
	// hierarchy's suppression count at the last full synchronization;
	// when it moves, an event was dropped or delayed before delivery and
	// the cache can no longer be trusted (see syncSuppressed).
	tops           map[*cgroups.Cgroup]topEntry
	totalTop       int64
	seenSuppressed uint64

	// pendingTops are top-level entities whose subtree changed without a
	// subscriber-visible recompute trigger (a cgroup created under a
	// tracked pod dilutes its siblings, but Created never triggered a
	// recompute). They are flushed at the next trigger, which is exactly
	// when the full-walk implementation would have absorbed the change.
	pendingTops []*cgroups.Cgroup

	// sumMoved records a Σw_j move (a top-level entity attached,
	// detached, or reweighted) whose lower-bound pass over the other
	// namespaces has not run yet; flushBounds runs it at the next read
	// boundary (DESIGN.md §14). draining suppresses re-entry (and
	// immediate snapshot publication) while drain is delivering queued
	// events.
	sumMoved bool
	draining bool

	// fullWalk pins the monitor to the historical full walk: every
	// delivered trigger rebuilds the cache and every bound from live
	// state. Only tests set it (UseFullWalk), as the reference arm.
	fullWalk bool

	// FixedPeriod, when non-zero, pins the update period instead of
	// tracking the scheduling period (used by the update-period
	// ablation).
	FixedPeriod time.Duration

	// Trace, when non-nil, receives one KindNSUpdate event per namespace
	// per round. Nil (the default) costs nothing.
	Trace *telemetry.Tracer

	lastUpdate sim.Time
	timer      sim.Timer
	started    bool

	// Graceful-degradation state (see Options.StalenessBudget and
	// Options.ResyncMin; all zero — fully disabled — by default).
	intercept UpdateInterceptor
	resyncIvl time.Duration
	resyncAt  sim.Time
}

// UpdateInterceptor lets a fault layer perturb the periodic update
// loop. It is consulted when the update timer fires: skip=true drops
// the round entirely (the timer re-arms for the next period), a
// positive delay postpones the round — the values are then computed at
// the later instant, and the next period is measured from it, so lag
// stretches the effective update interval exactly as a slow ns_monitor
// kernel thread would.
type UpdateInterceptor func(now sim.Time) (delay time.Duration, skip bool)

// NewMonitor creates a monitor bound to the hierarchy and subscribes it
// to cgroup events. Namespaces are created only for cgroups registered
// through Attach (mirroring the paper: only containerized processes get
// a sys_namespace).
func NewMonitor(hier *cgroups.Hierarchy, clock *sim.Clock, opts Options) *Monitor {
	m := &Monitor{
		hier:           hier,
		clock:          clock,
		opts:           opts,
		spaces:         make(map[*cgroups.Cgroup]*SysNamespace),
		tops:           make(map[*cgroups.Cgroup]topEntry),
		seenSuppressed: hier.Suppressed(),
	}
	if opts.ResyncMin > 0 {
		m.resyncIvl = opts.ResyncMin
		m.resyncAt = clock.Now() + opts.ResyncMin
	}
	hier.Subscribe(m.onEvent)
	m.Publish(clock.Now()) // readers never observe a nil snapshot
	return m
}

// SetUpdateInterceptor installs fn on the periodic update path (nil
// removes it). The fault injector uses this to model a late or
// preempted ns_monitor thread.
func (m *Monitor) SetUpdateInterceptor(fn UpdateInterceptor) { m.intercept = fn }

// SetDegradation (re)configures the graceful-degradation machinery on a
// live monitor: budget bounds view staleness before the conservative
// fallback engages (0 disables), resyncMin enables retry-with-backoff
// bounds recomputation (0 disables; the cap defaults to 32x). It exists
// so scenario scripts can enable degradation after host creation;
// host.Config.NSOptions is the construction-time route.
func (m *Monitor) SetDegradation(budget, resyncMin time.Duration) {
	m.opts.StalenessBudget = budget
	m.opts.ResyncMin = resyncMin
	m.opts.ResyncMax = 0
	if resyncMin > 0 {
		m.resyncIvl = resyncMin
		m.resyncAt = m.clock.Now() + resyncMin
	} else {
		m.resyncIvl = 0
	}
}

// topEntry is the cached aggregate for one top-level entity: how many
// attached namespaces live in its subtree (itself included, for a flat
// container) and the shares value last folded into totalTop.
type topEntry struct {
	refs   int
	shares int64
}

// topOf returns the top-level entity whose shares enter Σw_j for cg: the
// enclosing pod for a nested container, cg itself otherwise.
func topOf(cg *cgroups.Cgroup) *cgroups.Cgroup {
	if cg.Parent != nil {
		return cg.Parent
	}
	return cg
}

// allocSlot returns a zeroed slot index, recycling freed ones before
// growing the parallel arrays.
func (m *Monitor) allocSlot() int {
	if n := len(m.freeSlots); n > 0 {
		s := m.freeSlots[n-1]
		m.freeSlots = m.freeSlots[:n-1]
		m.nsCPU[s], m.nsShare[s], m.nsMem[s], m.nsMeta[s] = cpuSlot{}, shareSlot{}, memSlot{}, metaSlot{}
		return s
	}
	m.nsCPU = append(m.nsCPU, cpuSlot{})
	m.nsShare = append(m.nsShare, shareSlot{})
	m.nsMem = append(m.nsMem, memSlot{})
	m.nsMeta = append(m.nsMeta, metaSlot{})
	return len(m.nsCPU) - 1
}

// Attach creates a sys_namespace for cg (idempotent) and returns it.
// Queued cgroup events are delivered first, so the attach never runs
// ahead of a change published before it.
func (m *Monitor) Attach(cg *cgroups.Cgroup) *SysNamespace {
	m.drain()
	if ns, ok := m.spaces[cg]; ok {
		return ns
	}
	ns := &SysNamespace{cg: cg, hier: m.hier, mon: m, opts: m.opts, created: m.clock.Now(), slot: m.allocSlot()}
	m.nsMeta[ns.slot].lastAt = m.clock.Now()
	m.nsMem[ns.slot].prevKswapd = m.hier.Memory().KswapdRuns()
	m.spaces[cg] = ns
	m.order = append(m.order, ns)
	if m.syncSuppressed() {
		ns.ResetMemory()
		m.publishTopo(m.clock.Now())
		return ns
	}
	// Cache updates must complete before any bounds recompute: a pass
	// interleaved with a half-applied Σw_j would clamp E_CPU through an
	// intermediate bounds state the atomic full walk never produces.
	top := topOf(cg)
	e, tracked := m.tops[top]
	e.refs++
	if !tracked {
		// A new top-level entity enters Σw_j: every fraction changes.
		e.shares = top.CPU.Shares
		m.totalTop += e.shares
	}
	m.tops[top] = e
	m.flushPending()
	if tracked {
		m.recomputeTop(top)
	} else {
		// The new entity's subtree holds just this namespace, which needs
		// live bounds at once (E_CPU initializes from them); every other
		// view waits for the deferred pass. Attach therefore stays O(1)
		// per container, and a fleet build O(n).
		m.recomputeOne(ns)
		m.moveSum(e.refs)
	}
	ns.ResetMemory()
	// Publish at the post-recompute point: the new namespace (and any
	// sibling whose bounds moved) becomes visible to lock-free readers
	// without waiting for a kernel step.
	m.publishTopo(m.clock.Now())
	return ns
}

// Detach removes cg's namespace (also triggered by cgroup removal).
// Like Attach, it delivers queued cgroup events first.
func (m *Monitor) Detach(cg *cgroups.Cgroup) {
	m.drain()
	ns, ok := m.spaces[cg]
	if !ok {
		return
	}
	delete(m.spaces, cg)
	for i, x := range m.order {
		if x == ns {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	// Freeze the slot state into the handle: post-mortem readers (end-of-
	// run summaries over killed containers) keep the last live view, and
	// the slot can be recycled without them observing its next tenant.
	ns.finalCPU, ns.finalMem, ns.finalMeta = m.nsCPU[ns.slot], m.nsMem[ns.slot], m.nsMeta[ns.slot]
	ns.detached = true
	m.freeSlots = append(m.freeSlots, ns.slot)
	if m.syncSuppressed() {
		m.publishTopo(m.clock.Now())
		return
	}
	// As in Attach: finish the cache mutation before any recompute.
	top := topOf(cg)
	e := m.tops[top]
	e.refs--
	if e.refs <= 0 {
		// Last namespace under this entity: its shares leave Σw_j.
		delete(m.tops, top)
		m.totalTop -= e.shares
	} else {
		m.tops[top] = e
	}
	m.flushPending()
	if e.refs > 0 {
		// Detach via cgroup removal shrank the sibling sum (the group is
		// already gone from the hierarchy), so the subtree recomputes; for
		// a plain detach that is a no-op recompute.
		m.recomputeTop(top)
	} else {
		m.moveSum(0)
	}
	// As in Attach: publish once the cache and bounds are consistent.
	m.publishTopo(m.clock.Now())
}

// Lookup returns cg's namespace, or nil, after delivering queued
// cgroup events (a removed cgroup's namespace is gone).
func (m *Monitor) Lookup(cg *cgroups.Cgroup) *SysNamespace {
	m.drain()
	return m.spaces[cg]
}

// Namespaces returns the live namespaces in attach order, after
// delivering queued cgroup events.
func (m *Monitor) Namespaces() []*SysNamespace {
	m.drain()
	return m.order
}

func (m *Monitor) onEvent(e cgroups.Event) {
	switch e.Kind {
	case cgroups.Created:
		// The cgroup list (and hence the snapshot's cgroup section)
		// changed; the observe-phase flush publishes it. No immediate
		// publication: creations arrive in bursts (pods, churn) and
		// coalescing to one snapshot per tick is the §11 contract.
		m.markTopoDirty()
		// No recompute (the full-walk implementation ignored Created
		// too), but a creation under a tracked pod dilutes the attached
		// siblings' fractions at the *next* recompute trigger; remember
		// the subtree so that trigger flushes it.
		if top := topOf(e.Cgroup); top != e.Cgroup {
			if _, tracked := m.tops[top]; tracked {
				m.pendingTops = append(m.pendingTops, top)
			}
		}
	case cgroups.Removed:
		m.markTopoDirty() // the cgroup left the snapshot's cgroup section
		if _, attached := m.spaces[e.Cgroup]; !attached {
			// No namespace to detach — but removing an unattached pod
			// member still shrinks the sibling sum its attached siblings
			// divide by. Like a creation, the change surfaces at the
			// next recompute trigger.
			if top := topOf(e.Cgroup); top != e.Cgroup {
				if _, tracked := m.tops[top]; tracked {
					m.pendingTops = append(m.pendingTops, top)
				}
			}
			return
		}
		m.Detach(e.Cgroup)
	case cgroups.CPUChanged:
		// Bounds (and the snapshot's control-file values) may move;
		// mark for the observe-phase flush in every sub-path.
		m.markDirty()
		if m.syncSuppressed() {
			return
		}
		m.onCPUChanged(e.Cgroup)
	case cgroups.MemChanged:
		m.markDirty()
		// CPU bounds do not read memory limits (UpdateMem reads them
		// live), so beyond cache synchronization and any pending
		// dilution this is a no-op — exactly what the full walk computed.
		if m.syncSuppressed() {
			return
		}
		m.flushPending()
	}
}

// moveSum records a delivered Σw_j move: it arms the deferred pass
// unless the moved entity's subtree, which holds refs namespaces and was
// recomputed at event time, holds every attached namespace.
func (m *Monitor) moveSum(refs int) {
	if len(m.order) > refs {
		m.sumMoved = true
	}
}

// drain delivers the hierarchy's queued events; each does its subtree
// work as it lands. Every entry point that reads or changes
// event-derived state runs it first (DESIGN.md §14). It is a no-op
// with nothing queued and on re-entry from a delivered event.
func (m *Monitor) drain() {
	if m.draining || m.hier.Queued() == 0 {
		return
	}
	m.draining = true
	m.hier.Drain()
	m.draining = false
}

// flushBounds is the read boundary (DESIGN.md §14): the update round,
// snapshot publication, the staleness scan, and every bounds read run
// it. It drains the queued cgroup events, then, if Σw_j moved, runs one
// lower-bound pass over every namespace. With neither — the common case
// — it is a few loads and a return; re-entry while drain is delivering
// events is likewise a no-op.
func (m *Monitor) flushBounds() {
	if m.draining {
		return
	}
	m.drain()
	if !m.sumMoved {
		return
	}
	m.sumMoved = false
	// The pass reads no live hierarchy state: Σw_j is the cached
	// totalTop, the share inputs and the upper bound are what the last
	// delivered event left in each slot. A dropped event therefore stays
	// visible until the next delivered trigger runs syncSuppressed.
	p := m.hier.Scheduler().NCPU()
	for _, ns := range m.order {
		c := &m.nsCPU[ns.slot]
		c.setBounds(c.upperCPU, m.nsShare[ns.slot].frac(m.totalTop), p)
	}
}

// onCPUChanged applies one delivered cpu-limit event to the cache and
// recomputes the affected bounds. The hierarchy already holds the new
// values; the cached shares tell us what changed.
func (m *Monitor) onCPUChanged(cg *cgroups.Cgroup) {
	top := topOf(cg)
	e, tracked := m.tops[top]
	if !tracked {
		// No attached namespace anywhere under this entity: its shares
		// are outside Σw_j and nobody reads its quota/cpuset — but the
		// full walk still ran on this trigger, so it is where any pending
		// dilution is absorbed.
		m.flushPending()
		return
	}
	moved := cg == top && cg.CPU.Shares != e.shares
	if moved {
		// Top-level shares moved: the Σw_j denominator changes, so every
		// namespace's fraction does too. The delta lands before any
		// recompute so every bound reads the final Σw_j.
		m.totalTop += cg.CPU.Shares - e.shares
		e.shares = cg.CPU.Shares
		m.tops[top] = e
	}
	// The subtree recomputes now: the entity's quota, period, or cpuset
	// caps its members, a nested cgroup's shares enter the sibling sum
	// and its limits cap its own namespace, and a shares move changes
	// the subtree's own inputs.
	m.flushPending()
	m.recomputeTop(top)
	if moved {
		m.moveSum(e.refs)
	}
}

// flushPending recomputes subtrees dirtied without a recompute trigger
// (see the Created case of onEvent).
func (m *Monitor) flushPending() {
	if len(m.pendingTops) == 0 {
		return
	}
	for _, top := range m.pendingTops {
		if _, tracked := m.tops[top]; tracked {
			m.recomputeTop(top)
		}
	}
	m.pendingTops = m.pendingTops[:0]
}

// syncSuppressed rebuilds the cache when the hierarchy reports
// suppressed events the monitor never saw: a dropped or delayed event
// means live state moved without the incremental bookkeeping. The full
// recompute lands at the next delivered trigger — the same instant the
// full-walk implementation would silently have absorbed the lost change,
// which is what keeps fault-injection runs byte-identical. Returns true
// when it recomputed (callers skip their incremental step).
func (m *Monitor) syncSuppressed() bool {
	if !m.fullWalk && m.hier.Suppressed() == m.seenSuppressed {
		return false
	}
	m.FullRecompute()
	return true
}

// FullRecompute rebuilds the share-aggregate cache from live hierarchy
// state and recalculates every namespace's bounds, regardless of what
// the incremental bookkeeping believes. It is the recovery path for
// suppressed events (resync, syncSuppressed).
func (m *Monitor) FullRecompute() {
	clear(m.tops)
	m.totalTop = 0
	for _, ns := range m.order {
		top := topOf(ns.cg)
		e, ok := m.tops[top]
		if !ok {
			e.shares = top.CPU.Shares
			m.totalTop += e.shares
		}
		e.refs++
		m.tops[top] = e
	}
	m.pendingTops = m.pendingTops[:0]
	m.sumMoved = false
	m.seenSuppressed = m.hier.Suppressed()
	m.recomputeBoundsAll()
}

// recomputeBoundsAll recalculates every namespace's bounds from the
// cached aggregates (Σw_j changes reach every container).
func (m *Monitor) recomputeBoundsAll() {
	for _, ns := range m.order {
		m.recomputeOne(ns)
	}
}

// recomputeTop recalculates bounds for the namespaces inside one
// top-level entity's subtree: the entity's own namespace (a flat
// container) and any attached children (pod members).
func (m *Monitor) recomputeTop(top *cgroups.Cgroup) {
	if ns, ok := m.spaces[top]; ok {
		m.recomputeOne(ns)
	}
	for _, c := range top.Children() {
		if ns, ok := m.spaces[c]; ok {
			m.recomputeOne(ns)
		}
	}
}

// recomputeOne recalculates one namespace's bounds from live hierarchy
// state and caches the share inputs it read in the slot, where the
// deferred Σw_j pass finds them (see shareSlot). The sibling sum
// is the scheduler's ChildShares aggregate: all siblings count, attached
// or not — they compete for the pod's grant either way.
func (m *Monitor) recomputeOne(ns *SysNamespace) {
	g := ns.cg.CPU
	in := shareSlot{top: g.Shares, own: g.Shares}
	if p := g.Parent(); p != nil {
		in.top, in.siblings = p.Shares, p.ChildShares()
	}
	m.nsShare[ns.slot] = in
	ns.RecomputeBounds(in.frac(m.totalTop))
}

// Period returns the namespace update interval currently in effect.
func (m *Monitor) Period() time.Duration {
	if m.FixedPeriod > 0 {
		return m.FixedPeriod
	}
	p := m.hier.Scheduler().SchedPeriod()
	if p <= 0 {
		p = 24 * time.Millisecond
	}
	return p
}

// Start arms the periodic update timer. The interval is re-evaluated
// after each firing, since the CFS scheduling period depends on the
// number of runnable tasks.
func (m *Monitor) Start() {
	if m.started {
		return
	}
	m.started = true
	m.lastUpdate = m.clock.Now()
	m.arm()
}

func (m *Monitor) arm() {
	m.timer = m.clock.After(m.Period(), m.fire)
}

// fire is the periodic timer's callback: it consults the update
// interceptor (if any) and either skips the round, postpones it, or
// runs it now — re-arming for the next period in every case. With no
// interceptor the path is identical to running UpdateAll directly.
func (m *Monitor) fire(now sim.Time) {
	if m.intercept != nil {
		delay, skip := m.intercept(now)
		if skip {
			m.arm()
			return
		}
		if delay > 0 {
			m.timer = m.clock.After(delay, func(late sim.Time) {
				m.UpdateAll(late)
				m.publishRound(late)
				m.arm()
			})
			return
		}
	}
	m.UpdateAll(now)
	// The round is a complete Algorithm 1+2 pass — the canonical §11
	// cut point. Publishing here (not inside UpdateAll) keeps UpdateAll
	// itself allocation-free for direct callers.
	m.publishRound(now)
	m.arm()
}

// Stop disarms the update timer.
func (m *Monitor) Stop() {
	m.timer.Stop()
	m.started = false
}

// SubsystemName identifies the monitor in telemetry and diagnostics;
// with Tick, NextEvent, SkipIdle, and AttachTelemetry it satisfies the
// host kernel's Subsystem interface.
func (m *Monitor) SubsystemName() string { return "sysns" }

// Tick is the monitor's dense per-tick hook. Updates are driven by the
// periodic timer (armed in the clock's timer wheel) and by cgroup
// events, so with no staleness budget configured it is a no-op. With a
// budget, the tick is where bounded-staleness detection runs: any
// namespace whose view age exceeds the budget falls back to the
// conservative view until an update round lands.
func (m *Monitor) Tick(now sim.Time, dt time.Duration) {
	b := m.opts.StalenessBudget
	if b <= 0 {
		return
	}
	// The fallback reads LOWER_CPU, so the staleness scan is a read
	// boundary.
	m.flushBounds()
	for _, ns := range m.order {
		mt := &m.nsMeta[ns.slot]
		if mt.degraded || mt.lastAt+sim.Time(b) >= now {
			continue
		}
		ns.fallback()
		m.markDirty() // flushed by this tick's observe phase
		m.Trace.Add(telemetry.CtrStaleFallbacks, 1)
		if m.Trace.Enabled() {
			m.Trace.Emit(now, telemetry.KindStaleFallback, ns.cg.Name,
				int64(ns.Age(now)), int64(m.nsCPU[ns.slot].eCPU))
		}
	}
}

// NextEvent reports the monitor's next self-scheduled instant. The
// periodic update timer lives in the clock's timer wheel, which already
// bounds every fast-forward jump; the monitor itself only contributes
// an instant when a staleness budget is armed: the earliest moment a
// live namespace's view can expire, so fallback engagement lands on the
// same tick it would under dense stepping.
func (m *Monitor) NextEvent(now sim.Time) (sim.Time, bool) {
	b := m.opts.StalenessBudget
	if b <= 0 {
		return 0, false
	}
	var earliest sim.Time
	found := false
	for _, ns := range m.order {
		mt := &m.nsMeta[ns.slot]
		if mt.degraded {
			continue
		}
		if t := mt.lastAt + sim.Time(b); !found || t < earliest {
			earliest, found = t, true
		}
	}
	return earliest, found
}

// SkipIdle replays an idle span. The monitor's periodic update never
// falls inside one (its timer deadline bounds the jump), so there is
// nothing to replay.
func (m *Monitor) SkipIdle(now sim.Time, dt time.Duration, n int) {}

// AttachTelemetry sets (or, with nil, clears) the monitor's trace sink.
func (m *Monitor) AttachTelemetry(tr *telemetry.Tracer) { m.Trace = tr }

// UpdateAll runs one Algorithm 1 + Algorithm 2 round for every
// namespace. Exposed so tests and benchmarks can drive updates without
// the timer.
func (m *Monitor) UpdateAll(now sim.Time) {
	// The round reads every namespace's bounds, so it is the canonical
	// read boundary: deferred event work coalesces here.
	m.flushBounds()
	window := time.Duration(now - m.lastUpdate)
	if window <= 0 {
		window = m.Period()
	}
	m.lastUpdate = now
	// Mark rather than publish: the timer path publishes right after
	// this round (see fire), and direct callers — benchmarks iterating
	// the hot path — must stay allocation-free. A stray direct call is
	// still flushed by the host's observe phase.
	m.markDirty()

	if m.resyncIvl > 0 && now >= m.resyncAt {
		m.resync(now)
	}

	slack := m.hier.Scheduler().TakeWindowSlack()
	m.Trace.Add(telemetry.CtrNSUpdates, uint64(len(m.order)))
	for _, ns := range m.order {
		m.Trace.Max(telemetry.CtrStalenessMax, uint64(ns.Age(now)))
		usage := ns.cg.CPU.TakeWindowUsage()
		ns.UpdateCPU(now, window, usage, slack)
		ns.UpdateMem(now)
		if m.Trace.Enabled() {
			m.Trace.Emit(now, telemetry.KindNSUpdate, ns.cg.Name,
				int64(ns.EffectiveCPU()), int64(ns.EffectiveMemory()))
		}
	}
}

// resync is the retry-with-backoff recovery path for dropped cgroup
// events: it re-derives every namespace's bounds straight from the
// hierarchy and compares them with the cached ones. Drift means a
// limit-change event never arrived — the bounds are repaired (the
// recompute already wrote them) and the retry interval resets to its
// minimum; a clean pass doubles the interval up to the cap.
func (m *Monitor) resync(now sim.Time) {
	type bounds struct{ lower, upper int }
	before := make([]bounds, len(m.order))
	for i, ns := range m.order {
		c := &m.nsCPU[ns.slot]
		before[i] = bounds{c.lowerCPU, c.upperCPU}
	}
	m.FullRecompute()
	drift := false
	for i, ns := range m.order {
		c := &m.nsCPU[ns.slot]
		if before[i] != (bounds{c.lowerCPU, c.upperCPU}) {
			drift = true
			break
		}
	}
	m.Trace.Add(telemetry.CtrRecomputeRetries, 1)
	if drift {
		m.resyncIvl = m.opts.ResyncMin
	} else if m.resyncIvl < m.opts.resyncMax() {
		m.resyncIvl *= 2
		if max := m.opts.resyncMax(); m.resyncIvl > max {
			m.resyncIvl = max
		}
	}
	m.resyncAt = now + sim.Time(m.resyncIvl)
	if m.Trace.Enabled() {
		var d int64
		if drift {
			d = 1
		}
		m.Trace.Emit(now, telemetry.KindResync, "ns_monitor", d, int64(m.resyncIvl))
	}
}
