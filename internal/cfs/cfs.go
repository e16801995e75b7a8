// Package cfs simulates the Linux Completely Fair Scheduler at the level
// of detail the paper's Algorithm 1 depends on: per-cgroup share weights
// (cpu.shares), bandwidth limits (cfs_quota_us / cfs_period_us), CPU
// affinity masks (cpuset.cpus), work-conserving multiplexing of the
// remaining capacity, per-group usage accounting, and the host load
// average.
//
// The model is "fluid": once per simulation tick, the host's NCPU cores
// are divided among runnable tasks by weighted max-min fairness subject
// to (1) at most one CPU per task, (2) at most |cpuset| CPUs per group,
// (3) at most quota/period CPUs per group, with group weights given by
// cpu.shares. Capacity no group can use is given to others (work
// conservation); capacity nobody can use is the slack Algorithm 1 reads.
//
// Groups may be nested one level (a parent group containing child
// groups — the Kubernetes pod shape): capacity is water-filled among
// top-level entities first, then each parent's grant is water-filled
// among its children by their shares, with the parent's cpuset/quota
// capping the subtree. Following cgroup v2's "no internal processes"
// rule, a group with children cannot hold tasks.
//
// Oversubscription is not free: when a group runs more runnable tasks
// than the CPU it is allocated, each task's useful work is discounted by
// 1/(1+gamma*(r-1)) where r is the oversubscription ratio and gamma a
// per-group sensitivity. This reproduces the over-threading penalties the
// paper measures (Figs. 2a, 6, 7, 10) that a pure fluid model would hide.
//
// # Tick protocol and hot-state layout
//
// The division of CPU among groups is a pure function of the scheduler's
// configuration (shares, quota, cpuset, group topology) and the runnable
// counts, so the scheduler memoizes it and repairs it incrementally:
// every mutating entry point (SetShares, SetQuota, SetCpuset,
// SetRunnable, task/group lifecycle) marks the touched group in a dirty
// set, and the next Tick recomputes caps, water fills, and accounting
// only for the dirty groups, the affected parents, and the top level —
// O(changes + tops) instead of O(groups), and O(changes) at the top
// level while its fill is under-subscribed — escalating to one full
// rebuild when the dirty set grows to a sizable fraction of the active
// set. Accounting for quiet groups (active groups with no runnable
// OnTick task) is deferred and settled on read, replaying the memoized
// per-tick deltas, so every observable value stays bit-identical to
// rebuilding every tick. See repair.go and DESIGN.md §15.
//
// Per-group hot state lives in struct-of-arrays form on the Scheduler
// (gCap, gRate, gAcct), indexed by the group's slot in Groups(). Slots
// are index-stable except across RemoveGroup, which compacts all arrays
// in step. Configuration fields on Group remain exported for reading;
// writing them directly on a live scheduler bypasses the dirty set and
// is reserved for building fixtures before the first Tick — mutate
// through the Scheduler setters instead.
package cfs

import (
	"fmt"
	"math"
	"time"

	"arv/internal/sim"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// DefaultShares is the cpu.shares value Linux assigns a new cgroup.
const DefaultShares = 1024

// Task is a schedulable entity (a thread). Tasks belong to exactly one
// Group and are either runnable or blocked.
type Task struct {
	ID   int
	Name string

	// Gamma overrides the group's oversubscription sensitivity for
	// this task when positive (e.g. GC worker threads, whose work
	// stealing and termination protocols degrade under time-slicing
	// much faster than independent mutator threads).
	Gamma float64

	// OnTick, if non-nil, is invoked after every scheduling tick in
	// which the task was runnable, with the useful work accomplished
	// (CPU time discounted by the oversubscription penalty) and the
	// raw CPU time consumed.
	//
	// Contract: install OnTick before the task is first made runnable
	// (all in-tree workloads do). The scheduler defers the accounting of
	// groups without a runnable OnTick task, so it must know which
	// groups cannot defer; settling a deferred group that holds a
	// runnable task with a late-installed OnTick panics.
	//
	// Allocation changes the callback makes (blocking or waking tasks,
	// limit writes) take effect from the next tick, whichever walk —
	// quiet, repair, or full rebuild — invoked it. A callback that
	// blocks or wakes tasks of another group the walk has not reached
	// yet may shift that group's per-task split of the current tick
	// depending on walk order; no in-tree workload changes another
	// group's tasks from inside a tick.
	OnTick func(now sim.Time, useful, raw units.CPUSeconds)

	group    *Group
	runnable bool
	removed  bool

	// LastRate is the CPU rate (in CPUs) the task received in the most
	// recent tick in which it was runnable.
	LastRate float64
	// Usage is the total raw CPU time consumed.
	Usage units.CPUSeconds
}

// Runnable reports whether the task is currently runnable.
func (t *Task) Runnable() bool { return t.runnable }

// Group returns the scheduling group the task belongs to.
func (t *Task) Group() *Group { return t.group }

// groupAcct is a group's per-tick hot state: the accounting accumulators
// the tick loop writes and the cached water-fill derivatives it reads.
// One slot per group, stored in a Scheduler-owned array parallel to
// Groups() so a steady-state tick walks a contiguous slab instead of
// chasing Group pointers.
type groupAcct struct {
	usage        units.CPUSeconds // total raw CPU time
	windowUsage  units.CPUSeconds // since last TakeWindowUsage
	throttledDur time.Duration    // wall time with the quota cap binding
	perTask      float64          // rate / runnable tasks (leaves; 0 when idle)
	over         float64          // oversubscription excess (leaves)
	flags        uint16
}

const (
	// acctThrottled: a bandwidth limit (the group's own, or its
	// parent's) capped the group's allocation in the most recent tick.
	acctThrottled uint16 = 1 << iota
	// acctDurBinding: the group's own limit is binding, so
	// throttledDur accrues every tick while the allocation holds.
	acctDurBinding
	// acctFlagsDirty: a cap-preserving limit change touched the group
	// since the last tick; its throttle state must be re-evaluated
	// (alloc provably unchanged, so no full rebuild is needed).
	acctFlagsDirty
	// The remaining bits are repair state (repair.go).

	// acctAllocDirty: the group is queued in Scheduler.dirty for
	// allocation repair on the next tick.
	acctAllocDirty
	// acctActive: the group is a member of Scheduler.active.
	acctActive
	// acctEager: the group is a member of Scheduler.eagerIdx (active
	// with at least one runnable OnTick task, so its accounting cannot
	// be deferred).
	acctEager
	// acctTop: the group is a member of Scheduler.activeTop (top-level
	// with a positive cap, i.e. a water-fill participant).
	acctTop
	// acctRefill: transient repair-phase mark — the parent's child fill
	// is queued for recomputation this tick.
	acctRefill
)

// Group is a scheduling control group (the cpu controller of a cgroup).
type Group struct {
	Name string

	// Shares is the cpu.shares weight (default 1024). Mutate through
	// Scheduler.SetShares on a live scheduler.
	Shares int64
	// QuotaUS and PeriodUS define the bandwidth limit
	// (cfs_quota_us / cfs_period_us). QuotaUS < 0 means unlimited.
	// Mutate through Scheduler.SetQuota on a live scheduler.
	QuotaUS  int64
	PeriodUS int64
	// CpusetN is the number of CPUs in the group's affinity mask;
	// 0 means "all host CPUs". Mutate through Scheduler.SetCpuset on a
	// live scheduler.
	CpusetN int
	// Gamma is the oversubscription sensitivity used in the useful-work
	// discount; see the package comment. Zero means oversubscription is
	// free (pure fluid model). Gamma is read live each tick and may be
	// written directly.
	Gamma float64

	tasks    []*Task
	runnable int // live runnable-task count (kept by Scheduler.SetRunnable)
	// runnableOnTick counts runnable tasks carrying an OnTick callback.
	// The tick keys eager-vs-deferred accounting on it: a group with
	// zero runnable OnTick tasks can have its per-tick accrual replayed
	// later, one with any cannot (the callback must fire every tick).
	// See the contract on Task.OnTick.
	runnableOnTick int

	parent   *Group
	children []*Group
	schedIdx int // position in Scheduler.groups, maintained on add/remove

	// childShares is Σ children's Shares, maintained by the scheduler on
	// child creation/removal and SetShares. ns_monitor reads it every
	// time a nested container's share fraction is recomputed; a scan of
	// Children() there would make each cgroup event O(siblings).
	childShares int64

	sched *Scheduler

	// final freezes the group's accounting when it is removed, so
	// post-mortem reads (experiment summaries over killed containers)
	// keep working after the scheduler compacts its hot arrays.
	final     groupAcct
	finalRate float64

	removed bool
}

// acct returns the group's live accounting slot, or the frozen copy
// after removal.
func (g *Group) acct() *groupAcct {
	if g.removed {
		return &g.final
	}
	return &g.sched.gAcct[g.schedIdx]
}

// Parent returns the enclosing group, or nil for a top-level group.
func (g *Group) Parent() *Group { return g.parent }

// Children returns the nested groups.
func (g *Group) Children() []*Group { return g.children }

// CPULimit returns the bandwidth limit in CPUs (quota/period), or
// math.Inf(1) if the group is unlimited.
func (g *Group) CPULimit() float64 {
	if g.QuotaUS < 0 || g.PeriodUS <= 0 {
		return math.Inf(1)
	}
	return float64(g.QuotaUS) / float64(g.PeriodUS)
}

// Usage returns the group's total raw CPU consumption.
func (g *Group) Usage() units.CPUSeconds {
	g.settle()
	return g.acct().usage
}

// TakeWindowUsage returns the raw CPU time consumed since the previous
// call and resets the window. sys_namespace reads this once per update
// period (the u_i term of Algorithm 1).
func (g *Group) TakeWindowUsage() units.CPUSeconds {
	g.settle()
	a := g.acct()
	u := a.windowUsage
	a.windowUsage = 0
	return u
}

// PeekWindowUsage returns the raw CPU time consumed since the last
// TakeWindowUsage without resetting the window.
func (g *Group) PeekWindowUsage() units.CPUSeconds {
	g.settle()
	return g.acct().windowUsage
}

// ThrottledTime returns the cumulative wall time during which the group's
// bandwidth limit capped its allocation.
func (g *Group) ThrottledTime() time.Duration {
	g.settle()
	return g.acct().throttledDur
}

// LastRate returns the CPU rate (in CPUs) the group received in the most
// recent tick.
func (g *Group) LastRate() float64 {
	if g.removed {
		return g.finalRate
	}
	return g.sched.gRate[g.schedIdx]
}

// Throttled reports whether a bandwidth limit (the group's own, or its
// parent's) capped the group's allocation in the most recent tick.
func (g *Group) Throttled() bool { return g.acct().flags&acctThrottled != 0 }

// RunnableTasks returns the number of currently runnable tasks. The
// count is maintained on task state changes rather than scanned: the
// allocation rebuild reads it for every group.
func (g *Group) RunnableTasks() int { return g.runnable }

// ChildShares returns Σ Shares over the group's children (0 for a leaf).
// The aggregate is maintained by the scheduler's SetShares and group
// lifecycle paths, not scanned.
func (g *Group) ChildShares() int64 { return g.childShares }

// Tasks returns the number of tasks (runnable or not) in the group.
func (g *Group) Tasks() int { return len(g.tasks) }

// Scheduler is the host CPU scheduler.
type Scheduler struct {
	ncpu   int
	groups []*Group
	nextID int

	// Trace, when non-nil, receives throttle/unthrottle events and the
	// scheduler tick counter. Nil (the default) costs nothing.
	Trace *telemetry.Tracer

	// LoadAvgTau is the time constant of the exponentially weighted
	// load average the "dynamic" OpenMP strategy reads. Linux's
	// getloadavg horizon is one minute; simulated workloads compress
	// timescales by roughly that factor, so the default is one second —
	// long parallel regions still dominate a horizon, which is the
	// regime in which gomp's n_onln - loadavg feedback loop oscillates.
	LoadAvgTau time.Duration
	loadAvg    float64

	slackWindow   units.CPUSeconds // unused capacity since last TakeWindowSlack
	slackLast     float64          // unused CPUs in the most recent tick
	totalRunnable int              // runnable tasks in the most recent tick
	runnableNow   int              // live runnable-task count (kept by SetRunnable)
	ticks         uint64

	// topShares is Σ Shares over top-level groups, maintained like
	// Group.childShares (see TopShares).
	topShares int64

	// Struct-of-arrays hot state, parallel to groups (indexed by
	// schedIdx, compacted in step on RemoveGroup).
	gCap  []float64 // memoized per-group capacity cap
	gRate []float64 // memoized water-fill result (= LastRate)
	gAcct []groupAcct

	// Memoized allocation metadata. allocValid is false until the first
	// Tick and after SkipIdle: the next Tick then rebuilds in full, and
	// mutators skip the dirty set.
	allocValid   bool  // gCap/gRate/active/loadContrib/slackLast current
	active       []int // groups with rate > 0, ascending schedIdx
	throttledIdx []int // groups flagged throttled, superset, see NextEvent
	flagsDirty   []int // groups marked acctFlagsDirty since the last tick
	loadContrib  float64

	// scratch buffers reused across rebuilds to avoid allocation
	scratchTop   []int
	scratchChild []int

	// Repair state (repair.go). RemoveGroup patches every index list
	// here and above in place, so slots stay exact across compaction.
	dirty          []int    // groups queued for allocation repair (acctAllocDirty)
	pendingTopFill bool     // top-level fill must rerun (active top membership changed)
	pendingResum   bool     // slack/loadContrib sums must re-derive (an active group left)
	activeTop      []int    // top-level groups with cap > 0 (acctTop)
	topUnder       bool     // the last top fill was under-subscribed: every activeTop grant equals its cap
	eagerIdx       []int    // active groups with runnable OnTick tasks (acctEager)
	gSettled       []uint64 // tick through which each group's accounting is settled
	lastDt         time.Duration
	lastDtSec      float64
	// Mid-walk settle guard: during a tick's accounting walk, reads of a
	// group the walk has not reached yet settle to the previous tick
	// (its current-tick accrual happens when the walk reaches it),
	// matching what a full rebuild's walk would expose at that point.
	// Mutators also read it: a mid-walk change queues a repair.
	inWalk  bool
	walkPos int
	// repair scratch, reused tick to tick
	repairOld     []float64
	repairChanged []int
	repairParents []int
	topAdds       []int
	activeAdds    []int
	eagerAdds     []int
	activeRemoved bool
	eagerRemoved  bool
	topRemoved    bool
	activeBuf     []int
	eagerBuf      []int
	topBuf        []int
	nrSnapIdx     []int // leaves walked this tick (ascending)
	nrSnapVal     []int // their runnable counts at visit time
	// onTopPhase, when set (tests only), observes which top-level path
	// each repair tick's phase 2 took.
	onTopPhase func(dirtyOnly bool)
}

// SubsystemName identifies the scheduler in telemetry and diagnostics;
// with Tick, NextEvent, SkipIdle, and AttachTelemetry it satisfies the
// host kernel's Subsystem interface.
func (s *Scheduler) SubsystemName() string { return "cfs" }

// AttachTelemetry sets (or, with nil, clears) the scheduler's trace
// sink.
func (s *Scheduler) AttachTelemetry(tr *telemetry.Tracer) { s.Trace = tr }

// NewScheduler returns a scheduler for a host with ncpu cores.
func NewScheduler(ncpu int) *Scheduler {
	if ncpu <= 0 {
		panic(fmt.Sprintf("cfs: non-positive CPU count %d", ncpu))
	}
	return &Scheduler{ncpu: ncpu, LoadAvgTau: time.Second}
}

// Options remains so existing configurations compile.
//
// Deprecated: the scheduler has one tick protocol, dirty-set repair, and
// nothing reads Options.
type Options struct {
	// Deprecated: ignored; every scheduler repairs incrementally.
	IncrementalRepair bool
}

// NCPU returns the number of host cores.
func (s *Scheduler) NCPU() int { return s.ncpu }

// LoadAvg returns the exponentially weighted average number of runnable
// tasks (the loadavg term of the "dynamic" OpenMP strategy).
func (s *Scheduler) LoadAvg() float64 { return s.loadAvg }

// SlackLast returns the unused CPU capacity (in CPUs) in the most recent
// tick — the instantaneous pslack of Algorithm 1.
func (s *Scheduler) SlackLast() float64 { return s.slackLast }

// TakeWindowSlack returns the unused CPU capacity accumulated since the
// previous call and resets the window.
func (s *Scheduler) TakeWindowSlack() units.CPUSeconds {
	v := s.slackWindow
	s.slackWindow = 0
	return v
}

// TotalRunnable returns the number of runnable tasks in the most recent
// tick.
func (s *Scheduler) TotalRunnable() int { return s.totalRunnable }

// Groups returns the live scheduling groups.
func (s *Scheduler) Groups() []*Group { return s.groups }

// TopShares returns Σ Shares over the top-level groups. Like
// Group.ChildShares it is maintained incrementally by SetShares and the
// group lifecycle paths, not scanned.
func (s *Scheduler) TopShares() int64 { return s.topShares }

// SetShares writes g's cpu.shares weight while keeping the share
// aggregates (TopShares, the parent's ChildShares) consistent. All
// share changes on a live group must go through here (the cgroups layer
// does).
func (s *Scheduler) SetShares(g *Group, shares int64) {
	delta := shares - g.Shares
	if delta == 0 {
		return
	}
	g.Shares = shares
	if g.parent != nil {
		g.parent.childShares += delta
	} else {
		s.topShares += delta
	}
	// Shares only weight the water fills a group with a positive cap
	// participates in; reweighting a capless group cannot move any
	// allocation.
	if !g.removed && s.allocValid && s.gCap[g.schedIdx] > 0 {
		s.noteAllocChange(g)
	}
}

// SetQuota writes g's bandwidth limit (cfs_quota_us / cfs_period_us).
// quotaUS < 0 means unlimited. All quota changes on a live group must go
// through here (the cgroups layer does).
//
// Quota churn is the dominant event stream at scale, so the write is
// classified before it queues an allocation repair: a change that
// provably leaves the group's cap — and therefore every group's rate —
// unchanged either costs nothing (both old and new limits sit above the
// cap) or only marks the subtree acctFlagsDirty so the next tick
// re-evaluates its throttle state in O(subtree) instead of refilling.
func (s *Scheduler) SetQuota(g *Group, quotaUS, periodUS int64) {
	if !s.allocValid || g.removed {
		// A pending full rebuild reads the new limit; a removed group
		// cannot affect the allocation.
		g.QuotaUS, g.PeriodUS = quotaUS, periodUS
		return
	}
	limOld := g.CPULimit()
	g.QuotaUS, g.PeriodUS = quotaUS, periodUS
	limNew := g.CPULimit()
	if limNew == limOld {
		// Pure period change: NextEvent reads PeriodUS live, nothing
		// else consumes the raw values.
		return
	}
	capOld := s.gCap[g.schedIdx]
	if limOld > capOld+1e-9 && limNew > capOld+1e-9 {
		// Neither limit binds (rate <= cap < lim-1e-9 throughout):
		// cap, rates, and throttle state are all unchanged.
		return
	}
	if s.capOf(g) == capOld && !s.inWalk {
		// Same cap, so the water fill result is unchanged; only the
		// throttle flags can move (e.g. quota lowered onto the rate).
		// Mid-walk the flag-dirty list is being consumed, so an OnTick
		// callback's write takes the repair path below instead.
		s.markFlagsDirty(g)
		for _, c := range g.children {
			s.markFlagsDirty(c)
		}
		return
	}
	s.noteAllocChange(g)
}

// SetCpuset writes the size of g's CPU affinity mask; 0 means "all host
// CPUs". All cpuset changes on a live group must go through here (the
// cgroups layer does).
func (s *Scheduler) SetCpuset(g *Group, n int) {
	if !s.allocValid || g.removed {
		g.CpusetN = n
		return
	}
	capOld := s.gCap[g.schedIdx]
	g.CpusetN = n
	// The mask size feeds only the cap; an unchanged cap means an
	// unchanged allocation and unchanged throttle state.
	if s.capOf(g) != capOld {
		s.noteAllocChange(g)
	}
}

// capOf recomputes a group's per-tick capacity cap from live state with
// the exact operation sequence the rebuild uses, so results compare
// bitwise against gCap.
func (s *Scheduler) capOf(g *Group) float64 {
	if len(g.children) > 0 {
		var sum float64
		for _, c := range g.children {
			sum += s.gCap[c.schedIdx]
		}
		if g.CpusetN > 0 && float64(g.CpusetN) < sum {
			sum = float64(g.CpusetN)
		}
		if lim := g.CPULimit(); lim < sum {
			sum = lim
		}
		return sum
	}
	nr := g.runnable
	if nr == 0 {
		return 0
	}
	c := float64(nr)
	if g.CpusetN > 0 && float64(g.CpusetN) < c {
		c = float64(g.CpusetN)
	}
	if lim := g.CPULimit(); lim < c {
		c = lim
	}
	return c
}

// markFlagsDirty queues a group for throttle-state re-evaluation on the
// next tick.
func (s *Scheduler) markFlagsDirty(g *Group) {
	a := &s.gAcct[g.schedIdx]
	if a.flags&acctFlagsDirty == 0 {
		a.flags |= acctFlagsDirty
		s.flagsDirty = append(s.flagsDirty, g.schedIdx)
	}
}

// NewGroup creates and registers a top-level scheduling group. Shares
// defaults to DefaultShares; quota defaults to unlimited.
func (s *Scheduler) NewGroup(name string) *Group {
	g := &Group{
		Name:     name,
		Shares:   DefaultShares,
		QuotaUS:  -1,
		PeriodUS: 100_000,
		sched:    s,
	}
	g.schedIdx = len(s.groups)
	s.groups = append(s.groups, g)
	s.growHot()
	s.topShares += g.Shares
	// A new group has no runnable tasks, so cap 0: it joins no fill and
	// moves no allocation, and the memo stays valid.
	return g
}

// NewChildGroup creates a group nested under parent. The parent must not
// hold tasks (cgroup v2's no-internal-processes rule) and nesting is
// limited to one level.
func (s *Scheduler) NewChildGroup(parent *Group, name string) *Group {
	if parent.removed {
		panic("cfs: NewChildGroup on removed group " + parent.Name)
	}
	if parent.parent != nil {
		panic("cfs: nesting deeper than one level is not supported")
	}
	if len(parent.tasks) > 0 {
		panic("cfs: parent group " + parent.Name + " holds tasks (no-internal-processes rule)")
	}
	g := &Group{
		Name:     name,
		Shares:   DefaultShares,
		QuotaUS:  -1,
		PeriodUS: 100_000,
		parent:   parent,
		sched:    s,
	}
	g.schedIdx = len(s.groups)
	parent.children = append(parent.children, g)
	parent.childShares += g.Shares
	s.groups = append(s.groups, g)
	s.growHot()
	return g
}

// growHot appends one zeroed slot to each hot array, keeping them
// parallel to groups.
func (s *Scheduler) growHot() {
	s.gCap = append(s.gCap, 0)
	s.gRate = append(s.gRate, 0)
	s.gAcct = append(s.gAcct, groupAcct{})
	s.gSettled = append(s.gSettled, s.ticks)
}

// RemoveGroup unregisters a group, its tasks, and (for a parent) its
// children. The group's accounting is frozen for post-mortem reads.
func (s *Scheduler) RemoveGroup(g *Group) {
	for _, c := range append([]*Group(nil), g.children...) {
		s.RemoveGroup(c)
	}
	// Freeze fully settled accounting, and queue the repair the removal
	// causes before the group's bookkeeping disappears.
	s.settleTo(g.schedIdx, s.ticks)
	if s.allocValid {
		if s.gRate[g.schedIdx] > 0 {
			// An active group leaves: the slack and load-contribution
			// ordered sums must re-derive even if no surviving rate
			// moves (e.g. everyone else already sits at cap).
			s.pendingResum = true
		}
		if g.parent != nil && !g.parent.removed {
			s.noteAllocChange(g.parent)
		} else if g.parent == nil && s.gAcct[g.schedIdx].flags&acctTop != 0 {
			// An active top-level group leaves the fill: its grant must
			// be redistributed even though no surviving group was
			// touched.
			s.pendingTopFill = true
		}
	}
	g.final = s.gAcct[g.schedIdx]
	g.finalRate = s.gRate[g.schedIdx]
	g.removed = true
	for _, t := range g.tasks {
		t.removed = true
		if t.runnable {
			s.runnableNow--
		}
		t.runnable = false
	}
	g.tasks = nil
	g.runnable = 0
	g.runnableOnTick = 0
	if g.parent != nil {
		g.parent.childShares -= g.Shares
		for i, x := range g.parent.children {
			if x == g {
				g.parent.children = append(g.parent.children[:i], g.parent.children[i+1:]...)
				break
			}
		}
	} else {
		s.topShares -= g.Shares
	}
	i := g.schedIdx
	s.groups = append(s.groups[:i], s.groups[i+1:]...)
	s.gCap = append(s.gCap[:i], s.gCap[i+1:]...)
	s.gRate = append(s.gRate[:i], s.gRate[i+1:]...)
	s.gAcct = append(s.gAcct[:i], s.gAcct[i+1:]...)
	s.gSettled = append(s.gSettled[:i], s.gSettled[i+1:]...)
	for j := i; j < len(s.groups); j++ {
		s.groups[j].schedIdx = j
	}
	// The index lists stay exact: drop the removed slot and shift the
	// entries the compaction moved.
	s.active = patchIdxList(s.active, i)
	s.throttledIdx = patchIdxList(s.throttledIdx, i)
	s.flagsDirty = patchIdxList(s.flagsDirty, i)
	s.dirty = patchIdxList(s.dirty, i)
	s.activeTop = patchIdxList(s.activeTop, i)
	s.eagerIdx = patchIdxList(s.eagerIdx, i)
}

// NewTask creates a task in group g. Tasks start blocked; call SetRunnable.
func (s *Scheduler) NewTask(g *Group, name string) *Task {
	if g.removed {
		panic("cfs: NewTask on removed group " + g.Name)
	}
	if len(g.children) > 0 {
		panic("cfs: NewTask on parent group " + g.Name + " (no-internal-processes rule)")
	}
	s.nextID++
	t := &Task{ID: s.nextID, Name: name, group: g}
	g.tasks = append(g.tasks, t)
	return t
}

// RemoveTask removes a task from its group.
func (s *Scheduler) RemoveTask(t *Task) {
	t.removed = true
	if t.runnable {
		// Account the task's deferred ticks before it leaves the replay
		// set.
		s.settleLive(t.group.schedIdx)
		s.runnableNow--
		t.group.runnable--
		if t.OnTick != nil {
			t.group.runnableOnTick--
		}
		s.noteAllocChange(t.group)
	}
	t.runnable = false
	g := t.group
	for i, x := range g.tasks {
		if x == t {
			g.tasks = append(g.tasks[:i], g.tasks[i+1:]...)
			break
		}
	}
}

// SetRunnable marks the task runnable (true) or blocked (false).
func (s *Scheduler) SetRunnable(t *Task, runnable bool) {
	if t.removed && runnable {
		panic("cfs: waking removed task " + t.Name)
	}
	if t.runnable == runnable {
		return
	}
	// Settle at the old rate and runnable count before the flip: the
	// deferred ticks all ran under them.
	s.settleLive(t.group.schedIdx)
	t.runnable = runnable
	if runnable {
		s.runnableNow++
		t.group.runnable++
		if t.OnTick != nil {
			t.group.runnableOnTick++
		}
	} else {
		s.runnableNow--
		t.group.runnable--
		if t.OnTick != nil {
			t.group.runnableOnTick--
		}
	}
	s.noteAllocChange(t.group)
}

// RunnableNow returns the live count of runnable tasks — unlike
// TotalRunnable it reflects wake-ups and blocks made since the last
// tick. The host kernel's fast-forward gate reads it every step, so it
// is maintained incrementally rather than scanned.
func (s *Scheduler) RunnableNow() int { return s.runnableNow }

// SchedPeriod returns the CFS scheduling period for the current number of
// runnable tasks: 24 ms when there are at most 8, otherwise
// 3 ms x ntasks. The paper sets the sys_namespace update interval to this
// value (§3.2).
func (s *Scheduler) SchedPeriod() time.Duration {
	n := s.totalRunnable
	if n <= 8 {
		return 24 * time.Millisecond
	}
	return time.Duration(n) * 3 * time.Millisecond
}

// waterfill distributes capacity among the given groups by weighted
// max-min fairness: proportional to shares, capped per group, iterating
// until saturated groups' leftovers are redistributed (work
// conservation). Results are written into alloc, indexed like groups;
// participants have positive caps and start from a non-negative alloc
// (the scheduler passes zeros). The loop overwrites active in place.
//
// When every participant has positive shares and the caps fit the
// capacity with the underSubscribed margin, the loop provably saturates
// every participant at exactly alloc = cap (DESIGN.md §15), so that
// result is assigned directly. waterfill reports whether it was.
func waterfill(groups []*Group, caps, alloc []float64, active []int, capacity float64) (saturated bool) {
	if underSubscribed(caps, active, capacity) && positiveShares(groups, active) {
		for _, i := range active {
			alloc[i] = caps[i]
		}
		return true
	}
	remaining := capacity
	for len(active) > 0 && remaining > 1e-12 {
		var totalW float64
		for _, i := range active {
			totalW += float64(groups[i].Shares)
		}
		if totalW <= 0 {
			break
		}
		saturated := false
		next := active[:0]
		// First pass: saturate groups whose fair share exceeds their cap.
		for _, i := range active {
			fair := remaining * float64(groups[i].Shares) / totalW
			if alloc[i]+fair >= caps[i]-1e-12 {
				remaining -= caps[i] - alloc[i]
				alloc[i] = caps[i]
				saturated = true
			} else {
				next = append(next, i)
			}
		}
		if !saturated {
			// Nobody saturates: distribute the remainder proportionally.
			for _, i := range next {
				alloc[i] += remaining * float64(groups[i].Shares) / totalW
			}
			remaining = 0
		}
		active = next
	}
	return false
}

// underSubscribed reports whether Σ caps over active, summed in list
// order, stays below capacity by the margin capacity·1e-9 + 1e-9. The
// margin is far above the rounding waterfill's loop accumulates (about
// 7·n·2⁻⁵³ of capacity for n participants), so under it, with positive
// shares, the loop saturates every participant.
func underSubscribed(caps []float64, active []int, capacity float64) bool {
	sum := 0.0
	for _, i := range active {
		sum += caps[i]
	}
	return sum <= capacity*(1-1e-9)-1e-9
}

// positiveShares reports whether every participant has positive shares.
func positiveShares(groups []*Group, active []int) bool {
	for _, i := range active {
		if groups[i].Shares <= 0 {
			return false
		}
	}
	return true
}

// Tick advances the scheduler by dt: allocates CPU, advances task work,
// and updates accounting and the load average. It is called once per
// simulation tick by the host. The tick takes one of three paths (see
// repair.go): a quiet tick when nothing is dirty, an incremental repair
// of the dirty set, or — on the first tick, after SkipIdle, and when the
// dirty set is too large to repair group by group — one full rebuild.
// All three leave every observable value bit-identical to rebuilding
// every tick.
func (s *Scheduler) Tick(now sim.Time, dt time.Duration) {
	if dt != s.lastDt {
		// The deferred-accounting replay assumes a constant tick length;
		// a change (hosts never do this, direct drivers may) settles
		// everything at the old length first.
		if s.lastDt != 0 {
			s.settleAllTo(s.ticks)
		}
		s.lastDt, s.lastDtSec = dt, dt.Seconds()
	}
	s.ticks++
	s.Trace.Add(telemetry.CtrSchedTicks, 1)
	dtSec := dt.Seconds()

	switch {
	case s.allocValid && len(s.dirty) == 0 && !s.pendingTopFill && !s.pendingResum:
		s.quietTick(now, dt, dtSec)
	case s.allocValid && !s.escalate():
		s.Trace.Add(telemetry.CtrTickRepairs, 1)
		s.repairTick(now, dt, dtSec)
	default:
		if s.allocValid {
			s.Trace.Add(telemetry.CtrRepairEscalations, 1)
		}
		s.Trace.Add(telemetry.CtrTickRebuilds, 1)
		s.settleAllTo(s.ticks - 1)
		// Reset before the walk: the rebuild refreshes everything the
		// dirty set tracked, while marks its OnTick callbacks make
		// mid-walk queue the next tick's repair.
		s.resetRepairState()
		s.rebuildTick(now, dt, dtSec)
	}

	s.slackWindow += units.CPUSeconds(s.slackLast * dtSec)

	// Load average: first-order low-pass filter over the enqueued task
	// count (throttled groups contribute only their bandwidth).
	if s.LoadAvgTau > 0 {
		a := dtSec / s.LoadAvgTau.Seconds()
		if a > 1 {
			a = 1
		}
		s.loadAvg += (s.loadContrib - s.loadAvg) * a
	}
}

// tickGroup advances one active group's accounting by one tick at the
// memoized allocation: usage accrual, throttle upkeep, and the runnable
// tasks' rates, usage, and OnTick callbacks. It reports whether a leaf
// throttle flag moved (which changes the load contribution).
func (s *Scheduler) tickGroup(now sim.Time, i int, g *Group, dt time.Duration, dtSec float64) bool {
	contribDirty := false
	a := &s.gAcct[i]
	rate := s.gRate[i]
	raw := units.CPUSeconds(rate * dtSec)
	a.usage += raw
	a.windowUsage += raw
	if a.flags&acctFlagsDirty != 0 {
		if s.refreshThrottle(now, i, g, rate, dt) {
			contribDirty = true
		}
	} else if a.flags&acctDurBinding != 0 {
		a.throttledDur += dt
	}
	if a.perTask == 0 {
		// Parent group, or a leaf with no runnable tasks.
		return contribDirty
	}
	perTask, over := a.perTask, a.over
	// Snapshot: OnTick may append tasks for future ticks.
	tasks := g.tasks
	for _, t := range tasks {
		if !t.runnable {
			continue
		}
		t.LastRate = perTask
		rawT := units.CPUSeconds(perTask * dtSec)
		t.Usage += rawT
		if t.OnTick != nil {
			eff := 1.0
			if over > 0 {
				gamma := g.Gamma
				if t.Gamma > 0 {
					gamma = t.Gamma
				}
				if gamma > 0 {
					eff = 1 / (1 + gamma*over)
				}
			}
			t.OnTick(now, units.CPUSeconds(float64(rawT)*eff), rawT)
		}
	}
	return contribDirty
}

// refreshThrottle re-evaluates an active group's throttle state after a
// cap-preserving limit change, with the exact conditions and event
// emission the rebuild applies, including this tick's throttledDur
// accrual. It reports whether a leaf's throttle flag moved (which
// changes the group's load-average contribution).
func (s *Scheduler) refreshThrottle(now sim.Time, i int, g *Group, rate float64, dt time.Duration) bool {
	a := &s.gAcct[i]
	if len(g.children) > 0 {
		thr := false
		if lim := g.CPULimit(); !math.IsInf(lim, 1) && rate >= lim-1e-9 {
			a.throttledDur += dt
			thr = true
		}
		a.setFlag(acctDurBinding, thr)
		s.noteThrottleTracked(now, i, g, thr, rate)
		return false
	}
	throttled := false
	binding := false
	if lim := g.CPULimit(); !math.IsInf(lim, 1) && rate >= lim-1e-9 {
		a.throttledDur += dt
		throttled = true
		binding = true
	}
	a.setFlag(acctDurBinding, binding)
	if !throttled && g.parent != nil {
		if plim := g.parent.CPULimit(); !math.IsInf(plim, 1) && s.gRate[g.parent.schedIdx] >= plim-1e-9 {
			throttled = true
		}
	}
	was := a.flags&acctThrottled != 0
	s.noteThrottleTracked(now, i, g, throttled, rate)
	return was != throttled
}

// noteThrottleTracked is noteThrottle plus throttled-list maintenance
// for transitions that happen outside a full rebuild: a group entering
// the throttled state must become visible to NextEvent's fast path. The
// list stays a superset of the throttled groups; NextEvent re-checks the
// flag.
func (s *Scheduler) noteThrottleTracked(now sim.Time, i int, g *Group, throttled bool, rate float64) {
	was := s.gAcct[i].flags&acctThrottled != 0
	s.noteThrottle(now, i, g, throttled, rate)
	if throttled && !was {
		s.throttledIdx = append(s.throttledIdx, i)
		if len(s.throttledIdx) > len(s.groups) {
			// More entries than groups means duplicates from repeated
			// transitions (rebuilds, which reset the list, may never
			// run): compact to the currently flagged set.
			s.compactThrottledIdx()
		}
	}
}

// rebuildTick recomputes caps and the water fill from current state,
// performs this tick's accounting in the same per-group order a
// non-memoizing tick would, and refreshes the memo: active list,
// throttled list, per-leaf task-rate derivatives, load contribution and
// slack.
func (s *Scheduler) rebuildTick(now sim.Time, dt time.Duration, dtSec float64) {
	n := len(s.groups)
	alloc := s.gRate[:n]
	caps := s.gCap[:n]

	totalRunnable := 0
	for i, g := range s.groups {
		alloc[i] = 0
		nr := g.RunnableTasks()
		totalRunnable += nr
		if nr == 0 {
			caps[i] = 0
			continue
		}
		c := float64(nr)
		if g.CpusetN > 0 && float64(g.CpusetN) < c {
			c = float64(g.CpusetN)
		}
		if lim := g.CPULimit(); lim < c {
			c = lim
		}
		caps[i] = c
	}
	s.totalRunnable = totalRunnable

	// Parent caps: the subtree demand, bounded by the parent's own
	// cpuset and bandwidth limit.
	for i, g := range s.groups {
		if len(g.children) == 0 {
			continue
		}
		var sum float64
		for _, c := range g.children {
			sum += caps[c.schedIdx]
		}
		if g.CpusetN > 0 && float64(g.CpusetN) < sum {
			sum = float64(g.CpusetN)
		}
		if lim := g.CPULimit(); lim < sum {
			sum = lim
		}
		caps[i] = sum
	}

	// Top-level water fill over parents and parentless groups.
	if cap(s.scratchTop) < n {
		s.scratchTop = make([]int, 0, n)
		s.scratchChild = make([]int, 0, n)
	}
	top := s.scratchTop[:0]
	for i, g := range s.groups {
		if g.parent == nil && caps[i] > 0 {
			top = append(top, i)
		}
	}
	// Snapshot the fill participants before waterfill consumes the list
	// in place: repair ticks refill over this set.
	s.activeTop = append(s.activeTop[:0], top...)
	s.topUnder = waterfill(s.groups, caps, alloc, top, float64(s.ncpu))

	// Second level: each parent's grant is filled among its children.
	for i, g := range s.groups {
		if len(g.children) == 0 || alloc[i] <= 0 {
			continue
		}
		childActive := s.scratchChild[:0]
		for _, c := range g.children {
			if caps[c.schedIdx] > 0 {
				childActive = append(childActive, c.schedIdx)
			}
		}
		waterfill(s.groups, caps, alloc, childActive, alloc[i])
	}

	// The allocation is current from here on, so OnTick callbacks in
	// the walk below queue their changes for the next tick's repair.
	s.allocValid = true
	s.active = s.active[:0]
	s.throttledIdx = s.throttledIdx[:0]
	s.eagerIdx = s.eagerIdx[:0]
	s.inWalk = true
	var used float64
	loadContribution := 0.0
	for i, g := range s.groups {
		rate := alloc[i]
		a := &s.gAcct[i]
		a.perTask, a.over = 0, 0
		a.flags &^= acctFlagsDirty
		s.walkPos = i
		s.gSettled[i] = s.ticks
		a.setFlag(acctActive, rate > 0)
		a.setFlag(acctTop, g.parent == nil && caps[i] > 0)
		// Eager membership is settled after the task walk below: an
		// OnTick callback may block the group's last OnTick task, and a
		// group that ends the tick without any must be deferrable.
		a.setFlag(acctEager, false)
		if len(g.children) > 0 {
			// Parent accounting only; its children execute the tasks.
			thr := false
			if rate > 0 {
				raw := units.CPUSeconds(rate * dtSec)
				a.usage += raw
				a.windowUsage += raw
				if lim := g.CPULimit(); !math.IsInf(lim, 1) && rate >= lim-1e-9 {
					a.throttledDur += dt
					thr = true
				}
				s.active = append(s.active, i)
			}
			a.setFlag(acctDurBinding, thr)
			s.noteThrottle(now, i, g, thr, rate)
			if a.flags&acctThrottled != 0 {
				s.throttledIdx = append(s.throttledIdx, i)
			}
			continue
		}
		if rate <= 0 {
			a.setFlag(acctDurBinding, false)
			s.noteThrottle(now, i, g, false, 0)
			if a.flags&acctThrottled != 0 {
				s.throttledIdx = append(s.throttledIdx, i)
			}
			continue
		}
		s.active = append(s.active, i)
		used += rate
		raw := units.CPUSeconds(rate * dtSec)
		a.usage += raw
		a.windowUsage += raw
		nr := g.RunnableTasks()
		throttled := false
		binding := false
		if lim := g.CPULimit(); !math.IsInf(lim, 1) && rate >= lim-1e-9 {
			a.throttledDur += dt
			throttled = true
			binding = true
		}
		a.setFlag(acctDurBinding, binding)
		if !throttled && g.parent != nil {
			if plim := g.parent.CPULimit(); !math.IsInf(plim, 1) && alloc[g.parent.schedIdx] >= plim-1e-9 {
				throttled = true
			}
		}
		s.noteThrottle(now, i, g, throttled, rate)
		if a.flags&acctThrottled != 0 {
			s.throttledIdx = append(s.throttledIdx, i)
		}
		// Linux dequeues a bandwidth-throttled group for the rest of
		// its period, so its excess tasks do not appear in the load
		// average: a 20-thread container pinned to a 4-CPU quota
		// contributes ~4 to loadavg, not 20.
		if throttled && float64(nr) > rate {
			loadContribution += rate
		} else {
			loadContribution += float64(nr)
		}
		if nr == 0 {
			continue
		}
		perTask := rate / float64(nr)
		over := float64(nr)/rate - 1 // oversubscription excess
		if over < 0 {
			over = 0
		}
		a.perTask, a.over = perTask, over
		// Snapshot: OnTick may mutate runnable state for future ticks.
		tasks := g.tasks
		for _, t := range tasks {
			if !t.runnable {
				continue
			}
			t.LastRate = perTask
			rawT := units.CPUSeconds(perTask * dtSec)
			t.Usage += rawT
			if t.OnTick != nil {
				eff := 1.0
				if over > 0 {
					gamma := g.Gamma
					if t.Gamma > 0 {
						gamma = t.Gamma
					}
					if gamma > 0 {
						eff = 1 / (1 + gamma*over)
					}
				}
				t.OnTick(now, units.CPUSeconds(float64(rawT)*eff), rawT)
			}
		}
		if g.runnableOnTick > 0 {
			a.setFlag(acctEager, true)
			s.eagerIdx = append(s.eagerIdx, i)
		}
	}
	s.loadContrib = loadContribution

	slack := float64(s.ncpu) - used
	// Clamp floating-point residue from the water-fill: a 1e-15-CPU
	// remainder is not slack, and Algorithm 1 branches on slack == 0.
	if slack < 1e-6 {
		slack = 0
	}
	s.slackLast = slack

	s.flagsDirty = s.flagsDirty[:0]
	s.inWalk = false
}

func (a *groupAcct) setFlag(bit uint16, on bool) {
	if on {
		a.flags |= bit
	} else {
		a.flags &^= bit
	}
}

// noteThrottle updates a group's throttled flag for this tick and emits
// a transition event when tracing is on.
func (s *Scheduler) noteThrottle(now sim.Time, i int, g *Group, throttled bool, rate float64) {
	a := &s.gAcct[i]
	if a.flags&acctThrottled != 0 == throttled {
		return
	}
	a.setFlag(acctThrottled, throttled)
	if s.Trace.Enabled() {
		s.emitThrottle(now, g, throttled, rate)
	}
}

func (s *Scheduler) emitThrottle(now sim.Time, g *Group, throttled bool, rate float64) {
	kind := telemetry.KindUnthrottle
	if throttled {
		kind = telemetry.KindThrottle
	}
	s.Trace.Emit(now, kind, g.Name, int64(rate*1000), 0)
}

// SkipIdle advances the scheduler across n consecutive ticks of length
// dt during which no task is runnable, replaying exactly the per-tick
// accounting Tick would have performed on an idle host: the tick count,
// zero rates, full-capacity slack accumulation, and the load-average
// decay (iterated per tick so results stay bit-identical with dense
// stepping). now is the end of the first skipped tick, matching Tick's
// convention. The caller — the host kernel's fast-forward phase —
// guarantees the span is idle: no runnable tasks, and no timer or
// program wake that could change scheduler state mid-span.
func (s *Scheduler) SkipIdle(now sim.Time, dt time.Duration, n int) {
	if n <= 0 {
		return
	}
	if s.runnableNow != 0 {
		panic(fmt.Sprintf("cfs: SkipIdle with %d runnable tasks", s.runnableNow))
	}
	// Settle any deferred accounting at the pre-skip rates; the skipped
	// span itself accrues nothing (all rates are zero).
	s.settleAllTo(s.ticks)
	s.ticks += uint64(n)
	s.totalRunnable = 0
	for i, g := range s.groups {
		s.gRate[i] = 0
		s.noteThrottle(now, i, g, false, 0)
		s.gSettled[i] = s.ticks
	}
	s.allocValid = false
	dtSec := dt.Seconds()
	slack := float64(s.ncpu)
	s.slackLast = slack
	add := units.CPUSeconds(slack * dtSec)
	decay := s.LoadAvgTau > 0
	a := 0.0
	if decay {
		a = dtSec / s.LoadAvgTau.Seconds()
		if a > 1 {
			a = 1
		}
	}
	for i := 0; i < n; i++ {
		s.slackWindow += add
		if decay {
			s.loadAvg += (0 - s.loadAvg) * a
		}
	}
}

// NextEvent reports the scheduler's next self-scheduled instant: the
// earliest cfs_period_us boundary among groups whose bandwidth limit was
// binding in the most recent tick (their quota refreshes there, which is
// when throttling can end). ok is false when no group is throttled — an
// idle scheduler stays idle until a timer or program wakes a task.
func (s *Scheduler) NextEvent(now sim.Time) (sim.Time, bool) {
	var best sim.Time
	have := false
	for _, i := range s.throttledIdx {
		g := s.groups[i]
		if s.gAcct[i].flags&acctThrottled == 0 || g.PeriodUS <= 0 {
			continue
		}
		period := time.Duration(g.PeriodUS) * time.Microsecond
		next := now - now%period + period
		if !have || next < best {
			best, have = next, true
		}
	}
	return best, have
}
