// Dirty-set tick repair: the scheduler's tick protocol.
//
// Mutators mark the groups whose allocation inputs changed in a dirty
// set, and Tick takes one of three paths:
//
//   - quietTick: nothing dirty. Only the eager groups (active groups
//     with runnable OnTick tasks, whose callbacks must fire every tick)
//     and any flag-dirty groups are walked. All other active groups'
//     accounting is deferred: gSettled[i] records the tick through
//     which group i is settled, and settleTo replays the missing ticks
//     at the memoized rates on the next read or repair. The replay
//     performs the same per-tick float additions a full walk would
//     have, so results are bit-identical, and costs nothing until
//     someone looks.
//
//   - repairTick: a bounded dirty set. Caps are recomputed for dirty
//     groups only, and affected parents re-sum their child caps in
//     child order (the same ordered float sum the rebuild computes).
//     The top-level grants are brought current only when a top-level
//     cap, weight, or membership moved: while the fill stays
//     under-subscribed every grant is its cap, so only the re-capped
//     tops change, in O(dirty); otherwise the water fill reruns over
//     the activeTop list and only the grants that moved are settled and
//     rewritten. Only parents whose grant or limits moved refill their
//     children. Accounting then advances for the union of touched,
//     eager, and flag-dirty groups in one ascending walk — the same
//     relative order the full rebuild uses — and the active/eager
//     membership lists are patched by ordered merge. Because the load
//     contribution and slack are ordered sums over the active leaves,
//     any touched leaf triggers one O(active) dense re-sum: repair is
//     O(changes + active) under-subscribed and O(changes + tops +
//     active) otherwise, not O(groups + tasks).
//
//   - rebuildTick (cfs.go): the first tick, the tick after SkipIdle,
//     and escalation — when the dirty set reaches both an absolute
//     floor and half the active set, one full rebuild (after settling
//     all deferred accounting) re-derives everything and re-seeds the
//     repair lists, so pathological churn degrades gracefully to
//     O(groups).
//
// Marks made by OnTick callbacks during any of the three walks queue
// the next tick's repair (see Task.OnTick).
//
// Equivalence with rebuilding every tick is not asserted, it is tested:
// repair_test.go drives a repairing scheduler and a rebuild-every-tick
// reference through randomized op sequences and compares the full
// observable state every tick, and faultmix_test.go does the same for
// two full hosts under the fault mix.
package cfs

import (
	"math"
	"sort"
	"time"

	"arv/internal/sim"
	"arv/internal/units"
)

// repairEscalateMin is the dirty-set floor below which a repair never
// escalates: a handful of dirty groups on a mostly idle host repairs in
// O(tops) regardless of how small the active set is.
const repairEscalateMin = 64

// escalate reports whether the dirty set has grown past the point where
// one full rebuild is cheaper than repairing group by group.
func (s *Scheduler) escalate() bool {
	return len(s.dirty) >= repairEscalateMin && 2*len(s.dirty) >= len(s.active)
}

// noteAllocChange queues g for allocation repair on the next tick,
// unless a full rebuild is already pending.
func (s *Scheduler) noteAllocChange(g *Group) {
	if !s.allocValid {
		return
	}
	a := &s.gAcct[g.schedIdx]
	if a.flags&acctAllocDirty != 0 {
		return
	}
	a.flags |= acctAllocDirty
	s.dirty = append(s.dirty, g.schedIdx)
}

// resetRepairState drops the dirty set before a full rebuild re-derives
// everything it tracked.
func (s *Scheduler) resetRepairState() {
	for _, i := range s.dirty {
		s.gAcct[i].flags &^= acctAllocDirty
	}
	s.dirty = s.dirty[:0]
	s.pendingTopFill = false
	s.pendingResum = false
}

// settle brings the group's deferred accounting current before a read.
// No-op for removed groups (whose accounting was settled when they were
// frozen).
func (g *Group) settle() {
	if !g.removed {
		g.sched.settleLive(g.schedIdx)
	}
}

// settleLive settles group i to the present: through the current tick,
// or through the previous tick when the current tick's walk has not
// reached i yet (its accrual for this tick happens when the walk gets
// there, exactly as a full rebuild's walk would expose it).
func (s *Scheduler) settleLive(i int) {
	target := s.ticks
	if s.inWalk && i > s.walkPos {
		target--
	}
	s.settleTo(i, target)
}

// settleTo replays group i's deferred per-tick accounting deltas up to
// and including tick target: usage and window accrual at the memoized
// rate, throttled time while the limit is binding, and the runnable
// tasks' rates and usage. The replay repeats the identical per-tick
// additions a full walk performs, so the results are bit-identical.
func (s *Scheduler) settleTo(i int, target uint64) {
	done := s.gSettled[i]
	if done >= target {
		return
	}
	k := target - done
	s.gSettled[i] = target
	rate := s.gRate[i]
	if rate <= 0 {
		return
	}
	a := &s.gAcct[i]
	raw := units.CPUSeconds(rate * s.lastDtSec)
	for j := uint64(0); j < k; j++ {
		a.usage += raw
		a.windowUsage += raw
	}
	if a.flags&acctDurBinding != 0 {
		a.throttledDur += time.Duration(k) * s.lastDt
	}
	if a.perTask == 0 {
		return
	}
	perTask := a.perTask
	rawT := units.CPUSeconds(perTask * s.lastDtSec)
	for _, t := range s.groups[i].tasks {
		if !t.runnable {
			continue
		}
		if t.OnTick != nil {
			panic("cfs: OnTick installed after SetRunnable (install OnTick before making the task runnable)")
		}
		t.LastRate = perTask
		for j := uint64(0); j < k; j++ {
			t.Usage += rawT
		}
	}
}

// settleAllTo settles every group to target (before a full rebuild or
// an idle skip).
func (s *Scheduler) settleAllTo(target uint64) {
	for i := range s.groups {
		s.settleTo(i, target)
	}
}

// quietTick is the steady-state tick: nothing is dirty, so only the
// eager groups (whose OnTick callbacks must fire) and any flag-dirty
// groups are walked, merged in ascending slot order. All other
// accounting is deferred to settleTo.
func (s *Scheduler) quietTick(now sim.Time, dt time.Duration, dtSec float64) {
	s.totalRunnable = s.runnableNow
	if len(s.flagsDirty) > 1 {
		sort.Ints(s.flagsDirty)
	}
	// Only a flag refresh can move the load contribution of a quiet
	// tick. When one is pending, record the eager leaves' runnable
	// counts as of their visit, so an OnTick block mid-walk does not
	// leak into this tick's re-sum.
	snap := len(s.flagsDirty) > 0
	s.nrSnapIdx = s.nrSnapIdx[:0]
	s.nrSnapVal = s.nrSnapVal[:0]
	contribDirty := false
	s.inWalk = true
	ei, fi := 0, 0
	for ei < len(s.eagerIdx) || fi < len(s.flagsDirty) {
		var i int
		eager := false
		switch {
		case fi >= len(s.flagsDirty):
			i, eager = s.eagerIdx[ei], true
			ei++
		case ei >= len(s.eagerIdx):
			i = s.flagsDirty[fi]
			fi++
		case s.eagerIdx[ei] <= s.flagsDirty[fi]:
			i, eager = s.eagerIdx[ei], true
			if s.flagsDirty[fi] == i {
				fi++
			}
			ei++
		default:
			i = s.flagsDirty[fi]
			fi++
		}
		s.walkPos = i
		g := s.groups[i]
		if eager {
			if snap {
				s.snapNr(i, g.runnable)
			}
			// Stamp before the walk body: tickGroup accrues this tick
			// eagerly, and its OnTick callbacks may trigger settles of
			// this very group (e.g. a self-block).
			s.gSettled[i] = s.ticks
			// tickGroup re-evaluates an acctFlagsDirty mark inline.
			if s.tickGroup(now, i, g, dt, dtSec) {
				contribDirty = true
			}
			continue
		}
		if s.refreshQuiet(now, i, g, dt, dtSec) {
			contribDirty = true
		}
	}
	s.inWalk = false
	if len(s.flagsDirty) > 0 {
		for _, i := range s.flagsDirty {
			s.gAcct[i].flags &^= acctFlagsDirty
		}
		s.flagsDirty = s.flagsDirty[:0]
	}
	if contribDirty {
		s.recomputeLeafSums()
	}
}

// refreshQuiet re-evaluates a flag-dirty quiet group mid-walk: settle
// its deferred ticks, accrue the current tick, and re-run the throttle
// evaluation exactly as the rebuild would. Inactive groups need nothing:
// their zero rate cannot bind a limit, and the tick that made them
// inactive already cleared their throttle state. Reports whether a leaf
// throttle flag moved.
func (s *Scheduler) refreshQuiet(now sim.Time, i int, g *Group, dt time.Duration, dtSec float64) bool {
	rate := s.gRate[i]
	if rate <= 0 {
		return false
	}
	s.settleTo(i, s.ticks-1)
	a := &s.gAcct[i]
	raw := units.CPUSeconds(rate * dtSec)
	a.usage += raw
	a.windowUsage += raw
	moved := s.refreshThrottle(now, i, g, rate, dt)
	if a.perTask != 0 {
		perTask := a.perTask
		rawT := units.CPUSeconds(perTask * dtSec)
		// Quiet groups hold no runnable OnTick tasks (they would be
		// eager), so this is pure accrual.
		for _, t := range g.tasks {
			if !t.runnable {
				continue
			}
			t.LastRate = perTask
			t.Usage += rawT
		}
	}
	s.gSettled[i] = s.ticks
	return moved
}

// repairTick recomputes the allocation for the dirty groups only and
// advances this tick's accounting for every group the recompute (or an
// OnTick obligation, or a pending flag refresh) touches.
func (s *Scheduler) repairTick(now sim.Time, dt time.Duration, dtSec float64) {
	prev := s.ticks - 1
	s.totalRunnable = s.runnableNow
	sort.Ints(s.dirty)
	// This tick repairs the dirty set as it stands now. Marks OnTick
	// callbacks make during the walk append past it and are carried to
	// the next tick below.
	dirty := s.dirty
	s.repairChanged = s.repairChanged[:0]
	topFill := s.pendingTopFill
	s.pendingTopFill = false

	// Phase 1: recompute dirty caps (leaves, then affected parents in
	// ascending order, so parent sums see fresh child caps) and queue
	// child refills. Any dirty top-level group can reweight or re-cap
	// the top fill; so can a parent whose summed cap moved.
	parents := s.repairParents[:0]
	s.topAdds = s.topAdds[:0]
	s.topRemoved = false
	// unweighted: a top-level group this phase touches has no positive
	// weight, so the fill may not saturate everyone (see phase 2).
	unweighted := false
	for _, i := range dirty {
		g := s.groups[i]
		a := &s.gAcct[i]
		// Consume the mark now: a re-mark from an OnTick callback later
		// this tick must enqueue a fresh repair.
		a.flags &^= acctAllocDirty
		s.settleTo(i, prev)
		if g.parent == nil {
			topFill = true
			unweighted = unweighted || g.Shares <= 0
		}
		if len(g.children) > 0 {
			if a.flags&acctRefill == 0 {
				a.flags |= acctRefill
				parents = append(parents, i)
			}
			continue
		}
		s.gCap[i] = s.capOf(g)
		if g.parent != nil {
			p := g.parent.schedIdx
			pa := &s.gAcct[p]
			if pa.flags&acctRefill == 0 {
				pa.flags |= acctRefill
				parents = append(parents, p)
			}
		} else {
			s.noteTopMembership(i)
		}
	}
	sort.Ints(parents)
	for _, p := range parents {
		g := s.groups[p]
		s.settleTo(p, prev)
		unweighted = unweighted || g.Shares <= 0
		old := s.gCap[p]
		s.gCap[p] = s.capOf(g)
		if s.gCap[p] != old {
			topFill = true
		}
		s.noteTopMembership(p)
	}
	if len(s.topAdds) > 0 || s.topRemoved {
		if len(s.topAdds) > 1 {
			sort.Ints(s.topAdds)
		}
		s.activeTop, s.topBuf = mergeIdx(s.activeTop, s.topAdds, s.gAcct, acctTop, s.topBuf)
		topFill = true
	}

	// Phase 2: bring the top-level grants current. While the fill is
	// under-subscribed every participant's grant is its cap, so when the
	// last fill was and this one still is, only a top whose cap this
	// tick recomputed — a dirty top or a parent, all settled in phase 1
	// — can move. Otherwise the fill reruns over every participant, and
	// only the groups whose grant moved are settled at their old rate
	// before the new one is written.
	if topFill {
		dirtyOnly := s.topUnder && !unweighted && underSubscribed(s.gCap, s.activeTop, float64(s.ncpu))
		if dirtyOnly {
			for _, list := range [2][]int{dirty, parents} {
				for _, i := range list {
					if s.gAcct[i].flags&acctTop != 0 && s.gRate[i] != s.gCap[i] {
						s.gRate[i] = s.gCap[i]
						s.repairChanged = append(s.repairChanged, i)
					}
				}
			}
		} else {
			old := s.repairOld[:0]
			for _, i := range s.activeTop {
				old = append(old, s.gRate[i])
				s.gRate[i] = 0
			}
			tops := append(s.scratchTop[:0], s.activeTop...)
			s.topUnder = waterfill(s.groups, s.gCap, s.gRate, tops, float64(s.ncpu))
			s.scratchTop = tops[:0]
			for k, i := range s.activeTop {
				if grant := s.gRate[i]; grant != old[k] {
					s.gRate[i] = old[k]
					s.settleTo(i, prev)
					s.gRate[i] = grant
					s.repairChanged = append(s.repairChanged, i)
				}
			}
			s.repairOld = old
		}
		if s.onTopPhase != nil {
			s.onTopPhase(dirtyOnly)
		}
	}

	// Phase 3: refill the children of every queued or rate-changed
	// parent, in the same child order the rebuild fills. All children
	// of a refilled parent count as touched: the parent's limit or
	// grant moved, which can flip a child's throttle state without
	// moving the child's own rate.
	for _, i := range s.repairChanged {
		if len(s.groups[i].children) == 0 {
			continue
		}
		a := &s.gAcct[i]
		if a.flags&acctRefill == 0 {
			a.flags |= acctRefill
			parents = append(parents, i)
		}
	}
	sort.Ints(parents)
	for _, p := range parents {
		s.gAcct[p].flags &^= acctRefill
		g := s.groups[p]
		grant := s.gRate[p]
		childActive := s.scratchChild[:0]
		for _, c := range g.children {
			ci := c.schedIdx
			s.settleTo(ci, prev)
			s.gRate[ci] = 0
			if s.gCap[ci] > 0 {
				childActive = append(childActive, ci)
			}
			s.repairChanged = append(s.repairChanged, ci)
		}
		if grant > 0 {
			waterfill(s.groups, s.gCap, s.gRate, childActive, grant)
		}
		s.scratchChild = childActive[:0]
	}
	s.repairParents = parents[:0]

	// Phase 4: one ascending accounting walk over the union of touched
	// (dirty ∪ changed), eager, and flag-dirty groups — the relative
	// order the full rebuild would process them in.
	changed := s.repairChanged
	sort.Ints(changed)
	if len(s.flagsDirty) > 1 {
		sort.Ints(s.flagsDirty)
	}
	s.activeAdds = s.activeAdds[:0]
	s.eagerAdds = s.eagerAdds[:0]
	s.activeRemoved, s.eagerRemoved = false, false
	s.nrSnapIdx = s.nrSnapIdx[:0]
	s.nrSnapVal = s.nrSnapVal[:0]
	resum := s.pendingResum
	s.pendingResum = false
	s.inWalk = true
	const none = int(^uint(0) >> 1)
	di, ci, ei, fi := 0, 0, 0, 0
	for {
		i := none
		if di < len(dirty) && dirty[di] < i {
			i = dirty[di]
		}
		if ci < len(changed) && changed[ci] < i {
			i = changed[ci]
		}
		if ei < len(s.eagerIdx) && s.eagerIdx[ei] < i {
			i = s.eagerIdx[ei]
		}
		if fi < len(s.flagsDirty) && s.flagsDirty[fi] < i {
			i = s.flagsDirty[fi]
		}
		if i == none {
			break
		}
		touched := false
		if di < len(dirty) && dirty[di] == i {
			di++
			touched = true
		}
		for ci < len(changed) && changed[ci] == i {
			ci++
			touched = true
		}
		eager := false
		if ei < len(s.eagerIdx) && s.eagerIdx[ei] == i {
			ei++
			eager = true
		}
		if fi < len(s.flagsDirty) && s.flagsDirty[fi] == i {
			fi++
		}
		s.walkPos = i
		g := s.groups[i]
		switch {
		case touched:
			if len(g.children) == 0 {
				resum = true
				s.snapNr(i, g.runnable)
			}
			s.repairAccount(now, i, g, dt, dtSec)
		case eager:
			s.snapNr(i, g.runnable)
			s.gSettled[i] = s.ticks // before OnTick can settle this group
			if s.tickGroup(now, i, g, dt, dtSec) {
				resum = true
			}
		default: // flag-dirty only
			if s.refreshQuiet(now, i, g, dt, dtSec) {
				resum = true
			}
		}
	}
	s.inWalk = false

	if len(s.activeAdds) > 0 || s.activeRemoved {
		s.active, s.activeBuf = mergeIdx(s.active, s.activeAdds, s.gAcct, acctActive, s.activeBuf)
	}
	if len(s.eagerAdds) > 0 || s.eagerRemoved {
		s.eagerIdx, s.eagerBuf = mergeIdx(s.eagerIdx, s.eagerAdds, s.gAcct, acctEager, s.eagerBuf)
	}
	if resum {
		// A leaf's rate, runnable count, or throttle flag moved: the
		// slack and load contribution are ordered sums over the active
		// leaves, re-derived in full so they stay bit-identical to the
		// rebuild's. The contribution uses each walked leaf's runnable
		// count as of its walk visit (snapNr): an OnTick callback that
		// blocks its task mid-walk must not retroactively change this
		// tick's sum, exactly as in the rebuild's interleaved
		// accumulation.
		s.recomputeLeafSums()
	}

	s.dirty = append(s.dirty[:0], s.dirty[len(dirty):]...)
	for _, i := range s.flagsDirty {
		s.gAcct[i].flags &^= acctFlagsDirty
	}
	s.flagsDirty = s.flagsDirty[:0]
	s.repairChanged = changed[:0]
}

// noteTopMembership records a top-level group entering or leaving the
// fill set after its cap crossed zero. A leaver's rate is zeroed here
// (the fill no longer visits it) and the group is queued as changed so
// the accounting walk retires it from the active set.
func (s *Scheduler) noteTopMembership(i int) {
	a := &s.gAcct[i]
	want := s.gCap[i] > 0
	if want == (a.flags&acctTop != 0) {
		return
	}
	a.setFlag(acctTop, want)
	if want {
		s.topAdds = append(s.topAdds, i)
		return
	}
	s.topRemoved = true
	if s.gRate[i] != 0 {
		s.gRate[i] = 0
		s.repairChanged = append(s.repairChanged, i)
	}
}

// repairAccount advances one touched group's accounting for this tick
// with the exact operation sequence the rebuild's per-group body uses,
// and maintains the group's membership in the active/eager lists.
func (s *Scheduler) repairAccount(now sim.Time, i int, g *Group, dt time.Duration, dtSec float64) {
	rate := s.gRate[i]
	a := &s.gAcct[i]
	a.perTask, a.over = 0, 0
	a.flags &^= acctFlagsDirty
	s.gSettled[i] = s.ticks
	if len(g.children) > 0 {
		thr := false
		if rate > 0 {
			raw := units.CPUSeconds(rate * dtSec)
			a.usage += raw
			a.windowUsage += raw
			if lim := g.CPULimit(); !math.IsInf(lim, 1) && rate >= lim-1e-9 {
				a.throttledDur += dt
				thr = true
			}
		}
		s.markActive(i, rate > 0)
		a.setFlag(acctDurBinding, thr)
		s.noteThrottleTracked(now, i, g, thr, rate)
		return
	}
	if rate <= 0 {
		a.setFlag(acctDurBinding, false)
		s.noteThrottleTracked(now, i, g, false, 0)
		s.markActive(i, false)
		s.markEager(i, false)
		return
	}
	s.markActive(i, true)
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
		if plim := g.parent.CPULimit(); !math.IsInf(plim, 1) && s.gRate[g.parent.schedIdx] >= plim-1e-9 {
			throttled = true
		}
	}
	s.noteThrottleTracked(now, i, g, throttled, rate)
	if nr == 0 {
		s.markEager(i, false)
		return
	}
	perTask := rate / float64(nr)
	over := float64(nr)/rate - 1
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
	// Eager membership is evaluated after the task walk so a callback
	// that just blocked the last OnTick task leaves the group deferred
	// (its accounting from here on is pure accrual, which settles).
	s.markEager(i, g.runnableOnTick > 0)
}

// snapNr records a walked leaf's runnable count at visit time for the
// post-walk load-contribution re-sum. Visits are ascending, so the
// snapshot list stays sorted.
func (s *Scheduler) snapNr(i, nr int) {
	s.nrSnapIdx = append(s.nrSnapIdx, i)
	s.nrSnapVal = append(s.nrSnapVal, nr)
}

// recomputeLeafSums re-derives the slack and the load contribution in
// one ascending pass over the active leaves. Each keeps the rebuild's
// own ordered sum, so both stay bit-identical; a quiet tick's call
// re-derives the unchanged slack to the same value. Leaves this tick's
// walk visited contribute their runnable counts as of the visit
// (snapNr), like the rebuild's interleaved accumulation.
func (s *Scheduler) recomputeLeafSums() {
	used, contrib := 0.0, 0.0
	k := 0
	for _, i := range s.active {
		g := s.groups[i]
		if len(g.children) > 0 {
			continue
		}
		rate := s.gRate[i]
		used += rate
		nr := g.runnable
		for k < len(s.nrSnapIdx) && s.nrSnapIdx[k] < i {
			k++
		}
		if k < len(s.nrSnapIdx) && s.nrSnapIdx[k] == i {
			nr = s.nrSnapVal[k]
		}
		if s.gAcct[i].flags&acctThrottled != 0 && float64(nr) > rate {
			contrib += rate
		} else {
			contrib += float64(nr)
		}
	}
	slack := float64(s.ncpu) - used
	if slack < 1e-6 {
		slack = 0
	}
	s.slackLast = slack
	s.loadContrib = contrib
}

// markActive / markEager update a group's membership bit and queue the
// list patch (ordered merge after the walk).
func (s *Scheduler) markActive(i int, want bool) {
	a := &s.gAcct[i]
	if want == (a.flags&acctActive != 0) {
		return
	}
	a.setFlag(acctActive, want)
	if want {
		s.activeAdds = append(s.activeAdds, i)
	} else {
		s.activeRemoved = true
	}
}

func (s *Scheduler) markEager(i int, want bool) {
	a := &s.gAcct[i]
	if want == (a.flags&acctEager != 0) {
		return
	}
	a.setFlag(acctEager, want)
	if want {
		s.eagerAdds = append(s.eagerAdds, i)
	} else {
		s.eagerRemoved = true
	}
}

// mergeIdx rebuilds a sorted membership list: entries whose bit was
// cleared drop out, adds (sorted, bit already set, disjoint from old)
// merge in. Returns the new list and the old backing array as the next
// spare buffer — zero allocations once the buffers are warm.
func mergeIdx(old, adds []int, acct []groupAcct, bit uint16, buf []int) (out, spare []int) {
	out = buf[:0]
	j := 0
	for _, v := range old {
		for j < len(adds) && adds[j] < v {
			out = append(out, adds[j])
			j++
		}
		if acct[v].flags&bit != 0 {
			out = append(out, v)
		}
	}
	for ; j < len(adds); j++ {
		out = append(out, adds[j])
	}
	return out, old[:0]
}

// patchIdxList drops the removed slot from an index list and shifts the
// entries RemoveGroup's compaction moved down, preserving order.
func patchIdxList(list []int, removed int) []int {
	out := list[:0]
	for _, v := range list {
		switch {
		case v == removed:
		case v > removed:
			out = append(out, v-1)
		default:
			out = append(out, v)
		}
	}
	return out
}

// compactThrottledIdx dedupes the throttled superset list down to the
// currently flagged groups. Rebuilds (which reset the list) may never
// run, so repeated throttle cycles would otherwise grow it without
// bound.
func (s *Scheduler) compactThrottledIdx() {
	sort.Ints(s.throttledIdx)
	out := s.throttledIdx[:0]
	prev := -1
	for _, i := range s.throttledIdx {
		if i != prev && s.gAcct[i].flags&acctThrottled != 0 {
			out = append(out, i)
		}
		prev = i
	}
	s.throttledIdx = out
}
