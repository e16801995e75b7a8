package cfs

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"arv/internal/flightrec"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// mirror drives two schedulers through the same operation sequence and
// asserts every observable value stays bit-identical: the eager arm is
// the reference, ticked through TickRebuild so it rebuilds the whole
// allocation every tick; the repair arm ticks through the production
// dispatch. It is the executable form of the equivalence argument in
// DESIGN.md §15. When a comparison fails, the last flightEvents trace
// events of both arms are logged.
type mirror struct {
	t     *testing.T
	eager *Scheduler
	rep   *Scheduler
	now   time.Duration
	dt    time.Duration

	groups []mirrorGroup
	tasks  []mirrorTask
}

type mirrorGroup struct {
	e, r *Group
}

type mirrorTask struct {
	e, r *Task
	// useful accumulates OnTick's useful-work argument per arm, so the
	// callback stream itself is part of the compared state.
	useful [2]float64
}

func newMirror(t *testing.T, ncpu int) *mirror {
	m := &mirror{
		t:     t,
		eager: NewScheduler(ncpu),
		rep:   NewScheduler(ncpu),
		dt:    time.Millisecond,
	}
	m.eager.LoadAvgTau = time.Second
	m.rep.LoadAvgTau = time.Second
	m.eager.Trace = telemetry.New(flightrec.Events)
	m.rep.Trace = telemetry.New(flightrec.Events)
	flightrec.Record(t, flightrec.Arm{Name: "eager", Trace: m.eager.Trace}, flightrec.Arm{Name: "repair", Trace: m.rep.Trace})
	return m
}

func (m *mirror) newGroup(name string) int {
	m.groups = append(m.groups, mirrorGroup{m.eager.NewGroup(name), m.rep.NewGroup(name)})
	return len(m.groups) - 1
}

func (m *mirror) newChild(parent int, name string) int {
	p := m.groups[parent]
	m.groups = append(m.groups, mirrorGroup{
		m.eager.NewChildGroup(p.e, name),
		m.rep.NewChildGroup(p.r, name),
	})
	return len(m.groups) - 1
}

// newTask creates a mirrored task; onTickEvery > 0 installs an OnTick
// callback (before any SetRunnable, per the repair contract) that
// accumulates useful work and blocks the task on every onTickEvery-th
// invocation — a deterministic mid-tick state change both arms replay
// identically.
func (m *mirror) newTask(group int, name string, onTickEvery int) int {
	g := m.groups[group]
	te := m.eager.NewTask(g.e, name)
	tr := m.rep.NewTask(g.r, name)
	m.tasks = append(m.tasks, mirrorTask{e: te, r: tr})
	k := len(m.tasks) - 1
	if onTickEvery > 0 {
		hook := func(arm int, s *Scheduler, t *Task) func(time.Duration, units.CPUSeconds, units.CPUSeconds) {
			calls := 0
			return func(now time.Duration, useful, raw units.CPUSeconds) {
				m.tasks[k].useful[arm] += float64(useful)
				calls++
				if calls%onTickEvery == 0 {
					s.SetRunnable(t, false)
				}
			}
		}
		te.OnTick = hook(0, m.eager, te)
		tr.OnTick = hook(1, m.rep, tr)
	}
	return k
}

func (m *mirror) setRunnable(task int, run bool) {
	tk := &m.tasks[task]
	if tk.e.removed || tk.e.runnable == run {
		return
	}
	m.eager.SetRunnable(tk.e, run)
	m.rep.SetRunnable(tk.r, run)
}

func (m *mirror) removeTask(task int) {
	tk := &m.tasks[task]
	if tk.e.removed {
		return
	}
	m.eager.RemoveTask(tk.e)
	m.rep.RemoveTask(tk.r)
}

func (m *mirror) removeGroup(group int) {
	g := m.groups[group]
	if g.e.removed {
		return
	}
	m.eager.RemoveGroup(g.e)
	m.rep.RemoveGroup(g.r)
}

func (m *mirror) tick() {
	m.now += m.dt
	m.eager.TickRebuild(m.now, m.dt)
	m.rep.Tick(m.now, m.dt)
}

// check compares every observable across the two arms. Float values are
// compared bitwise: the repair protocol promises the identical sequence
// of float operations, not approximate equality.
func (m *mirror) check(ctx string) {
	t := m.t
	t.Helper()
	eq := func(what string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: %s diverged: eager %v (%x) repair %v (%x)",
				ctx, what, a, math.Float64bits(a), b, math.Float64bits(b))
		}
	}
	if len(m.eager.groups) != len(m.rep.groups) {
		t.Fatalf("%s: group count diverged: %d vs %d", ctx, len(m.eager.groups), len(m.rep.groups))
	}
	for i := range m.eager.groups {
		eq(fmt.Sprintf("gCap[%d] (%s)", i, m.eager.groups[i].Name), m.eager.gCap[i], m.rep.gCap[i])
		eq(fmt.Sprintf("gRate[%d] (%s)", i, m.eager.groups[i].Name), m.eager.gRate[i], m.rep.gRate[i])
	}
	if la, lb := m.eager.active, m.rep.active; !intSliceEq(la, lb) {
		t.Fatalf("%s: active diverged: eager %v repair %v", ctx, la, lb)
	}
	eq("loadContrib", m.eager.loadContrib, m.rep.loadContrib)
	eq("slackLast", m.eager.slackLast, m.rep.slackLast)
	eq("loadAvg", m.eager.loadAvg, m.rep.loadAvg)
	eq("slackWindow", float64(m.eager.slackWindow), float64(m.rep.slackWindow))
	if m.eager.totalRunnable != m.rep.totalRunnable {
		t.Fatalf("%s: totalRunnable diverged: %d vs %d", ctx, m.eager.totalRunnable, m.rep.totalRunnable)
	}
	if m.eager.runnableNow != m.rep.runnableNow {
		t.Fatalf("%s: runnableNow diverged: %d vs %d", ctx, m.eager.runnableNow, m.rep.runnableNow)
	}
	for gi := range m.groups {
		ge, gr := m.groups[gi].e, m.groups[gi].r
		if ge.removed != gr.removed {
			t.Fatalf("%s: group %s removed-state diverged", ctx, ge.Name)
		}
		// The reads below settle the repair arm's deferred accounting —
		// reads are part of the contract under test.
		eq("usage "+ge.Name, float64(ge.Usage()), float64(gr.Usage()))
		eq("windowUsage "+ge.Name, float64(ge.PeekWindowUsage()), float64(gr.PeekWindowUsage()))
		if ge.ThrottledTime() != gr.ThrottledTime() {
			t.Fatalf("%s: throttledDur %s diverged: %v vs %v", ctx, ge.Name, ge.ThrottledTime(), gr.ThrottledTime())
		}
		if ge.Throttled() != gr.Throttled() {
			t.Fatalf("%s: throttled flag %s diverged: %v vs %v", ctx, ge.Name, ge.Throttled(), gr.Throttled())
		}
		if ge.RunnableTasks() != gr.RunnableTasks() {
			t.Fatalf("%s: runnable count %s diverged", ctx, ge.Name)
		}
		eq("lastRate "+ge.Name, ge.LastRate(), gr.LastRate())
	}
	for ti := range m.tasks {
		tk := &m.tasks[ti]
		if tk.e.runnable != tk.r.runnable {
			t.Fatalf("%s: task %d runnable diverged", ctx, ti)
		}
		// Group reads above settled the task replay too.
		eq(fmt.Sprintf("task[%d].Usage", ti), float64(tk.e.Usage), float64(tk.r.Usage))
		eq(fmt.Sprintf("task[%d].LastRate", ti), tk.e.LastRate, tk.r.LastRate)
		eq(fmt.Sprintf("task[%d] useful work", ti), tk.useful[0], tk.useful[1])
	}
	ne, oke := m.eager.NextEvent(m.now)
	nr, okr := m.rep.NextEvent(m.now)
	if ne != nr || oke != okr {
		t.Fatalf("%s: NextEvent diverged: (%v,%v) vs (%v,%v)", ctx, ne, oke, nr, okr)
	}
	m.checkRepairInvariants(ctx)
}

// checkRepairInvariants validates the repair arm's internal index lists
// against first principles.
func (m *mirror) checkRepairInvariants(ctx string) {
	t := m.t
	t.Helper()
	s := m.rep
	if !s.allocValid {
		return
	}
	var wantEager, wantTop []int
	for i, g := range s.groups {
		if s.gRate[i] > 0 && len(g.children) == 0 && g.runnableOnTick > 0 {
			wantEager = append(wantEager, i)
		}
		if g.parent == nil && s.gCap[i] > 0 {
			wantTop = append(wantTop, i)
		}
		if got := s.gAcct[i].flags&acctActive != 0; got != (s.gRate[i] > 0) {
			t.Fatalf("%s: acctActive[%d] inconsistent with rate %v", ctx, i, s.gRate[i])
		}
	}
	// eagerIdx may lag a mid-walk OnTick state change by one tick — but
	// only for groups sitting in the dirty set awaiting repair.
	have := map[int]bool{}
	for _, i := range s.eagerIdx {
		have[i] = true
	}
	for _, i := range wantEager {
		if !have[i] && s.gAcct[i].flags&acctAllocDirty == 0 {
			t.Fatalf("%s: eagerIdx %v missing %d and it is not dirty", ctx, s.eagerIdx, i)
		}
		delete(have, i)
	}
	for i := range have {
		if s.gAcct[i].flags&acctAllocDirty == 0 {
			t.Fatalf("%s: eagerIdx %v has stale non-dirty entry %d", ctx, s.eagerIdx, i)
		}
	}
	if !intSliceEq(s.activeTop, wantTop) {
		t.Fatalf("%s: activeTop %v, want %v", ctx, s.activeTop, wantTop)
	}
	for i := range s.groups {
		if s.gSettled[i] > s.ticks {
			t.Fatalf("%s: gSettled[%d]=%d beyond ticks=%d", ctx, i, s.gSettled[i], s.ticks)
		}
	}
}

func intSliceEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// liveGroup picks a random non-removed group index, or -1.
func (m *mirror) liveGroup(rng *rand.Rand) int {
	for try := 0; try < 8; try++ {
		i := rng.Intn(len(m.groups))
		if !m.groups[i].e.removed {
			return i
		}
	}
	return -1
}

// liveLeaf picks a random non-removed childless group index, or -1.
func (m *mirror) liveLeaf(rng *rand.Rand) int {
	for try := 0; try < 8; try++ {
		i := rng.Intn(len(m.groups))
		if g := m.groups[i].e; !g.removed && len(g.children) == 0 {
			return i
		}
	}
	return -1
}

var quotaPalette = [][2]int64{
	{-1, 100_000},
	{25_000, 100_000},  // 0.25 CPU
	{50_000, 100_000},  // 0.5 CPU
	{100_000, 100_000}, // 1 CPU
	{200_000, 100_000}, // 2 CPUs
	{400_000, 100_000}, // 4 CPUs
	{100_000, 50_000},  // 2 CPUs, shorter period
	{-1, 50_000},       // pure period change
}

var sharesPalette = []int64{128, 256, 512, 1024, 2048, 4096}

// step applies one random mirrored operation. Returns true when the op
// was a tick (callers in lockstep mode compare after every tick).
func (m *mirror) step(rng *rand.Rand) bool {
	switch r := rng.Intn(100); {
	case r < 34:
		m.tick()
		return true
	case r < 50: // toggle a task
		if len(m.tasks) > 0 {
			ti := rng.Intn(len(m.tasks))
			m.setRunnable(ti, !m.tasks[ti].e.runnable)
		}
	case r < 62: // quota write (the dominant churn op at scale)
		if gi := m.liveGroup(rng); gi >= 0 {
			q := quotaPalette[rng.Intn(len(quotaPalette))]
			m.eager.SetQuota(m.groups[gi].e, q[0], q[1])
			m.rep.SetQuota(m.groups[gi].r, q[0], q[1])
		}
	case r < 70: // shares write
		if gi := m.liveGroup(rng); gi >= 0 {
			sh := sharesPalette[rng.Intn(len(sharesPalette))]
			m.eager.SetShares(m.groups[gi].e, sh)
			m.rep.SetShares(m.groups[gi].r, sh)
		}
	case r < 75: // cpuset write
		if gi := m.liveGroup(rng); gi >= 0 {
			n := rng.Intn(4) // 0 = unrestricted
			m.eager.SetCpuset(m.groups[gi].e, n)
			m.rep.SetCpuset(m.groups[gi].r, n)
		}
	case r < 81: // grow the hierarchy
		if len(m.groups) < 48 {
			name := fmt.Sprintf("g%d", len(m.groups))
			if rng.Intn(3) == 0 {
				p := m.newGroup(name + "p")
				for c := 0; c < 2+rng.Intn(3); c++ {
					ci := m.newChild(p, fmt.Sprintf("%sc%d", name, c))
					ti := m.newTask(ci, "t", pickOnTick(rng))
					if rng.Intn(2) == 0 {
						m.setRunnable(ti, true)
					}
				}
			} else {
				gi := m.newGroup(name)
				ti := m.newTask(gi, "t", pickOnTick(rng))
				if rng.Intn(2) == 0 {
					m.setRunnable(ti, true)
				}
			}
		}
	case r < 86: // add a task to an existing leaf
		if gi := m.liveLeaf(rng); gi >= 0 && len(m.tasks) < 96 {
			ti := m.newTask(gi, "t+", pickOnTick(rng))
			if rng.Intn(2) == 0 {
				m.setRunnable(ti, true)
			}
		}
	case r < 90:
		if len(m.tasks) > 0 {
			m.removeTask(rng.Intn(len(m.tasks)))
		}
	case r < 93:
		if gi := m.liveGroup(rng); gi >= 0 {
			m.removeGroup(gi)
		}
	case r < 97: // mid-run reads (settle-on-read is under test)
		if gi := m.liveGroup(rng); gi >= 0 {
			ge, gr := m.groups[gi].e, m.groups[gi].r
			if rng.Intn(2) == 0 {
				if a, b := ge.TakeWindowUsage(), gr.TakeWindowUsage(); math.Float64bits(float64(a)) != math.Float64bits(float64(b)) {
					m.t.Fatalf("TakeWindowUsage diverged on %s: %v vs %v", ge.Name, a, b)
				}
			} else {
				ge.Usage()
				gr.Usage()
			}
		}
	default: // write burst: many dirty marks in one tick gap
		for n := 0; n < 20; n++ {
			if gi := m.liveGroup(rng); gi >= 0 {
				sh := sharesPalette[rng.Intn(len(sharesPalette))]
				m.eager.SetShares(m.groups[gi].e, sh)
				m.rep.SetShares(m.groups[gi].r, sh)
			}
		}
	}
	return false
}

func pickOnTick(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return 0 // plain task: deferrable accounting
	case 1:
		return 23 // OnTick task that blocks itself every 23rd tick
	default:
		return 1 << 30 // OnTick task that never blocks
	}
}

// seedMirror builds a representative starting topology: flat groups,
// one two-level subtree, a spread of quotas and shares, some runnable.
func seedMirror(m *mirror, rng *rand.Rand, flat int) {
	for i := 0; i < flat; i++ {
		gi := m.newGroup(fmt.Sprintf("seed%d", i))
		q := quotaPalette[rng.Intn(len(quotaPalette))]
		m.eager.SetQuota(m.groups[gi].e, q[0], q[1])
		m.rep.SetQuota(m.groups[gi].r, q[0], q[1])
		ti := m.newTask(gi, "t", pickOnTick(rng))
		if i%2 == 0 {
			m.setRunnable(ti, true)
		}
	}
	p := m.newGroup("seedp")
	for c := 0; c < 3; c++ {
		ci := m.newChild(p, fmt.Sprintf("seedpc%d", c))
		ti := m.newTask(ci, "t", pickOnTick(rng))
		if c != 1 {
			m.setRunnable(ti, true)
		}
	}
	q := quotaPalette[4]
	m.eager.SetQuota(m.groups[p].e, q[0], q[1])
	m.rep.SetQuota(m.groups[p].r, q[0], q[1])
}

// TestRepairMirrorsEagerLockstep is the core property test: random op
// sequences against mirrored schedulers, full observable-state equality
// asserted after every tick.
func TestRepairMirrorsEagerLockstep(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runStepMirror(t, seed, 500)
		})
	}
}

// runStepMirror seeds a mirror from seed and applies ops random
// operations, comparing full state after every tick.
func runStepMirror(t *testing.T, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	m := newMirror(t, 4)
	seedMirror(m, rng, 6+int(seed%5+5)%5)
	m.check("after seed")
	for op := 0; op < ops; op++ {
		if m.step(rng) {
			m.check(fmt.Sprintf("op %d (tick %d)", op, m.rep.ticks))
		}
	}
	m.check("final")
}

// TestRepairMirrorsEagerDeferred runs with almost no mid-run reads or
// comparisons, so the repair arm accumulates long deferred-accounting
// windows (hundreds of ticks) before one settling comparison at the
// end — the regime the scale benchmark lives in.
func TestRepairMirrorsEagerDeferred(t *testing.T) {
	for seed := int64(100); seed < 108; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := newMirror(t, 4)
			seedMirror(m, rng, 8)
			ticks := 0
			for op := 0; op < 1200; op++ {
				if m.step(rng) {
					ticks++
					if ticks%256 == 0 {
						m.check(fmt.Sprintf("periodic at tick %d", m.rep.ticks))
					}
				}
			}
			m.check("final")
		})
	}
}

// TestRepairVariableDt exercises the tick-length change path: the
// deferred replay assumes a constant dt, so a change must settle
// everything first.
func TestRepairVariableDt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := newMirror(t, 4)
	seedMirror(m, rng, 8)
	for phase, dt := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 500 * time.Microsecond, time.Millisecond} {
		m.dt = dt
		for op := 0; op < 120; op++ {
			m.step(rng)
		}
		m.check(fmt.Sprintf("phase %d dt=%v", phase, dt))
	}
}

// TestRepairSkipIdle checks the idle fast-forward: all tasks blocked,
// SkipIdle on both arms, then resumed activity.
func TestRepairSkipIdle(t *testing.T) {
	m := newMirror(t, 4)
	// Plain tasks only: OnTick self-blockers would desync the manual
	// block step below.
	for i := 0; i < 6; i++ {
		gi := m.newGroup(fmt.Sprintf("g%d", i))
		ti := m.newTask(gi, "t", 0)
		m.setRunnable(ti, true)
	}
	for i := 0; i < 40; i++ {
		m.tick()
	}
	m.check("before idle")
	for ti := range m.tasks {
		m.setRunnable(ti, false)
	}
	m.tick() // allocation collapses to zero
	m.check("all blocked")
	m.now += 25 * m.dt
	m.eager.SkipIdle(m.now, m.dt, 25)
	m.rep.SkipIdle(m.now, m.dt, 25)
	m.check("after skip")
	for ti := range m.tasks {
		if ti%2 == 0 {
			m.setRunnable(ti, true)
		}
	}
	for i := 0; i < 40; i++ {
		m.tick()
		m.check("post-idle tick")
	}
}

// TestRepairRemoveWhileDirty covers the bookkeeping edge case of a
// group (and a whole subtree) removed while sitting in the dirty set:
// the queued index must neither survive compaction pointing at the
// wrong group nor suppress the repair of surviving groups.
func TestRepairRemoveWhileDirty(t *testing.T) {
	m := newMirror(t, 4)
	a := m.newGroup("a")
	b := m.newGroup("b")
	p := m.newGroup("p")
	c0 := m.newChild(p, "c0")
	c1 := m.newChild(p, "c1")
	for _, gi := range []int{a, b, c0, c1} {
		ti := m.newTask(gi, "t", 0)
		m.setRunnable(ti, true)
	}
	for i := 0; i < 10; i++ {
		m.tick()
	}
	m.check("steady")

	// Dirty a (shares), dirty c0 (quota), then remove a and the whole
	// subtree p — with a's slot compacted away, b's and c1's indices
	// shift while c0's dirty entry must vanish.
	m.eager.SetShares(m.groups[a].e, 2048)
	m.rep.SetShares(m.groups[a].r, 2048)
	m.eager.SetQuota(m.groups[c0].e, 50_000, 100_000)
	m.rep.SetQuota(m.groups[c0].r, 50_000, 100_000)
	if len(m.rep.dirty) == 0 {
		t.Fatal("expected dirty marks before removal")
	}
	m.removeGroup(a)
	m.removeGroup(p)
	m.tick()
	m.check("after remove-while-dirty")
	for i := 0; i < 5; i++ {
		m.tick()
		m.check("steady after removal")
	}
}

// TestRepairActiveCrossingZero covers a leaf's runnable count crossing
// zero in both directions: the group must leave and re-enter the active
// (and water-fill) sets with exact list maintenance.
func TestRepairActiveCrossingZero(t *testing.T) {
	m := newMirror(t, 2)
	var tasks []int
	for i := 0; i < 5; i++ {
		gi := m.newGroup(fmt.Sprintf("g%d", i))
		ti := m.newTask(gi, "t", 0)
		m.setRunnable(ti, true)
		tasks = append(tasks, ti)
	}
	for i := 0; i < 8; i++ {
		m.tick()
	}
	m.check("all active")
	m.setRunnable(tasks[2], false) // g2 leaves active
	m.tick()
	m.check("g2 idle")
	if got := m.rep.active; len(got) != 4 {
		t.Fatalf("active after block: %v", got)
	}
	m.setRunnable(tasks[2], true) // and returns
	m.tick()
	m.check("g2 back")
	if got := m.rep.active; len(got) != 5 {
		t.Fatalf("active after wake: %v", got)
	}
}

// TestRepairEscalationBoundary pins the escalation predicate: a dirty
// set at the boundary (≥ repairEscalateMin and ≥ half of active) must
// fall back to one full rebuild, and state must stay exact through it.
func TestRepairEscalationBoundary(t *testing.T) {
	m := newMirror(t, 8)
	n := 2 * repairEscalateMin // 128 groups, all active
	var gis []int
	for i := 0; i < n; i++ {
		gi := m.newGroup(fmt.Sprintf("g%d", i))
		ti := m.newTask(gi, "t", 0)
		m.setRunnable(ti, true)
		gis = append(gis, gi)
	}
	for i := 0; i < 4; i++ {
		m.tick()
	}
	m.check("steady")

	round := int64(0)
	dirtyN := func(k int) {
		// A fresh value every round: SetShares no-ops on unchanged
		// values, which would leave the dirty set short.
		round++
		for i := 0; i < k; i++ {
			sh := int64(512+512*(i%3)) + round
			m.eager.SetShares(m.groups[gis[i]].e, sh)
			m.rep.SetShares(m.groups[gis[i]].r, sh)
		}
	}

	// One below the boundary: repairs.
	dirtyN(repairEscalateMin - 1)
	if m.rep.escalate() {
		t.Fatalf("escalated below the floor: dirty=%d active=%d", len(m.rep.dirty), len(m.rep.active))
	}
	m.tick()
	m.check("below boundary")

	// At the boundary (dirty = 64 = half of 128 active): escalates.
	dirtyN(repairEscalateMin)
	if !m.rep.escalate() {
		t.Fatalf("no escalation at the boundary: dirty=%d active=%d", len(m.rep.dirty), len(m.rep.active))
	}
	m.tick()
	m.check("at boundary")
	if len(m.rep.dirty) != 0 {
		t.Fatalf("dirty set not reset after escalation: %v", m.rep.dirty)
	}
}

// TestRepairAfterEscalation verifies the scheduler returns to
// incremental repair after an escalation rebuilt its lists.
func TestRepairAfterEscalation(t *testing.T) {
	m := newMirror(t, 8)
	n := 2 * repairEscalateMin
	var gis []int
	for i := 0; i < n; i++ {
		gi := m.newGroup(fmt.Sprintf("g%d", i))
		ti := m.newTask(gi, "t", 0)
		m.setRunnable(ti, true)
		gis = append(gis, gi)
	}
	for i := 0; i < 4; i++ {
		m.tick()
	}
	for i := 0; i < n; i++ { // storm: every group dirty
		m.eager.SetShares(m.groups[gis[i]].e, 2048)
		m.rep.SetShares(m.groups[gis[i]].r, 2048)
	}
	m.tick() // escalates
	m.check("escalation")

	// Small change afterwards must take the repair path again.
	m.eager.SetShares(m.groups[gis[3]].e, 4096)
	m.rep.SetShares(m.groups[gis[3]].r, 4096)
	if m.rep.escalate() {
		t.Fatal("single dirty group should not escalate after rebuild")
	}
	m.tick()
	m.check("incremental again")
	for i := 0; i < 6; i++ {
		m.tick()
		m.check("steady after escalation")
	}
}

// TestRepairLongDeferralSettlesOnRead pins the deferred-accounting
// regime directly: hundreds of untouched ticks, then one read must
// replay them bit-identically.
func TestRepairLongDeferralSettlesOnRead(t *testing.T) {
	m := newMirror(t, 4)
	gi := m.newGroup("g")
	ti := m.newTask(gi, "t", 0)
	m.setRunnable(ti, true)
	// A throttled companion so throttledDur replay is exercised too.
	gj := m.newGroup("h")
	tj := m.newTask(gj, "t", 0)
	m.setRunnable(tj, true)
	m.eager.SetQuota(m.groups[gj].e, 25_000, 100_000)
	m.rep.SetQuota(m.groups[gj].r, 25_000, 100_000)

	for i := 0; i < 700; i++ {
		m.tick()
	}
	if settled := m.rep.gSettled[m.groups[gi].r.schedIdx]; settled == m.rep.ticks {
		t.Fatalf("plain group was not deferred (settled=%d ticks=%d)", settled, m.rep.ticks)
	}
	m.check("after 700 deferred ticks")
}

// TestOnTickLateInstallPanics pins the first half of the OnTick
// contract: a callback installed on an already-runnable task is caught
// when the group's deferred ticks are settled, instead of silently
// missing the ticks the scheduler deferred.
func TestOnTickLateInstallPanics(t *testing.T) {
	s := NewScheduler(2)
	g := s.NewGroup("g")
	task := s.NewTask(g, "t")
	s.SetRunnable(task, true)
	for i := 1; i <= 3; i++ {
		s.Tick(time.Duration(i)*time.Millisecond, time.Millisecond)
	}
	task.OnTick = func(time.Duration, units.CPUSeconds, units.CPUSeconds) {}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "OnTick installed after SetRunnable") {
			t.Errorf("recover() = %v, want the late-OnTick contract panic", r)
		}
	}()
	g.Usage()
}

// TestOnTickBlockAppliesNextTick pins the second half: a task an OnTick
// callback blocks mid-walk stops receiving CPU from the next tick on,
// whichever path — the first rebuild, a quiet tick, a repair, or an
// escalation rebuild — ran the tick in which it blocked.
func TestOnTickBlockAppliesNextTick(t *testing.T) {
	const others = 2 * repairEscalateMin
	for _, tc := range []struct {
		name    string
		warm    int               // ticks before the blocking tick
		ctr     telemetry.Counter // counter the blocking tick bumps
		prepare func(s *Scheduler, gs []*Group)
	}{
		{"first-rebuild", 0, telemetry.CtrTickRebuilds, nil},
		{"quiet", 3, telemetry.CtrSchedTicks, nil},
		{"repair", 3, telemetry.CtrTickRepairs, func(s *Scheduler, gs []*Group) {
			s.SetShares(gs[0], 2048)
		}},
		{"escalation", 3, telemetry.CtrRepairEscalations, func(s *Scheduler, gs []*Group) {
			for i, g := range gs {
				s.SetShares(g, 2048+int64(i))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler(8)
			s.Trace = telemetry.New(0)
			var gs []*Group
			for i := 0; i < others; i++ {
				g := s.NewGroup(fmt.Sprintf("g%d", i))
				s.SetRunnable(s.NewTask(g, "t"), true)
				gs = append(gs, g)
			}
			cb := s.NewGroup("cb")
			task := s.NewTask(cb, "t")
			armed := false
			task.OnTick = func(time.Duration, units.CPUSeconds, units.CPUSeconds) {
				if armed {
					s.SetRunnable(task, false)
				}
			}
			s.SetRunnable(task, true)
			now := time.Duration(0)
			tick := func() {
				now += time.Millisecond
				s.Tick(now, time.Millisecond)
			}
			for i := 0; i < tc.warm; i++ {
				tick()
			}
			if tc.prepare != nil {
				tc.prepare(s, gs)
			}
			armed = true
			count := s.Trace.Count
			hit, repairs, rebuilds := count(tc.ctr), count(telemetry.CtrTickRepairs), count(telemetry.CtrTickRebuilds)
			tick()
			if task.Runnable() {
				t.Fatal("callback did not block its task")
			}
			if d := count(tc.ctr) - hit; d != 1 {
				t.Fatalf("blocking tick bumped %v by %d, want 1", tc.ctr, d)
			}
			if tc.ctr == telemetry.CtrSchedTicks &&
				(count(telemetry.CtrTickRepairs) != repairs || count(telemetry.CtrTickRebuilds) != rebuilds) {
				t.Fatal("blocking tick was not quiet")
			}
			tick()
			if r := cb.LastRate(); r != 0 {
				t.Errorf("blocked group's rate the tick after the block = %v, want 0", r)
			}
			if n := s.TotalRunnable(); n != others {
				t.Errorf("TotalRunnable the tick after the block = %d, want %d", n, others)
			}
		})
	}
}

// TestOnTickLimitWriteAppliesNextTick covers a limit write from inside
// a walk: a cap-preserving quota change an OnTick callback makes during
// a quiet tick must neither be accounted twice in that tick nor lost.
func TestOnTickLimitWriteAppliesNextTick(t *testing.T) {
	m := newMirror(t, 1)
	for _, name := range []string{"a", "b"} {
		gi := m.newGroup(name)
		ti := m.newTask(gi, "t", 0)
		tk := &m.tasks[ti]
		for _, arm := range []struct {
			s    *Scheduler
			g    *Group
			task *Task
		}{{m.eager, m.groups[gi].e, tk.e}, {m.rep, m.groups[gi].r, tk.r}} {
			calls := 0
			arm.task.OnTick = func(time.Duration, units.CPUSeconds, units.CPUSeconds) {
				calls++
				if calls == 5 {
					// One CPU: the single task's cap already, so only
					// the throttle state can move.
					arm.s.SetQuota(arm.g, 100_000, 100_000)
				}
			}
		}
		m.setRunnable(ti, true)
	}
	for i := 0; i < 12; i++ {
		m.tick()
		m.check(fmt.Sprintf("tick %d", i+1))
	}
}

// TestQuietTickMidWalkBlockWithFlagRefresh covers a quiet tick that both
// re-sums the load contribution (a cap-preserving quota write flips a
// throttle flag) and runs an OnTick callback that blocks its own task:
// the re-sum must count the blocked task as the rebuild's walk did.
func TestQuietTickMidWalkBlockWithFlagRefresh(t *testing.T) {
	m := newMirror(t, 2)
	e := m.newGroup("e")
	te := m.newTask(e, "t", 0)
	block := false
	for _, arm := range []struct {
		s    *Scheduler
		task *Task
	}{{m.eager, m.tasks[te].e}, {m.rep, m.tasks[te].r}} {
		arm.task.OnTick = func(time.Duration, units.CPUSeconds, units.CPUSeconds) {
			if block {
				arm.s.SetRunnable(arm.task, false)
			}
		}
	}
	m.setRunnable(te, true)
	f := m.newGroup("f")
	m.setRunnable(m.newTask(f, "t", 0), true)
	for i := 0; i < 3; i++ {
		m.tick()
	}
	m.check("steady")
	// f runs at its cap of one CPU; a one-CPU quota keeps the cap and
	// makes the limit bind.
	m.eager.SetQuota(m.groups[f].e, 100_000, 100_000)
	m.rep.SetQuota(m.groups[f].r, 100_000, 100_000)
	block = true
	m.tick()
	m.check("block and throttle in one quiet tick")
	if !m.groups[f].r.Throttled() {
		t.Fatal("quota write did not throttle f")
	}
}

// TestRepairRemoveCaplessRunnableGroup covers a top-level group whose
// zero quota leaves it runnable but outside the fill: removing it moves
// no allocation, so the next tick is quiet, and the runnable total must
// still drop.
func TestRepairRemoveCaplessRunnableGroup(t *testing.T) {
	m := newMirror(t, 2)
	a := m.newGroup("a")
	m.setRunnable(m.newTask(a, "t", 0), true)
	z := m.newGroup("z")
	m.eager.SetQuota(m.groups[z].e, 0, 100_000)
	m.rep.SetQuota(m.groups[z].r, 0, 100_000)
	m.setRunnable(m.newTask(z, "t", 0), true)
	for i := 0; i < 3; i++ {
		m.tick()
	}
	m.check("steady")
	m.removeGroup(z)
	m.tick()
	m.check("after removal")
}
