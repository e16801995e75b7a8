package sysns

import (
	"testing"
	"time"

	"arv/internal/cfs"
	"arv/internal/cgroups"
	"arv/internal/memctl"
	"arv/internal/sim"
	"arv/internal/units"
)

// batchedPair is a production monitor and the full-walk reference over
// one hierarchy: events batch up in the hierarchy's queue until a read
// boundary delivers them, and Σw_j passes defer to the same boundary. The reference rebuilds from live state at
// every delivered trigger, so at every read boundary the two must agree
// on the bounds exactly.
type batchedPair struct {
	clock *sim.Clock
	hier  *cgroups.Hierarchy
	mB    *Monitor // production protocol
	mR    *Monitor // full-walk reference
}

func newBatchedPair(cpus int) *batchedPair {
	clock := sim.NewClock(time.Millisecond)
	sched := cfs.NewScheduler(cpus)
	mem := memctl.New(memctl.Config{Total: 64 * units.GiB})
	hier := cgroups.NewHierarchy(sched, mem)
	p := &batchedPair{
		clock: clock,
		hier:  hier,
		mB:    NewMonitor(hier, clock, Options{}),
		mR:    NewMonitor(hier, clock, Options{}),
	}
	p.mR.UseFullWalk()
	return p
}

func (p *batchedPair) addContainer(t *testing.T, name string) *cgroups.Cgroup {
	t.Helper()
	cg := p.hier.Create(name)
	p.mB.Attach(cg)
	p.mR.Attach(cg)
	return cg
}

// checkBounds reads both monitors (a bounds read is a read boundary)
// and asserts they agree on cg.
func (p *batchedPair) checkBounds(t *testing.T, when string, cg *cgroups.Cgroup) (lower, upper int) {
	t.Helper()
	nsB, nsR := p.mB.Lookup(cg), p.mR.Lookup(cg)
	if nsB == nil || nsR == nil {
		t.Fatalf("%s: %s not attached on both monitors", when, cg.Name)
	}
	bl, bu := nsB.CPUBounds()
	rl, ru := nsR.CPUBounds()
	if bl != rl || bu != ru {
		t.Fatalf("%s: %s bounds diverged: production [%d,%d], reference [%d,%d]", when, cg.Name, bl, bu, rl, ru)
	}
	if e := nsB.EffectiveCPU(); e < bl || e > bu {
		t.Fatalf("%s: %s production E_CPU %d outside [%d,%d]", when, cg.Name, e, bl, bu)
	}
	if e, r := nsB.EffectiveCPU(), nsR.EffectiveCPU(); e != r {
		t.Fatalf("%s: %s E_CPU diverged: production %d, reference %d", when, cg.Name, e, r)
	}
	return bl, bu
}

// TestBatchedEventOnUpdateBoundary pins trigger-atomicity when a limit
// change lands at exactly the same instant as the update round, on
// either side of it: the round's flush must deliver and absorb an event
// queued before UpdateAll runs, and an event published right after the
// round must be absorbed by the next read — in both cases the flushed
// bounds equal the full-walk reference.
func TestBatchedEventOnUpdateBoundary(t *testing.T) {
	p := newBatchedPair(8)
	c0 := p.addContainer(t, "c0")
	c1 := p.addContainer(t, "c1")
	p.checkBounds(t, "setup", c0)
	now := p.clock.Now()

	// Event, then the round at the same instant: UpdateAll's flush must
	// see it.
	c1.SetQuotaCPUs(2)
	if p.hier.Queued() == 0 {
		t.Fatal("quota change was not queued")
	}
	p.mB.UpdateAll(now)
	p.mR.UpdateAll(now)
	if q := p.hier.Queued(); q != 0 {
		t.Fatalf("UpdateAll left %d events queued", q)
	}
	if _, upper := p.checkBounds(t, "event-then-round", c1); upper != 2 {
		t.Fatalf("c1 upper bound = %d after 2-CPU quota landed on the round boundary, want 2", upper)
	}

	// Round, then an event at the same instant: the round must NOT have
	// absorbed it (it did not exist yet), the next read boundary must.
	p.mB.UpdateAll(now)
	p.mR.UpdateAll(now)
	c1.SetQuotaCPUs(4)
	if _, upper := p.checkBounds(t, "round-then-event", c1); upper != 4 {
		t.Fatalf("c1 upper bound = %d after 4-CPU quota published post-round, want 4", upper)
	}
	p.checkBounds(t, "round-then-event", c0)
}

// TestBatchedCreateRemoveWithinInterval covers a container whose whole
// lifetime — create, attach, limit changes, remove — fits inside one
// coalesced interval: the attach delivers the creation, and the limit
// changes and the removal sit in the queue until a single flush
// delivers them back-to-back. The flush must detach the namespace, roll
// its share contribution out of the cache, freeze the handle for
// post-mortem readers, and leave the survivors exactly where the
// full-walk reference puts them.
func TestBatchedCreateRemoveWithinInterval(t *testing.T) {
	p := newBatchedPair(8)
	c0 := p.addContainer(t, "c0")
	c1 := p.addContainer(t, "c1")
	p.checkBounds(t, "setup", c0)

	tmp := p.addContainer(t, "tmp")
	nsTmp := p.mB.Lookup(tmp)
	tmp.SetShares(4096)
	tmp.SetQuotaCPUs(1)
	p.hier.Remove(tmp)
	// Read the index directly: Lookup is a read boundary.
	if p.mB.spaces[tmp] != nsTmp {
		t.Fatal("tmp namespace missing before the flush delivers Removed")
	}
	if p.hier.Queued() == 0 {
		t.Fatal("tmp lifecycle events were not queued")
	}

	// One flush boundary delivers the whole lifetime.
	l0, _ := p.checkBounds(t, "after-flush", c0)
	p.checkBounds(t, "after-flush", c1)
	if p.mB.Lookup(tmp) != nil {
		t.Fatal("tmp still attached after its Removed event was drained")
	}
	if want := p.mR.totalTop; p.mB.totalTop != want {
		t.Fatalf("production totalTop = %d after create+remove coalesced, reference %d", p.mB.totalTop, want)
	}

	// The frozen handle keeps the last live view even after its slot is
	// recycled by a new container.
	frozenE, frozenMem := nsTmp.EffectiveCPU(), nsTmp.EffectiveMemory()
	c2 := p.addContainer(t, "c2")
	c2.SetShares(64)
	p.checkBounds(t, "slot-recycled", c2)
	if e := nsTmp.EffectiveCPU(); e != frozenE {
		t.Fatalf("detached handle E_CPU moved %d -> %d after slot reuse", frozenE, e)
	}
	if m := nsTmp.EffectiveMemory(); m != frozenMem {
		t.Fatalf("detached handle E_MEM moved %v -> %v after slot reuse", frozenMem, m)
	}

	// Fixed point: a full rebuild from live state must not move anything
	// the coalesced flush produced.
	nsC0 := p.mB.Lookup(c0)
	p.mB.FullRecompute()
	if l, _ := nsC0.CPUBounds(); l != l0 {
		t.Fatalf("c0 lower bound %d after flush, %d after full rebuild", l0, l)
	}
}

// TestBatchedSuppressionRecovery drives the suppressed-event recovery
// path under deferred delivery: an interceptor-dropped limit change
// moves live state without a delivered event, so the share cache is
// stale and no Σw_j pass is armed. The next delivered trigger must
// detect the suppression-counter mismatch and force a FullRecompute —
// eagerly, as the delivered event lands — bringing the dropped
// change into the bounds.
func TestBatchedSuppressionRecovery(t *testing.T) {
	p := newBatchedPair(8)
	c0 := p.addContainer(t, "c0")
	c1 := p.addContainer(t, "c1")
	l0, _ := p.checkBounds(t, "setup", c0)

	// Drop the next CPU-limit event on the floor.
	p.hier.Intercept(func(cgroups.Event) bool { return false })
	c0.SetShares(3000)
	p.hier.Intercept(nil)
	if p.hier.Suppressed() != 1 {
		t.Fatalf("Suppressed() = %d, want 1", p.hier.Suppressed())
	}
	if p.hier.Queued() != 0 {
		t.Fatal("suppressed event was queued anyway")
	}
	// No delivered trigger yet: the production monitor must still hold
	// the pre-drop bounds (stale until recovery).
	if l, _ := p.mB.Lookup(c0).CPUBounds(); l != l0 {
		t.Fatalf("c0 lower bound %d before any delivered trigger, want stale %d", l, l0)
	}

	// A delivered trigger forces the recovery FullRecompute at drain
	// time; both monitors then reflect the dropped change.
	c1.SetShares(900)
	lower, _ := p.checkBounds(t, "post-recovery", c0)
	p.checkBounds(t, "post-recovery", c1)
	// c0 guarantees 3000/3900 of 8 CPUs = ceil(6.15) = 7 — visible only
	// if the dropped shares change made it into the cache.
	if lower != 7 {
		t.Fatalf("c0 lower bound = %d after recovery, want 7 (dropped shares absorbed)", lower)
	}
	if p.mB.seenSuppressed != p.hier.Suppressed() {
		t.Fatalf("production monitor seenSuppressed = %d, hierarchy %d: recovery did not resynchronize",
			p.mB.seenSuppressed, p.hier.Suppressed())
	}
	if p.mB.sumMoved {
		t.Fatal("recovery FullRecompute left a Σw_j pass armed")
	}
}

// TestDroppedEventStaysStaleAcrossPass pins the drop contract of the
// deferred Σw_j pass: the pass rebuilds lower bounds from the inputs
// delivered events left in the slots and never reads live hierarchy
// state, so a dropped quota write stays invisible through it — the
// upper bound stays stale until the next delivered event runs the
// suppression recovery. A pass that re-read live limits would quietly
// heal the drop, and the fault model would depend on whether a pass
// happened to be pending.
func TestDroppedEventStaysStaleAcrossPass(t *testing.T) {
	f := newFixture(8, 16*units.GiB)
	c0, ns0 := f.attach("c0")
	c1, _ := f.attach("c1") // a second top-level entity moves Σw_j
	if !f.mon.sumMoved {
		t.Fatal("no Σw_j pass pending after the second top-level attach")
	}

	f.hier.Intercept(func(cgroups.Event) bool { return false })
	c0.SetQuotaCPUs(2)
	f.hier.Intercept(nil)
	lower, upper := ns0.CPUBounds() // runs the pending pass
	if upper != 8 {
		t.Fatalf("c0 upper = %d after its quota event was dropped, want stale 8", upper)
	}
	if lower != 4 {
		t.Fatalf("c0 lower = %d after the pass, want 4 (half of 8 CPUs)", lower)
	}
	if f.mon.sumMoved {
		t.Fatal("the bounds read left the Σw_j pass pending")
	}

	c1.SetShares(1024) // delivered (a no-op write still publishes)
	if _, upper := ns0.CPUBounds(); upper != 2 {
		t.Fatalf("c0 upper = %d after the next delivered event, want 2", upper)
	}
}

// TestAttachDrainsQueuedEventsFirst pins the ordering rule of a direct
// Attach: a limit change published before it must reach the monitor
// before the new namespace initializes E_CPU from its bounds. Here a
// queued shares raise on c0 moves Σw_j from 2048 to 8192, so c2
// guarantees 1024/9216 of 8 CPUs — one CPU. An attach that ran ahead of
// the queued event would initialize E_CPU from the stale Σw_j (3 CPUs)
// and, since the later pass only clamps, keep it there.
func TestAttachDrainsQueuedEventsFirst(t *testing.T) {
	p := newBatchedPair(8)
	c0 := p.addContainer(t, "c0")
	p.addContainer(t, "c1")
	p.checkBounds(t, "setup", c0)

	c0.SetShares(7168)
	c2 := p.addContainer(t, "c2")
	if lower, _ := p.checkBounds(t, "attach-after-queued-shares", c2); lower != 1 {
		t.Fatalf("c2 lower bound = %d, want 1", lower)
	}
	if e := p.mB.Lookup(c2).EffectiveCPU(); e != 1 {
		t.Fatalf("c2 E_CPU = %d after attach, want 1 (initialized from post-event bounds)", e)
	}
}
