package sysns

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"arv/internal/cfs"
	"arv/internal/cgroups"
	"arv/internal/flightrec"
	"arv/internal/memctl"
	"arv/internal/sim"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// mirror is a trio of monitors over one hierarchy: mA and mC run the
// production recompute protocol, mB the test-only full-walk reference
// (UseFullWalk). mA is read after every step, so each of its deferred
// Σw_j passes covers one operation; mC is read only every lazyEvery
// steps, so its passes coalesce several operations' moves. Every cgroup
// is attached to all three or none.
type mirror struct {
	clock *sim.Clock
	sched *cfs.Scheduler
	hier  *cgroups.Hierarchy
	mA    *Monitor
	mB    *Monitor
	mC    *Monitor
}

// lazyEvery is how many steps mC's deferred work accumulates between
// reads.
const lazyEvery = 5

func newMirror(t testing.TB, cpus int) *mirror {
	clock := sim.NewClock(time.Millisecond)
	sched := cfs.NewScheduler(cpus)
	mem := memctl.New(memctl.Config{Total: 64 * units.GiB})
	hier := cgroups.NewHierarchy(sched, mem)
	m := &mirror{
		clock: clock,
		sched: sched,
		hier:  hier,
		mA:    NewMonitor(hier, clock, Options{}),
		mB:    NewMonitor(hier, clock, Options{}),
		mC:    NewMonitor(hier, clock, Options{}),
	}
	m.mB.UseFullWalk()
	// The monitors emit nothing here (no update rounds run), so the
	// harness writes each step's operation into every arm's ring (see
	// record).
	names := []string{"production", "full-walk", "lazy"}
	var arms []flightrec.Arm
	for i, mon := range m.monitors() {
		mon.Trace = telemetry.New(flightrec.Events)
		arms = append(arms, flightrec.Arm{Name: names[i], Trace: mon.Trace})
	}
	flightrec.Record(t, arms...)
	return m
}

func (m *mirror) monitors() []*Monitor { return []*Monitor{m.mA, m.mB, m.mC} }

func (m *mirror) attach(cg *cgroups.Cgroup) { m.mA.Attach(cg); m.mB.Attach(cg); m.mC.Attach(cg) }
func (m *mirror) detach(cg *cgroups.Cgroup) { m.mA.Detach(cg); m.mB.Detach(cg); m.mC.Detach(cg) }

// record emits one trace event per arm for a step: the operation and
// its target as the actor, and the target's stored bounds on that arm
// as A and B (-1 when it is not attached). Lookup delivers queued
// events, but the slots are read directly, so no Σw_j pass runs and
// the values are pre-pass. The event
// time is the step number in milliseconds.
func (m *mirror) record(step int, op string, cg *cgroups.Cgroup) {
	for _, mon := range m.monitors() {
		lower, upper := int64(-1), int64(-1)
		if ns := mon.Lookup(cg); ns != nil {
			c := ns.slotCPU()
			lower, upper = int64(c.lowerCPU), int64(c.upperCPU)
		}
		mon.Trace.Emit(time.Duration(step)*time.Millisecond, telemetry.KindFault, op+" "+cg.Name, lower, upper)
	}
}

// check asserts (1) the production monitor mA agrees with the full-walk
// reference on every namespace's bounds and E_CPU, (2) both production
// caches match a fresh derivation from the live hierarchy, and (3) at
// every lazyEvery-th step, the lazy monitor mC's bounds equal the
// reference's once its coalesced pass has run, with E_CPU inside them.
// mC's E_CPU is not compared: the clamp is stateful, and one pass over
// several Σw_j moves skips the intermediate bounds the reference
// clamped through.
func (m *mirror) check(t testing.TB, step int, op string) {
	t.Helper()
	// Namespaces is a read boundary: queued events reach all three
	// monitors (they share the hierarchy) before anything is compared.
	orderA := m.mA.Namespaces()
	if la, lb, lc := len(orderA), len(m.mB.order), len(m.mC.order); la != lb || la != lc {
		t.Fatalf("step %d (%s): namespace counts diverged: %d vs %d vs %d", step, op, la, lb, lc)
	}
	lazyRead := step%lazyEvery == lazyEvery-1
	for _, nsA := range orderA {
		nsB, nsC := m.mB.Lookup(nsA.cg), m.mC.Lookup(nsA.cg)
		if nsB == nil || nsC == nil {
			t.Fatalf("step %d (%s): %s not attached on every monitor", step, op, nsA.cg.Name)
		}
		al, au := nsA.CPUBounds()
		bl, bu := nsB.CPUBounds()
		if al != bl || au != bu || nsA.EffectiveCPU() != nsB.EffectiveCPU() {
			t.Fatalf("step %d (%s): %s bounds diverged: production [%d,%d] e=%d, full walk [%d,%d] e=%d",
				step, op, nsA.cg.Name, al, au, nsA.EffectiveCPU(), bl, bu, nsB.EffectiveCPU())
		}
		if !lazyRead {
			continue
		}
		cl, cu := nsC.CPUBounds() // read boundary: the coalesced pass runs here
		if cl != bl || cu != bu {
			t.Fatalf("step %d (%s): %s lazy bounds [%d,%d], full walk [%d,%d]", step, op, nsA.cg.Name, cl, cu, bl, bu)
		}
		if e := nsC.EffectiveCPU(); e < cl || e > cu {
			t.Fatalf("step %d (%s): %s lazy E_CPU %d outside bounds [%d,%d]", step, op, nsA.cg.Name, e, cl, cu)
		}
	}

	// Cache invariants, derived the way FullRecompute would. The cache
	// takes its deltas at event time, so the lazy monitor is held to
	// the identical invariant between its reads.
	var totalTop int64
	refs := make(map[*cgroups.Cgroup]int)
	for _, ns := range m.mA.order {
		top := topOf(ns.cg)
		if refs[top] == 0 {
			totalTop += top.CPU.Shares
		}
		refs[top]++
	}
	for _, mon := range []struct {
		name string
		m    *Monitor
	}{{"production", m.mA}, {"lazy", m.mC}} {
		if mon.m.totalTop != totalTop {
			t.Fatalf("step %d (%s): %s cached totalTop = %d, fresh derivation = %d", step, op, mon.name, mon.m.totalTop, totalTop)
		}
		if len(mon.m.tops) != len(refs) {
			t.Fatalf("step %d (%s): %s cached %d top entries, fresh derivation has %d", step, op, mon.name, len(mon.m.tops), len(refs))
		}
		for top, want := range refs {
			e, ok := mon.m.tops[top]
			if !ok || e.refs != want || e.shares != top.CPU.Shares {
				t.Fatalf("step %d (%s): %s top %s cache {refs %d, shares %d}, want {refs %d, shares %d}",
					step, op, mon.name, top.Name, e.refs, e.shares, want, top.CPU.Shares)
			}
		}
	}
}

// runMirror drives a randomized schedule of every hierarchy mutation
// the monitor reacts to — creations (flat, pods, late pod members),
// removals, attach/detach, and all four limit setters — through a
// mirror, checking it after every step. The schedule is a pure function
// of seed.
func runMirror(t testing.TB, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	m := newMirror(t, 32)

	var flats, pods, kids []*cgroups.Cgroup
	nameSeq := 0
	newName := func(prefix string) string {
		nameSeq++
		return fmt.Sprintf("%s%d", prefix, nameSeq)
	}
	pick := func(s []*cgroups.Cgroup) *cgroups.Cgroup { return s[rng.Intn(len(s))] }
	drop := func(s []*cgroups.Cgroup, cg *cgroups.Cgroup) []*cgroups.Cgroup {
		for i, x := range s {
			if x == cg {
				return append(s[:i], s[i+1:]...)
			}
		}
		return s
	}
	anyCg := func() *cgroups.Cgroup {
		all := make([]*cgroups.Cgroup, 0, len(flats)+len(pods)+len(kids))
		all = append(all, flats...)
		all = append(all, pods...)
		all = append(all, kids...)
		if len(all) == 0 {
			return nil
		}
		return pick(all)
	}

	for step := 0; step < steps; step++ {
		op := ""
		var target *cgroups.Cgroup
		switch r := rng.Intn(20); {
		case r < 4: // flat container, usually attached
			cg := m.hier.Create(newName("c"))
			flats = append(flats, cg)
			if rng.Intn(10) < 7 {
				m.attach(cg)
			}
			op, target = "create-flat", cg
		case r < 6: // pod with 1-3 members
			pod := m.hier.Create(newName("pod"))
			pods = append(pods, pod)
			for i := rng.Intn(3) + 1; i > 0; i-- {
				kid := m.hier.CreateChild(pod, newName("k"))
				kids = append(kids, kid)
				if rng.Intn(10) < 7 {
					m.attach(kid)
				}
			}
			op, target = "create-pod", pod
		case r < 8 && len(pods) > 0: // late pod member (sibling dilution)
			kid := m.hier.CreateChild(pick(pods), newName("k"))
			kids = append(kids, kid)
			if rng.Intn(2) == 0 {
				m.attach(kid)
			}
			op, target = "create-late-member", kid
		case r < 11: // shares
			if cg := anyCg(); cg != nil {
				cg.SetShares(int64(2 + rng.Intn(4096)))
				op, target = "set-shares", cg
			}
		case r < 13: // quota
			if cg := anyCg(); cg != nil {
				if rng.Intn(4) == 0 {
					cg.SetQuota(-1, 100_000)
				} else {
					cg.SetQuota(int64(50_000+rng.Intn(800_000)), 100_000)
				}
				op, target = "set-quota", cg
			}
		case r < 14: // cpuset
			if cg := anyCg(); cg != nil {
				cg.SetCpuset(rng.Intn(m.sched.NCPU() + 1))
				op, target = "set-cpuset", cg
			}
		case r < 15: // memory limits (must not move CPU bounds)
			if cg := anyCg(); cg != nil {
				hard := units.Bytes(1+rng.Intn(8)) * units.GiB
				cg.SetMemLimits(hard, hard/2)
				op, target = "set-mem", cg
			}
		case r < 16 && len(flats)+len(kids) > 0: // detach without removal
			all := append(append([]*cgroups.Cgroup(nil), flats...), kids...)
			target = pick(all)
			m.detach(target)
			op = "detach"
		case r < 17: // re-attach anything currently detached
			if cg := anyCg(); cg != nil && m.mA.Lookup(cg) == nil {
				m.attach(cg)
				op, target = "attach", cg
			}
		case r < 19 && len(flats)+len(kids) > 0: // remove a leaf
			all := append(append([]*cgroups.Cgroup(nil), flats...), kids...)
			target = pick(all)
			m.hier.Remove(target)
			flats, kids = drop(flats, target), drop(kids, target)
			op = "remove-leaf"
		case len(pods) > 0: // remove a whole pod
			target = pick(pods)
			for _, k := range append([]*cgroups.Cgroup(nil), target.Children()...) {
				kids = drop(kids, k)
			}
			m.hier.Remove(target)
			pods = drop(pods, target)
			op = "remove-pod"
		}
		if op == "" {
			continue
		}
		m.record(step, op, target)
		m.check(t, step, op)
	}
}

// TestIncrementalMatchesFullRecompute runs the mirror schedule for four
// seeds, asserting after every single step that the production bounds
// equal the full-walk reference and that the share cache matches a
// fresh walk.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runMirror(t, seed, 1500)
		})
	}
}

// FuzzMonitorMirror explores mirror schedules beyond the four fixed
// seeds; its seed corpus is those seeds. The schedule is shorter than
// the test's so each fuzz input runs quickly.
func FuzzMonitorMirror(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runMirror(t, seed, 400)
	})
}

// TestOrderSpacesConsistency is the regression guard for the monitor's
// twin bookkeeping structures: spaces (the cgroup index) and order (the
// deterministic iteration order) must stay in lockstep across attach,
// detach, removal, and kill/restart-style re-attachment.
func TestOrderSpacesConsistency(t *testing.T) {
	m := newMirror(t, 16)
	verify := func(when string) {
		t.Helper()
		if len(m.mA.order) != len(m.mA.spaces) {
			t.Fatalf("%s: len(order)=%d, len(spaces)=%d", when, len(m.mA.order), len(m.mA.spaces))
		}
		seen := make(map[*SysNamespace]bool)
		for _, ns := range m.mA.order {
			if seen[ns] {
				t.Fatalf("%s: namespace %s appears twice in order", when, ns.cg.Name)
			}
			seen[ns] = true
			if m.mA.spaces[ns.cg] != ns {
				t.Fatalf("%s: order entry %s not indexed in spaces", when, ns.cg.Name)
			}
		}
	}

	cgs := make([]*cgroups.Cgroup, 6)
	for i := range cgs {
		cgs[i] = m.hier.Create(fmt.Sprintf("c%d", i))
		m.attach(cgs[i])
		verify("attach")
	}
	// Idempotent re-attach must not duplicate the order entry.
	m.attach(cgs[2])
	verify("re-attach")

	// Detach from the middle, then the ends.
	for _, i := range []int{3, 0, 5} {
		m.detach(cgs[i])
		verify("detach")
	}
	// Kill/restart: remove the cgroup entirely, recreate under the same
	// name, attach the fresh cgroup.
	m.hier.Remove(cgs[1])
	verify("kill")
	re := m.hier.Create("c1")
	m.attach(re)
	verify("restart")

	// Remaining attach order must be exactly the surviving attachments
	// in their original sequence, with the restart at the tail.
	want := []string{"c2", "c4", "c1"}
	if len(m.mA.order) != len(want) {
		t.Fatalf("final order has %d namespaces, want %d", len(m.mA.order), len(want))
	}
	for i, ns := range m.mA.order {
		if ns.cg.Name != want[i] {
			t.Fatalf("order[%d] = %s, want %s", i, ns.cg.Name, want[i])
		}
	}
}
