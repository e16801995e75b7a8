package cfs

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// Quota palettes of the regime mirror, for an 8-CPU host with about a
// dozen top-level groups of one to three tasks: low writes keep Σcap
// well under the host, high writes push it past, and every write from
// one palette binds against a group running under the other.
var (
	lowQuotas = [][2]int64{
		{10_000, 100_000}, // 0.1 CPU
		{25_000, 100_000},
		{50_000, 100_000},
	}
	highQuotas = [][2]int64{
		{100_000, 100_000}, // 1 CPU
		{200_000, 100_000},
		{-1, 100_000},
	}
)

// regimeMirror drives a mirror back and forth across the fill's
// under-subscription boundary: quota writes drawn from a palette that
// flips every few dozen operations, top-level groups added and removed,
// shares set to 0 and back, and runnable flips. nested makes every
// third top-level group a pod of two or three children.
type regimeMirror struct {
	*mirror
	rng    *rand.Rand
	nested bool
	high   bool
	tops   []int // mirror indices of every top-level group ever made
	zeroed []int // groups whose shares are 0, most recent last
}

func (r *regimeMirror) addTop() {
	m := r.mirror
	name := fmt.Sprintf("g%d", len(m.groups))
	var leaves []int
	gi := m.newGroup(name)
	r.tops = append(r.tops, gi)
	if r.nested && len(r.tops)%3 == 0 {
		for c := 0; c < 2+r.rng.Intn(2); c++ {
			leaves = append(leaves, m.newChild(gi, fmt.Sprintf("%sc%d", name, c)))
		}
		r.setQuota(gi)
	} else {
		leaves = append(leaves, gi)
	}
	for _, leaf := range leaves {
		r.setQuota(leaf)
		for k := 0; k < 1+r.rng.Intn(3); k++ {
			m.setRunnable(m.newTask(leaf, "t", pickOnTick(r.rng)), r.rng.Intn(4) != 0)
		}
	}
}

// setQuota writes a quota from the current palette.
func (r *regimeMirror) setQuota(gi int) {
	pal := lowQuotas
	if r.high {
		pal = highQuotas
	}
	q := pal[r.rng.Intn(len(pal))]
	r.eager.SetQuota(r.groups[gi].e, q[0], q[1])
	r.rep.SetQuota(r.groups[gi].r, q[0], q[1])
}

// boundGroup picks a random live group, preferring one whose limit is
// from the other palette than the current one, so the fleet's Σcap
// follows the palette within a few writes. Returns -1 if none is live.
func (r *regimeMirror) boundGroup() int {
	pick := -1
	for try := 0; try < 8; try++ {
		gi := r.liveGroup(r.rng)
		if gi < 0 {
			continue
		}
		pick = gi
		if (r.groups[gi].e.CPULimit() >= 1) != r.high {
			break
		}
	}
	return pick
}

// liveTop picks a random non-removed top-level group, or -1.
func (r *regimeMirror) liveTop() int {
	for try := 0; try < 8; try++ {
		gi := r.tops[r.rng.Intn(len(r.tops))]
		if !r.groups[gi].e.removed {
			return gi
		}
	}
	return -1
}

// step applies one operation and reports whether it was a tick.
func (r *regimeMirror) step() bool {
	m := r.mirror
	if r.rng.Intn(25) == 0 {
		r.high = !r.high
	}
	switch op := r.rng.Intn(100); {
	case op < 35:
		m.tick()
		return true
	case op < 60: // binding quota write, leaf or pod
		if gi := r.boundGroup(); gi >= 0 {
			r.setQuota(gi)
		}
	case op < 70:
		if len(m.tasks) > 0 {
			ti := r.rng.Intn(len(m.tasks))
			m.setRunnable(ti, !m.tasks[ti].e.runnable)
		}
	case op < 77: // shares to 0, and back a few operations later
		gi, sh := -1, int64(0)
		if k := len(r.zeroed); k > 0 && r.rng.Intn(3) != 0 {
			gi, sh = r.zeroed[k-1], sharesPalette[r.rng.Intn(len(sharesPalette))]
			r.zeroed = r.zeroed[:k-1]
		} else if gi = m.liveGroup(r.rng); gi >= 0 && m.groups[gi].e.Shares != 0 {
			r.zeroed = append(r.zeroed, gi)
		}
		if gi >= 0 && !m.groups[gi].e.removed {
			m.eager.SetShares(m.groups[gi].e, sh)
			m.rep.SetShares(m.groups[gi].r, sh)
		}
	case op < 84:
		if len(m.groups) < 64 {
			r.addTop()
		}
	case op < 90:
		if gi := r.liveTop(); gi >= 0 {
			m.removeGroup(gi)
		}
	case op < 95: // mid-run reads settle deferred accounting
		if gi := m.liveGroup(r.rng); gi >= 0 {
			m.groups[gi].e.TakeWindowUsage()
			m.groups[gi].r.TakeWindowUsage()
		}
	default:
		if gi := m.liveGroup(r.rng); gi >= 0 {
			n := r.rng.Intn(3)
			m.eager.SetCpuset(m.groups[gi].e, n)
			m.rep.SetCpuset(m.groups[gi].r, n)
		}
	}
	return false
}

// runRegimeMirror runs ops regime operations from seed, comparing full
// state after every tick. It returns the repair arm's phase-2 path
// counts (see CountTopPhases) and how often the last top fill's regime
// flipped between under- and over-subscribed.
func runRegimeMirror(t *testing.T, seed int64, ops int, nested bool) (phases [2]int, flips int) {
	r := &regimeMirror{mirror: newMirror(t, 8), rng: rand.New(rand.NewSource(seed)), nested: nested}
	n := r.rep.CountTopPhases()
	for i := 0; i < 12; i++ {
		r.addTop()
	}
	r.tick()
	r.check("after seed")
	under := r.rep.topUnder
	for op := 0; op < ops; op++ {
		if r.step() {
			r.check(fmt.Sprintf("op %d (tick %d)", op, r.rep.ticks))
			if r.rep.topUnder != under {
				under = !under
				flips++
			}
		}
	}
	r.check("final")
	return *n, flips
}

// TestRepairMirrorsAcrossRegimeBoundary drives flat and two-level fleets
// across the under/over-subscription boundary many times and requires
// the repair arm to stay bit-identical to the rebuild-every-tick
// reference while both phase-2 paths run.
func TestRepairMirrorsAcrossRegimeBoundary(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seed   int64
		nested bool
	}{
		{"flat", 200, false},
		{"flat", 201, false},
		{"flat", 202, false},
		{"nested", 300, true},
		{"nested", 301, true},
		{"nested", 302, true},
	} {
		t.Run(fmt.Sprintf("%s/seed%d", tc.name, tc.seed), func(t *testing.T) {
			phases, flips := runRegimeMirror(t, tc.seed, 1500, tc.nested)
			if phases[0] == 0 || phases[1] == 0 {
				t.Fatalf("phase 2 ran the full fill %d times and the dirty-only path %d times; want both", phases[0], phases[1])
			}
			if flips < 10 {
				t.Fatalf("the fill crossed the under-subscription boundary %d times; want at least 10", flips)
			}
		})
	}
}

// FuzzRepairMirror explores mirror schedules beyond the committed seeds,
// which are its corpus: gen 0 is the random operation mix of
// TestRepairMirrorsEagerLockstep, gen 1 and 2 the flat and two-level
// regime mirrors. Schedules are shorter than the tests' so each input
// runs quickly.
func FuzzRepairMirror(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, uint8(0))
	}
	for seed := int64(200); seed < 203; seed++ {
		f.Add(seed, uint8(1))
	}
	for seed := int64(300); seed < 303; seed++ {
		f.Add(seed, uint8(2))
	}
	f.Fuzz(func(t *testing.T, seed int64, gen uint8) {
		switch gen % 3 {
		case 0:
			runStepMirror(t, seed, 300)
		default:
			runRegimeMirror(t, seed, 400, gen%3 == 2)
		}
	})
}

// TestRepairTickAllocFreeAfterGrowth pins the repair tick at zero
// allocations after the fleet grows past the size of the last full
// rebuild, on both top-level paths and on a pod refill: buffers a
// repair grows must be kept for the next one.
func TestRepairTickAllocFreeAfterGrowth(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ncpu  int
		quota int64 // the binding write, µs per 100 ms
		pod   bool
	}{
		{"over-subscribed", 4, 50_000, false},
		{"under-subscribed", 64, 5_000, false},
		{"pod-refill", 4, 50_000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler(tc.ncpu)
			now := time.Duration(0)
			tick := func() {
				now += time.Millisecond
				s.Tick(now, time.Millisecond)
			}
			var parent *Group
			var gs []*Group
			add := func(k int) {
				for j := 0; j < k; j++ {
					var g *Group
					if parent != nil {
						g = s.NewChildGroup(parent, fmt.Sprintf("c%d", len(gs)))
					} else {
						g = s.NewGroup(fmt.Sprintf("g%d", len(gs)))
					}
					s.SetQuota(g, 2*tc.quota, 100_000)
					s.SetRunnable(s.NewTask(g, "t"), true)
					gs = append(gs, g)
				}
			}
			add(100)
			tick() // the full rebuild sizes the scratch buffers to 100 groups
			if tc.pod {
				parent = s.NewGroup("pod")
				gs = gs[:0]
			}
			for b := 0; b < 10; b++ {
				add(10)
				tick()
			}
			for b := 0; b < 5; b++ { // past 100 children / 100 tops
				add(10)
				tick()
			}
			phases := s.CountTopPhases()
			k := 0
			allocs := testing.AllocsPerRun(100, func() {
				g := gs[k%len(gs)]
				q := tc.quota
				if g.QuotaUS == q {
					q *= 2
				}
				s.SetQuota(g, q, 100_000)
				k++
				tick()
			})
			if allocs != 0 {
				t.Fatalf("repair tick allocates %v times after growth, want 0", allocs)
			}
			if phases[0]+phases[1] == 0 {
				t.Fatal("no repair tick ran the top-level phase")
			}
		})
	}
}
