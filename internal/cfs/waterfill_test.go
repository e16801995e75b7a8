package cfs

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// waterfillRef is the iterative water fill exactly as it stood before
// the under-subscribed shortcut: the reference waterfill must match bit
// for bit. The mirror tests cannot catch a shortcut error, because their
// rebuild-every-tick reference calls the production waterfill too.
func waterfillRef(groups []*Group, caps, alloc []float64, active []int, capacity float64) {
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
}

// fillCase is one water-fill input: slots 0..len(groups)-1, of which
// active lists the participants (the rest must stay untouched).
type fillCase struct {
	groups   []*Group
	caps     []float64
	alloc    []float64 // starting values
	active   []int
	capacity float64
}

// Cap shapes: every kind mixes in the values the scheduler produces.
const (
	capsUniform = iota // (0, 2] CPUs
	capsTiny           // many caps near 1e-12
	capsQuota          // 0.01–0.1 CPU quotas, the binding-churn regime
	capsWhole          // whole CPUs (task counts, cpusets)
	capsMixed          // all of the above
	numCapKinds
)

// Capacity placements relative to Σcap (summed in active order, as the
// shortcut's test sums it).
const (
	capacityExact     = iota // Σcap
	capacityNextUp           // math.Nextafter(Σcap, +Inf)
	capacityNextDown         // math.Nextafter(Σcap, -Inf)
	capacityScaled           // Σcap·(1 + k·1e-9), k of either sign
	capacityThreshold        // k ulps around the shortcut's threshold
	capacityRandom           // uniform in [0, 2·Σcap]
	capacityHost             // a whole-CPU host, 1–64
	numCapacityKinds
)

var fillSharesPalette = []int64{1, 2, 128, 1024, 1024, 1024, 4096, 262144}

// genFillCase builds an adversarial water-fill input from a seed: n
// participants among n plus a few bystander slots, in ascending or
// shuffled order, with optional zero or negative shares and optional
// non-zero starting allocations in [0, cap].
func genFillCase(seed int64, n int, capKind, capacityKind int, k int) fillCase {
	rng := rand.New(rand.NewSource(seed))
	slots := n + rng.Intn(4)
	c := fillCase{
		groups: make([]*Group, slots),
		caps:   make([]float64, slots),
		alloc:  make([]float64, slots),
	}
	badShares := rng.Intn(6) == 0
	nonzeroAlloc := rng.Intn(3) == 0
	for i := range c.groups {
		sh := fillSharesPalette[rng.Intn(len(fillSharesPalette))]
		if badShares && rng.Intn(4) == 0 {
			sh = -int64(rng.Intn(3)) // 0, -1 or -2
		}
		c.groups[i] = &Group{Shares: sh}
		kind := capKind
		if kind == capsMixed {
			kind = rng.Intn(capsMixed)
		}
		switch kind {
		case capsUniform:
			c.caps[i] = 2 * (1 - rng.Float64()) // (0, 2]
		case capsTiny:
			if rng.Intn(2) == 0 {
				c.caps[i] = 1e-12 * (0.5 + 1.5*rng.Float64())
			} else {
				c.caps[i] = rng.Float64() + 1e-12
			}
		case capsQuota:
			c.caps[i] = 0.01 + 0.09*rng.Float64()
		default:
			c.caps[i] = float64(1 + rng.Intn(4))
		}
		if nonzeroAlloc && rng.Intn(2) == 0 {
			c.alloc[i] = c.caps[i] * rng.Float64()
		}
	}
	// Bystanders carry a sentinel the fill must leave alone.
	perm := rng.Perm(slots)
	for _, i := range perm[n:] {
		c.alloc[i] = -7
	}
	c.active = perm[:n]
	if rng.Intn(2) == 0 {
		sort.Ints(c.active)
	}
	sum := 0.0
	for _, i := range c.active {
		sum += c.caps[i]
	}
	switch capacityKind {
	case capacityExact:
		c.capacity = sum
	case capacityNextUp:
		c.capacity = math.Nextafter(sum, math.Inf(1))
	case capacityNextDown:
		c.capacity = math.Nextafter(sum, math.Inf(-1))
	case capacityScaled:
		c.capacity = sum * (1 + float64(k)*1e-9)
	case capacityThreshold:
		c.capacity = (sum + 1e-9) / (1 - 1e-9)
		for j := 0; j < k; j++ {
			c.capacity = math.Nextafter(c.capacity, math.Inf(1))
		}
		for j := 0; j > k; j-- {
			c.capacity = math.Nextafter(c.capacity, math.Inf(-1))
		}
	case capacityRandom:
		c.capacity = 2 * sum * rng.Float64()
	default:
		c.capacity = float64(1 + rng.Intn(64))
	}
	return c
}

// check runs waterfill and waterfillRef on copies of the case and
// requires every slot bit-identical. It returns whether waterfill took
// the under-subscribed shortcut.
func (c fillCase) check(t *testing.T) bool {
	t.Helper()
	got := append([]float64(nil), c.alloc...)
	want := append([]float64(nil), c.alloc...)
	saturated := waterfill(c.groups, c.caps, got, append([]int(nil), c.active...), c.capacity)
	waterfillRef(c.groups, c.caps, want, append([]int(nil), c.active...), c.capacity)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("slot %d: waterfill %v (%x), reference %v (%x); shortcut=%v n=%d capacity=%v",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]),
				saturated, len(c.active), c.capacity)
		}
	}
	if saturated {
		for _, i := range c.active {
			if got[i] != c.caps[i] {
				t.Fatalf("shortcut reported, but slot %d got %v, cap %v", i, got[i], c.caps[i])
			}
		}
	}
	return saturated
}

// TestWaterfillMatchesReference sweeps every cap shape against every
// capacity placement, including n = 16 384, and requires both the
// shortcut and the loop to run.
func TestWaterfillMatchesReference(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 7, 64, 1024}
	shortcut, loop := 0, 0
	seed := int64(0)
	for _, n := range sizes {
		for capKind := 0; capKind < numCapKinds; capKind++ {
			for capacityKind := 0; capacityKind < numCapacityKinds; capacityKind++ {
				for _, k := range []int{-3, -1, 0, 1, 2, 5} {
					for rep := 0; rep < 3; rep++ {
						seed++
						c := genFillCase(seed, n, capKind, capacityKind, k)
						if c.check(t) {
							shortcut++
						} else {
							loop++
						}
					}
				}
			}
		}
	}
	for capacityKind := 0; capacityKind < numCapacityKinds; capacityKind++ {
		for _, capKind := range []int{capsQuota, capsMixed} {
			seed++
			t.Run(fmt.Sprintf("n=16384/capacity=%d/caps=%d", capacityKind, capKind), func(t *testing.T) {
				genFillCase(seed, 16384, capKind, capacityKind, 1).check(t)
			})
		}
	}
	if shortcut == 0 || loop == 0 {
		t.Fatalf("sweep ran the shortcut %d times and the loop %d times; want both", shortcut, loop)
	}
}

// FuzzWaterfill explores fill inputs beyond the fixed sweep: the fuzzer
// picks the seed, the size (up to 16 384), the cap shape, the capacity
// placement and its offset.
func FuzzWaterfill(f *testing.F) {
	for capacityKind := 0; capacityKind < numCapacityKinds; capacityKind++ {
		f.Add(int64(capacityKind), uint16(8), uint8(capsMixed), uint8(capacityKind), int8(1))
	}
	f.Add(int64(99), uint16(1024), uint8(capsQuota), uint8(capacityThreshold), int8(-1))
	f.Add(int64(7), uint16(3), uint8(capsTiny), uint8(capacityScaled), int8(-2))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, capKind, capacityKind uint8, k int8) {
		genFillCase(seed, int(n)%16385, int(capKind)%numCapKinds, int(capacityKind)%numCapacityKinds, int(k)).check(t)
	})
}
