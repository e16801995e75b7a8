package cgroups

import (
	"testing"

	"arv/internal/cfs"
	"arv/internal/memctl"
	"arv/internal/units"
)

func newHier() *Hierarchy {
	return NewHierarchy(cfs.NewScheduler(8), memctl.New(memctl.Config{Total: 16 * units.GiB}))
}

func TestCreateDefaults(t *testing.T) {
	h := newHier()
	cg := h.Create("a")
	if cg.CPU.Shares != cfs.DefaultShares {
		t.Fatalf("shares = %d", cg.CPU.Shares)
	}
	if lim := cg.CPU.CPULimit(); lim < 1e18 {
		if !(lim > 0) {
			t.Fatalf("new cgroup should be unlimited, limit=%v", lim)
		}
	}
	if cg.Mem.HardLimit != 0 || cg.Mem.SoftLimit != 0 {
		t.Fatal("new cgroup should have unlimited memory")
	}
	if h.Lookup("a") != cg {
		t.Fatal("lookup failed")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	h := newHier()
	h.Create("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate name")
		}
	}()
	h.Create("a")
}

func TestEventsPublished(t *testing.T) {
	h := newHier()
	var events []Event
	h.Subscribe(func(e Event) { events = append(events, e) })

	cg := h.Create("a")
	cg.SetShares(2048)
	cg.SetQuota(200_000, 100_000)
	cg.SetCpuset(4)
	cg.SetMemLimits(units.GiB, 512*units.MiB)
	h.Remove(cg)
	h.Drain()

	wantKinds := []EventKind{Created, CPUChanged, CPUChanged, CPUChanged, MemChanged, Removed}
	if len(events) != len(wantKinds) {
		t.Fatalf("got %d events, want %d", len(events), len(wantKinds))
	}
	for i, e := range events {
		if e.Kind != wantKinds[i] {
			t.Errorf("event %d = %v, want %v", i, e.Kind, wantKinds[i])
		}
		if e.Cgroup != cg {
			t.Errorf("event %d cgroup mismatch", i)
		}
	}
}

func TestSettersApply(t *testing.T) {
	h := newHier()
	cg := h.Create("a")
	cg.SetShares(512)
	if cg.CPU.Shares != 512 {
		t.Fatal("shares not applied")
	}
	cg.SetQuotaCPUs(2.5)
	if lim := cg.CPU.CPULimit(); lim != 2.5 {
		t.Fatalf("cpu limit = %v, want 2.5", lim)
	}
	cg.SetCpuset(3)
	if cg.CPU.CpusetN != 3 {
		t.Fatal("cpuset not applied")
	}
	cg.SetMemLimits(2*units.GiB, units.GiB)
	if cg.Mem.HardLimit != 2*units.GiB || cg.Mem.SoftLimit != units.GiB {
		t.Fatal("memory limits not applied")
	}
}

func TestRemoveReleasesResources(t *testing.T) {
	h := newHier()
	cg := h.Create("a")
	if _, ok := h.Memory().Charge(cg.Mem, units.GiB, 0); !ok {
		t.Fatal("charge failed")
	}
	before := h.Memory().Free()
	h.Remove(cg)
	if h.Memory().Free() != before+units.GiB {
		t.Fatal("memory not released on removal")
	}
	if !cg.Removed() {
		t.Fatal("cgroup not marked removed")
	}
	if h.Lookup("a") != nil {
		t.Fatal("removed cgroup still resolvable")
	}
}

func TestInvalidSettingsPanic(t *testing.T) {
	h := newHier()
	cg := h.Create("a")
	for name, fn := range map[string]func(){
		"zero shares":     func() { cg.SetShares(0) },
		"zero period":     func() { cg.SetQuota(1000, 0) },
		"cpuset too big":  func() { cg.SetCpuset(999) },
		"negative memory": func() { cg.SetMemLimits(-1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestV2Adapters(t *testing.T) {
	h := newHier()
	cg := h.Create("a")
	cg.SetWeight(100)
	if cg.CPU.Shares != 1024 {
		t.Fatalf("weight 100 -> shares %d, want 1024", cg.CPU.Shares)
	}
	cg.SetWeight(300)
	if cg.CPU.Shares != 3072 {
		t.Fatalf("weight 300 -> shares %d, want 3072", cg.CPU.Shares)
	}
	cg.SetCPUMax(250_000, 100_000)
	if lim := cg.CPU.CPULimit(); lim != 2.5 {
		t.Fatalf("cpu.max -> limit %v, want 2.5", lim)
	}
	cg.SetCPUMax(-1, 100_000)
	if lim := cg.CPU.CPULimit(); lim < 1e18 {
		t.Fatalf("cpu.max 'max' should be unlimited, got %v", lim)
	}
	cg.SetMemoryMaxHigh(2*units.GiB, units.GiB)
	if cg.Mem.HardLimit != 2*units.GiB || cg.Mem.SoftLimit != units.GiB {
		t.Fatal("memory.max/high not mapped")
	}
	for _, bad := range []func(){
		func() { cg.SetWeight(0) },
		func() { cg.SetWeight(10001) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestSetSwappiness(t *testing.T) {
	h := newHier()
	cg := h.Create("a")
	cg.SetSwappiness(0)
	if !cg.Mem.SwappinessSet {
		t.Fatal("explicit swappiness 0 not flagged")
	}
	cg.SetSwappiness(80)
	if cg.Mem.Swappiness != 80 || cg.Mem.SwappinessSet {
		t.Fatal("swappiness not applied")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range swappiness")
		}
	}()
	cg.SetSwappiness(101)
}

func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{
		Created: "created", Removed: "removed",
		CPUChanged: "cpu-changed", MemChanged: "mem-changed",
		EventKind(99): "EventKind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}
