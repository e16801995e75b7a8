package cgroups

import (
	"testing"

	"arv/internal/units"
)

func TestCreateChild(t *testing.T) {
	h := newHier()
	pod := h.Create("pod")
	a := h.CreateChild(pod, "a")
	if a.Parent != pod {
		t.Fatal("parent link missing")
	}
	if len(pod.Children()) != 1 || pod.Children()[0] != a {
		t.Fatal("children list broken")
	}
	if a.CPU.Parent() != pod.CPU {
		t.Fatal("scheduler nesting missing")
	}
	if a.Mem.Parent() != pod.Mem {
		t.Fatal("memory nesting missing")
	}
	if h.Lookup("a") != a {
		t.Fatal("child not resolvable")
	}
}

func TestCreateChildEvents(t *testing.T) {
	h := newHier()
	pod := h.Create("pod")
	var events []Event
	h.Subscribe(func(e Event) { events = append(events, e) })
	a := h.CreateChild(pod, "a")
	h.Remove(pod)
	h.Drain()
	// created(a), removed(a), removed(pod)
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	if events[0].Kind != Created || events[0].Cgroup != a {
		t.Fatalf("event 0 = %v %s", events[0].Kind, events[0].Cgroup.Name)
	}
	if events[1].Kind != Removed || events[1].Cgroup != a {
		t.Fatalf("event 1 = %v %s", events[1].Kind, events[1].Cgroup.Name)
	}
	if events[2].Kind != Removed || events[2].Cgroup != pod {
		t.Fatalf("event 2 = %v %s", events[2].Kind, events[2].Cgroup.Name)
	}
}

func TestRemoveParentCascades(t *testing.T) {
	h := newHier()
	pod := h.Create("pod")
	a := h.CreateChild(pod, "a")
	h.Memory().Charge(a.Mem, units.GiB, 0)
	h.Remove(pod)
	if h.Lookup("pod") != nil || h.Lookup("a") != nil {
		t.Fatal("cascade removal incomplete")
	}
	if !a.Removed() || !pod.Removed() {
		t.Fatal("removed flags not set")
	}
	if h.Memory().Free() != 16*units.GiB {
		t.Fatal("child memory not freed")
	}
}

func TestCreateChildValidation(t *testing.T) {
	h := newHier()
	pod := h.Create("pod")
	h.CreateChild(pod, "a")
	for name, fn := range map[string]func(){
		"duplicate name": func() { h.CreateChild(pod, "a") },
		"removed parent": func() {
			h.Remove(pod)
			h.CreateChild(pod, "x")
		},
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
