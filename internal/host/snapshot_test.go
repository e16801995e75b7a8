package host

import (
	"strings"
	"testing"
	"time"

	"arv/internal/container"
	"arv/internal/units"
)

func TestSnapshotContents(t *testing.T) {
	h := newHost()
	pod := h.Runtime.CreatePod(container.PodSpec{Name: "pod", CPUQuotaUS: 200_000, CPUPeriodUS: 100_000})
	m := h.Runtime.CreateInPod(pod, container.Spec{Name: "member"})
	m.Exec("app")
	flat := h.Runtime.Create(container.Spec{Name: "flat", MemHard: units.GiB})
	flat.Exec("app")
	h.Mem.Charge(flat.Cgroup.Mem, 256*units.MiB, h.Now())
	task := h.Sched.NewTask(flat.Cgroup.CPU, "t")
	h.Sched.SetRunnable(task, true)
	h.Run(100 * time.Millisecond)

	s := h.Snapshot()
	if s.Now != 100*time.Millisecond {
		t.Fatalf("now = %v", s.Now)
	}
	if len(s.Containers) != 2 {
		t.Fatalf("containers = %d", len(s.Containers))
	}
	// Sorted by name: flat before member.
	if s.Containers[0].Name != "flat" || s.Containers[1].Name != "member" {
		t.Fatalf("order: %s, %s", s.Containers[0].Name, s.Containers[1].Name)
	}
	flatSnap, member := s.Containers[0], s.Containers[1]
	if flatSnap.Resident != 256*units.MiB {
		t.Fatalf("resident = %v", flatSnap.Resident)
	}
	if flatSnap.RunnableTasks != 1 || flatSnap.CPURate != 1 {
		t.Fatalf("tasks/rate = %d/%v", flatSnap.RunnableTasks, flatSnap.CPURate)
	}
	if member.Pod != "pod" {
		t.Fatalf("member pod = %q", member.Pod)
	}
	if member.CPUUpper != 2 {
		t.Fatalf("member upper = %d, want pod quota 2", member.CPUUpper)
	}
	if s.FreeMemory != 8*units.GiB-256*units.MiB {
		t.Fatalf("free = %v", s.FreeMemory)
	}
}

func TestSnapshotWriteTo(t *testing.T) {
	h := newHost()
	c := h.Runtime.Create(container.Spec{Name: "web"})
	c.Exec("app")
	var b strings.Builder
	if _, err := h.Snapshot().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"container", "E_CPU", "bounds", "web", "loadavg"} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // header line, column line, one container
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

// TestDestroyLeavesViewSnapshotNextStep pins the topology rule of the
// observe-phase publication: a destroyed container is gone from the
// published view snapshot after the very next Step, not at the next
// update round, although its Removed event is still queued when
// Destroy returns.
func TestDestroyLeavesViewSnapshotNextStep(t *testing.T) {
	h := newHost()
	h.Runtime.Create(container.Spec{Name: "a"}).Exec("app")
	b := h.Runtime.Create(container.Spec{Name: "b"})
	b.Exec("app")
	h.ViewSnapshot() // a consumer turns publication on
	h.Run(5 * time.Millisecond)
	if h.ViewSnapshot().Container("b") == nil {
		t.Fatal("b missing from the snapshot before it was destroyed")
	}

	h.Runtime.Destroy(b)
	h.Step()
	s := h.ViewSnapshot()
	if s.Container("b") != nil || s.Cgroup("b") != nil {
		t.Fatalf("b still in the snapshot cut at %v, one step after Destroy", s.At)
	}
	if s.Container("a") == nil {
		t.Fatal("surviving container a missing from the snapshot")
	}
}
