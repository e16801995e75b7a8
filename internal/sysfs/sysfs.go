// Package sysfs implements the paper's virtual sysfs: the interface
// through which user-space applications probe system resources. A View
// answers the probes applications actually issue — the glibc sysconf
// names (_SC_NPROCESSORS_ONLN, _SC_PHYS_PAGES, _SC_PAGESIZE) and the
// pseudo-files under /sys and /proc they are derived from.
//
// The host view reports total host resources, exactly as an unmodified
// kernel does for every process. The namespace view answers the same
// queries from the process's sys_namespace, so a containerized
// application transparently sees its *effective* CPU and memory. The
// Resolver reproduces the interception logic of §3.2: processes linked to
// the init namespaces get the host view; processes in their own
// namespaces get a lazily created virtual view.
package sysfs

import (
	"fmt"
	"sort"
	"strings"

	"arv/internal/cfs"
	"arv/internal/memctl"
	"arv/internal/sysns"
	"arv/internal/units"
)

// Sysconf names, mirroring the glibc constants the paper discusses.
type Sysconf int

const (
	// ScNProcessorsOnln is _SC_NPROCESSORS_ONLN: online CPUs.
	ScNProcessorsOnln Sysconf = iota
	// ScNProcessorsConf is _SC_NPROCESSORS_CONF: configured CPUs.
	ScNProcessorsConf
	// ScPhysPages is _SC_PHYS_PAGES: physical memory pages.
	ScPhysPages
	// ScAvPhysPages is _SC_AVPHYS_PAGES: currently free pages.
	ScAvPhysPages
	// ScPageSize is _SC_PAGESIZE.
	ScPageSize
)

// String returns the glibc constant name.
func (s Sysconf) String() string {
	switch s {
	case ScNProcessorsOnln:
		return "_SC_NPROCESSORS_ONLN"
	case ScNProcessorsConf:
		return "_SC_NPROCESSORS_CONF"
	case ScPhysPages:
		return "_SC_PHYS_PAGES"
	case ScAvPhysPages:
		return "_SC_AVPHYS_PAGES"
	case ScPageSize:
		return "_SC_PAGESIZE"
	default:
		return fmt.Sprintf("Sysconf(%d)", int(s))
	}
}

// View answers resource probes for one process.
type View interface {
	// Sysconf returns the value of the given configuration variable.
	Sysconf(name Sysconf) (int64, error)
	// ReadFile returns the content of a /sys or /proc pseudo-file.
	ReadFile(path string) (string, error)
	// OnlineCPUs is the convenience most runtimes use: the CPU count
	// they should size thread pools from.
	OnlineCPUs() int
	// TotalMemory is the memory size runtimes should size heaps from.
	TotalMemory() units.Bytes
}

// ErrNoEnt reports an unknown pseudo-file path.
type ErrNoEnt struct{ Path string }

// Error returns the message naming the unknown path.
func (e ErrNoEnt) Error() string { return "sysfs: no such file " + e.Path }

// HostView is the unmodified kernel view: total host resources.
type HostView struct {
	Sched *cfs.Scheduler
	Mem   *memctl.Controller
}

// OnlineCPUs returns the host CPU count.
func (v *HostView) OnlineCPUs() int { return v.Sched.NCPU() }

// TotalMemory returns the host physical memory size.
func (v *HostView) TotalMemory() units.Bytes { return v.Mem.Total() }

// Sysconf implements View.
func (v *HostView) Sysconf(name Sysconf) (int64, error) {
	switch name {
	case ScNProcessorsOnln, ScNProcessorsConf:
		return int64(v.Sched.NCPU()), nil
	case ScPhysPages:
		return v.Mem.Total().Pages(), nil
	case ScAvPhysPages:
		return v.Mem.Free().Pages(), nil
	case ScPageSize:
		return int64(units.PageSize), nil
	default:
		return 0, fmt.Errorf("sysfs: unknown sysconf %v", name)
	}
}

// ReadFile implements View.
func (v *HostView) ReadFile(path string) (string, error) {
	return renderFile(path, v.Sched.NCPU(), v.Mem.Total(), v.Mem.Free(), v.Sched.LoadAvg())
}

// NSView is the virtual sysfs of one container: probes are redirected to
// the container's sys_namespace.
type NSView struct {
	NS   *sysns.SysNamespace
	Host *HostView
}

// OnlineCPUs returns the container's effective CPU count.
func (v *NSView) OnlineCPUs() int { return v.NS.EffectiveCPU() }

// TotalMemory returns the container's effective memory.
func (v *NSView) TotalMemory() units.Bytes { return v.NS.EffectiveMemory() }

// Sysconf implements View. _SC_PHYS_PAGES * _SC_PAGESIZE — the formula
// glibc users compute memory size with (§2.2) — yields effective memory.
func (v *NSView) Sysconf(name Sysconf) (int64, error) {
	switch name {
	case ScNProcessorsOnln, ScNProcessorsConf:
		return int64(v.NS.EffectiveCPU()), nil
	case ScPhysPages:
		return v.NS.EffectiveMemory().Pages(), nil
	case ScAvPhysPages:
		used := v.NS.Cgroup().Mem.Resident()
		free := v.NS.EffectiveMemory() - used
		if free < 0 {
			free = 0
		}
		return free.Pages(), nil
	case ScPageSize:
		return int64(units.PageSize), nil
	default:
		return 0, fmt.Errorf("sysfs: unknown sysconf %v", name)
	}
}

// ReadFile implements View.
func (v *NSView) ReadFile(path string) (string, error) {
	used := v.NS.Cgroup().Mem.Resident()
	free := v.NS.EffectiveMemory() - used
	if free < 0 {
		free = 0
	}
	return renderFile(path, v.NS.EffectiveCPU(), v.NS.EffectiveMemory(), free, v.Host.Sched.LoadAvg())
}

// renderFile serves the pseudo-file tree shared by both views.
func renderFile(path string, ncpu int, total, free units.Bytes, loadavg float64) (string, error) {
	switch path {
	case "/sys/devices/system/cpu/online", "/sys/devices/system/cpu/possible", "/sys/devices/system/cpu/present":
		if ncpu <= 0 {
			return "", nil
		}
		if ncpu == 1 {
			return "0\n", nil
		}
		return fmt.Sprintf("0-%d\n", ncpu-1), nil
	case "/sys/devices/system/cpu":
		names := make([]string, 0, ncpu+3)
		for i := 0; i < ncpu; i++ {
			names = append(names, fmt.Sprintf("cpu%d", i))
		}
		names = append(names, "online", "possible", "present")
		sort.Strings(names)
		return strings.Join(names, "\n") + "\n", nil
	case "/proc/cpuinfo":
		var b strings.Builder
		for i := 0; i < ncpu; i++ {
			fmt.Fprintf(&b, "processor\t: %d\nmodel name\t: simulated\n\n", i)
		}
		return b.String(), nil
	case "/proc/meminfo":
		return fmt.Sprintf("MemTotal:       %8d kB\nMemFree:        %8d kB\nMemAvailable:   %8d kB\n",
			int64(total)/1024, int64(free)/1024, int64(free)/1024), nil
	case "/proc/loadavg":
		return fmt.Sprintf("%.2f %.2f %.2f 1/1 1\n", loadavg, loadavg, loadavg), nil
	case "/proc/stat":
		// Aggregate plus per-cpu lines, as parsed by top/htop/cadvisor.
		var b strings.Builder
		fmt.Fprintf(&b, "cpu  0 0 0 0 0 0 0 0 0 0\n")
		for i := 0; i < ncpu; i++ {
			fmt.Fprintf(&b, "cpu%d 0 0 0 0 0 0 0 0 0 0\n", i)
		}
		return b.String(), nil
	default:
		return "", ErrNoEnt{path}
	}
}

// Resolver intercepts probes and routes them to the host view or a
// per-container virtual view, reproducing §3.2: "when a process probes
// system resources and is linked to its own namespaces other than the
// init namespaces, a virtual sysfs is created for this process".
type Resolver struct {
	host  *HostView
	views map[*sysns.SysNamespace]*NSView
}

// NewResolver returns a resolver over the host view.
func NewResolver(host *HostView) *Resolver {
	return &Resolver{host: host, views: make(map[*sysns.SysNamespace]*NSView)}
}

// Host returns the init-namespace view.
func (r *Resolver) Host() *HostView { return r.host }

// For returns the view for a process linked to the given sys_namespace.
// A nil namespace (an ordinary, non-containerized process) resolves to
// the host view; otherwise a virtual view is created on first use and
// cached, so repeated probes hit the same virtual sysfs.
func (r *Resolver) For(ns *sysns.SysNamespace) View {
	if ns == nil {
		return r.host
	}
	if v, ok := r.views[ns]; ok {
		return v
	}
	v := &NSView{NS: ns, Host: r.host}
	r.views[ns] = v
	return v
}

// CachedViews reports how many virtual views have been materialized.
func (r *Resolver) CachedViews() int { return len(r.views) }
