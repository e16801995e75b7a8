// Package host assembles the simulated machine: virtual clock, CFS
// scheduler, memory controller, cgroup hierarchy, ns_monitor, virtual
// sysfs resolver, and the container runtime. It drives the event-driven
// kernel loop that everything else hangs off.
//
// # Kernel loop
//
// Each Step runs a fixed phase pipeline:
//
//	schedule → clock/timers → programs → observe
//
// The schedule phase runs every registered Subsystem's Tick in order
// (the CFS scheduler distributes CPU and advances task work; the other
// subsystems are event-driven and tick as no-ops); the clock phase moves
// virtual time forward and fires due timers (sys_namespace updates among
// them); the program phase polls live programs and compacts finished
// ones out of the program list; the observe phase records kernel-level
// telemetry. The kernel holds no subsystem-specific logic: components
// join the loop through the Subsystem interface, and each Host owns its
// complete state (clock, PRNG, telemetry ring, cgroup event bus), so
// independent Hosts can run on separate goroutines with no sharing.
//
// On top of dense stepping the kernel fast-forwards across provably
// idle spans: when no task is runnable and every live program has
// declared a wake policy, the kernel computes the next interesting
// instant — earliest timer deadline, scheduler event (quota-period
// boundary of a throttled group), memory event (swap-device drain), or
// program wake — replays the idle per-tick scheduler accounting in one
// call (cfs.SkipIdle), and jumps the clock to one tick before that
// instant. The interesting tick itself always executes densely, so
// timers, throttle transitions, and program wakes land on exactly the
// tick boundaries dense stepping would produce, keeping histories
// bit-identical.
package host

import (
	"time"

	"arv/internal/cfs"
	"arv/internal/cgroups"
	"arv/internal/container"
	"arv/internal/memctl"
	"arv/internal/sim"
	"arv/internal/sysfs"
	"arv/internal/sysns"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// Program is a simulated application (a JVM, an OpenMP process, a
// sysbench run, ...). The host polls every registered program once per
// tick, after the scheduler has advanced work, so the program can react
// to state changes: trigger a GC, open the next parallel region, exit.
type Program interface {
	// Poll advances the program's control logic at virtual time now.
	Poll(now sim.Time)
	// Done reports whether the program has finished (or died).
	Done() bool
}

// WakePolicy is the optional Program extension that makes a program
// eligible for fast-forwarding. NextWake returns the next instant the
// program needs a Poll even though none of its tasks ran; ok=false
// means the program is purely event-driven (its Polls are no-ops while
// its tasks are off-CPU). The contract: if NextWake(now) returns
// (t, true), then every Poll in (now, t) would be a no-op provided no
// task of the program runs in that span. Programs that cannot promise
// this simply do not implement the interface and keep the kernel dense.
type WakePolicy interface {
	NextWake(now sim.Time) (sim.Time, bool)
}

// Config sizes a Host. Zero fields select the defaults noted inline.
type Config struct {
	// Name identifies the host in multi-host (cluster) setups and
	// diagnostics; empty is fine for single-host simulations.
	Name string

	CPUs   int           // required
	Memory units.Bytes   // required
	Tick   time.Duration // simulation step; default 1ms

	// SwapCapacity and SwapBandwidth configure the swap device
	// (defaults in memctl).
	SwapCapacity  units.Bytes
	SwapBandwidth units.Bytes

	// NSOptions tunes the sys_namespace algorithms (zero = as
	// published).
	NSOptions sysns.Options

	// Deprecated: CFSOptions is ignored. The CFS scheduler has one tick
	// protocol (dirty-set repair) and no options; the field remains so
	// existing configurations compile.
	CFSOptions cfs.Options

	// Deprecated: EventShards is ignored. Every hierarchy queues its
	// cgroup events in one FIFO that ns_monitor drains at its read
	// boundaries (DESIGN.md §14); the field remains so existing
	// configurations compile.
	EventShards int

	// Seed seeds the host's deterministic RNG.
	Seed uint64

	// DisableFastForward forces dense per-tick stepping even across
	// provably idle spans. Results are bit-identical either way; this
	// exists for A/B determinism tests and benchmarking.
	DisableFastForward bool
}

// Host is the simulated machine.
type Host struct {
	Clock    *sim.Clock
	Sched    *cfs.Scheduler
	Mem      *memctl.Controller
	Cgroups  *cgroups.Hierarchy
	Monitor  *sysns.Monitor
	Resolver *sysfs.Resolver
	Runtime  *container.Runtime
	RNG      *sim.RNG

	// Trace receives kernel-level events and counters once
	// EnableTelemetry is called; nil (the default) costs nothing.
	Trace *telemetry.Tracer

	name        string
	tick        time.Duration
	programs    []Program
	subsystems  []Subsystem
	fastForward bool
}

// OnNew, when non-nil, is invoked with every freshly built host at the
// end of New. It exists so cross-cutting layers can attach themselves
// to every host a test run builds, no matter how deep the construction
// site: the zero-config identity tests set it to attach an inert
// subsystem (a Static-policy autoscaler) to every experiment host and
// prove the goldens stay byte-identical. Set it from single-threaded
// test setup and clear it afterwards; the hook runs on whichever
// goroutine calls New and must only touch the host it is handed.
var OnNew func(*Host)

// New builds a host from cfg and starts the ns_monitor update timer.
func New(cfg Config) *Host {
	tick := cfg.Tick
	if tick <= 0 {
		tick = time.Millisecond
	}
	clock := sim.NewClock(tick)
	sched := cfs.NewScheduler(cfg.CPUs)
	mem := memctl.New(memctl.Config{
		Total:         cfg.Memory,
		SwapCapacity:  cfg.SwapCapacity,
		SwapBandwidth: cfg.SwapBandwidth,
	})
	hier := cgroups.NewHierarchy(sched, mem)
	mon := sysns.NewMonitor(hier, clock, cfg.NSOptions)
	resolver := sysfs.NewResolver(&sysfs.HostView{Sched: sched, Mem: mem})
	rt := container.NewRuntime(hier, mon, resolver)

	h := &Host{
		name:        cfg.Name,
		Clock:       clock,
		Sched:       sched,
		Mem:         mem,
		Cgroups:     hier,
		Monitor:     mon,
		Resolver:    resolver,
		Runtime:     rt,
		RNG:         sim.NewRNG(cfg.Seed),
		tick:        tick,
		fastForward: !cfg.DisableFastForward,
	}
	// The kernel loop drives these in order; only the scheduler does
	// dense per-tick work, the rest contribute events and telemetry.
	h.subsystems = []Subsystem{sched, mem, mon, timerWheel{clock}}
	mon.Start()
	if OnNew != nil {
		OnNew(h)
	}
	return h
}

// Subsystems returns the components the kernel loop drives, in phase
// order.
func (h *Host) Subsystems() []Subsystem { return h.subsystems }

// AddSubsystem registers an additional component with the kernel loop.
// It participates in every phase from the next Step on: its Tick runs in
// the schedule phase, its NextEvent bounds fast-forward jumps, and its
// SkipIdle replays elided spans.
func (h *Host) AddSubsystem(ss Subsystem) {
	h.subsystems = append(h.subsystems, ss)
	ss.AttachTelemetry(h.Trace)
}

// Name returns the host's configured name ("" when unnamed).
func (h *Host) Name() string { return h.name }

// Tick returns the host's simulation step size.
func (h *Host) Tick() time.Duration { return h.tick }

// ViewSnapshot returns the host's most recently published resource-view
// snapshot (see sysns.Monitor.Snapshot). It is the introspection
// surface the cluster scheduler reads: lock-free, immutable, and
// versioned, so reading it never perturbs the simulation being
// observed. (Snapshot, below in snapshot.go, is the mutably-sampled
// top-style table the CLIs render; this is the serving-path view.)
func (h *Host) ViewSnapshot() *sysns.ViewSnapshot { return h.Monitor.Snapshot() }

// Now returns the current virtual time.
func (h *Host) Now() sim.Time { return h.Clock.Now() }

// AddProgram registers a program for per-tick polling. Finished
// programs are compacted out of the list by the program phase.
func (h *Host) AddProgram(p Program) { h.programs = append(h.programs, p) }

// Programs returns the number of registered, not-yet-compacted
// programs.
func (h *Host) Programs() int { return len(h.programs) }

// EnableTelemetry attaches a fresh tracer (ring capacity ringSize;
// telemetry.DefaultRingSize if <= 0) to the host and every registered
// subsystem and returns it.
func (h *Host) EnableTelemetry(ringSize int) *telemetry.Tracer {
	tr := telemetry.New(ringSize)
	h.Trace = tr
	for _, ss := range h.subsystems {
		ss.AttachTelemetry(tr)
	}
	return tr
}

// Step advances the simulation by one dense tick through the phase
// pipeline: schedule → clock/timers → programs → observe. It returns
// the new time.
func (h *Host) Step() sim.Time {
	h.phaseSchedule()
	now := h.phaseClock()
	h.phasePrograms(now)
	h.phaseObserve(now)
	return now
}

// phaseSchedule runs one dense tick round through every subsystem, in
// registration order. Each is handed the tick's end time, matching the
// timestamp programs and timers will observe.
func (h *Host) phaseSchedule() {
	end := h.Clock.Now() + h.tick
	for _, ss := range h.subsystems {
		ss.Tick(end, h.tick)
	}
}

// phaseClock advances virtual time by one tick and fires due timers.
func (h *Host) phaseClock() sim.Time {
	return h.Clock.Step()
}

// phasePrograms polls every live program registered before this phase
// began (programs added from within a Poll start participating next
// tick, as before) and compacts finished programs out of the list.
func (h *Host) phasePrograms(now sim.Time) {
	n := len(h.programs)
	w := 0
	for i := 0; i < n; i++ {
		p := h.programs[i]
		if !p.Done() {
			p.Poll(now)
			h.Trace.Add(telemetry.CtrProgramPolls, 1)
		}
		if !p.Done() {
			h.programs[w] = p
			w++
		}
	}
	if w < n {
		// Keep any programs appended mid-poll, then nil the abandoned
		// tail so finished programs can be collected.
		m := len(h.programs)
		kept := append(h.programs[:w], h.programs[n:m]...)
		for i := len(kept); i < m; i++ {
			h.programs[i] = nil
		}
		h.programs = kept
	}
}

// phaseObserve records kernel-level accounting for the completed tick
// and flushes any pending view-snapshot publication: every subsystem,
// timer, and program has run, so the tick's triggers are fully applied
// and DESIGN.md §11 allows a snapshot to be cut. Coalescing here bounds
// publication to one snapshot per tick no matter how many cgroup events
// the tick carried.
func (h *Host) phaseObserve(now sim.Time) {
	h.Monitor.PublishIfDirty(now)
	h.Trace.Add(telemetry.CtrSteps, 1)
}

// step advances by one dense tick, first fast-forwarding across the
// preceding idle span when the kernel can prove it is uneventful. limit
// bounds the jump (the caller's run deadline).
func (h *Host) step(limit sim.Time) sim.Time {
	if h.fastForward {
		if k := h.idleTicks(limit); k > 0 {
			h.phaseFastForward(k)
		}
	}
	return h.Step()
}

// idleTicks returns how many upcoming ticks can be skipped in one jump,
// or 0 when the host must step densely. A span qualifies only when no
// task is runnable and every live program has a wake policy; the jump
// stops one tick short of the earliest interesting instant (any
// subsystem's next event — timer deadline, quota-period boundary, swap
// drain —, program wake, or limit) so that tick runs densely.
func (h *Host) idleTicks(limit sim.Time) int {
	if h.Sched.RunnableNow() != 0 {
		return 0
	}
	now := h.Clock.Now()
	target := limit
	for _, ss := range h.subsystems {
		if t, ok := ss.NextEvent(now); ok && t < target {
			target = t
		}
	}
	for _, p := range h.programs {
		if p.Done() {
			continue
		}
		w, ok := p.(WakePolicy)
		if !ok {
			return 0 // unconditional poller: stay dense
		}
		if t, tok := w.NextWake(now); tok && t < target {
			target = t
		}
	}
	if target <= now {
		return 0
	}
	// Round the target up to the tick grid, then stop one tick short.
	k := int((target-now+h.tick-1)/h.tick) - 1
	if k <= 0 {
		return 0
	}
	return k
}

// phaseFastForward replays k idle ticks in one jump: every subsystem
// replays its idle accounting (the scheduler tick-by-tick, bit-identical
// with dense stepping) and the clock advances to the end of the span. By
// construction no timer deadline falls inside the span.
func (h *Host) phaseFastForward(k int) {
	now := h.Clock.Now()
	for _, ss := range h.subsystems {
		ss.SkipIdle(now+h.tick, h.tick, k)
	}
	h.Clock.Advance(now + time.Duration(k)*h.tick)
	h.Trace.Add(telemetry.CtrFastForwards, 1)
	h.Trace.Add(telemetry.CtrSkippedTicks, uint64(k))
	if h.Trace.Enabled() {
		h.Trace.Emit(h.Clock.Now(), telemetry.KindFastForward, "kernel", int64(k), 0)
	}
}

// Run advances the simulation by d, fast-forwarding across idle spans
// when enabled.
func (h *Host) Run(d time.Duration) {
	deadline := h.Clock.Now() + d
	for h.Clock.Now() < deadline {
		h.step(deadline)
	}
}

// RunUntil steps until cond returns true or the timeout elapses; it
// reports whether cond was met. cond may depend on anything — including
// raw virtual time — so RunUntil always steps densely and evaluates
// cond once per tick.
func (h *Host) RunUntil(cond func() bool, timeout time.Duration) bool {
	deadline := h.Clock.Now() + timeout
	for h.Clock.Now() < deadline {
		if cond() {
			return true
		}
		h.Step()
	}
	return cond()
}

// RunUntilDone steps until every registered program reports Done, or
// the timeout elapses; it reports whether all completed. Program
// completion only changes on ticks a program is polled, so idle-span
// fast-forwarding applies.
func (h *Host) RunUntilDone(timeout time.Duration) bool {
	deadline := h.Clock.Now() + timeout
	for h.Clock.Now() < deadline {
		if h.allDone() {
			return true
		}
		h.step(deadline)
	}
	return h.allDone()
}

func (h *Host) allDone() bool {
	for _, p := range h.programs {
		if !p.Done() {
			return false
		}
	}
	return true
}
