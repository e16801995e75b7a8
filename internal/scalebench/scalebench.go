// Package scalebench builds synthetic container-scale hosts for the
// `scale` benchmark family: hundreds to thousands of flat containers on
// one host, a configurable fraction of them runnable, with an optional
// deterministic limit-churn schedule rewriting cpu quotas and memory
// limits the way an orchestrator's vertical-scaling controller would.
//
// The harness deliberately runs no workload models (no JVMs, no web
// servers): the point is to measure the substrate itself — the per-tick
// CFS allocation round, the ns_monitor view-update pipeline, and the
// cgroup event path under churn — at Borg/Kubernetes-scale container
// counts (see PAPERS.md on cluster managers). cmd/arvbench exposes it
// via -scalebench, and bench_test.go's BenchmarkScale* family wraps it
// in testing.B form.
package scalebench

import (
	"fmt"
	"runtime"
	"time"

	"arv/internal/container"
	"arv/internal/faults"
	"arv/internal/host"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// Config sizes one synthetic scale scenario. The zero value is not
// runnable; use Defaults (or fill Containers) and override fields as
// needed.
type Config struct {
	// Containers is the number of flat containers on the host.
	Containers int
	// CPUs is the host core count (default 64).
	CPUs int
	// Memory is host RAM (default 512 GiB).
	Memory units.Bytes
	// RunnableEvery makes one container in every RunnableEvery-th slot
	// keep a runnable task for the whole run (default 4: 25% of the
	// fleet busy). Busy containers force dense per-tick stepping, which
	// is the regime the benchmark targets; a value <= 0 leaves every
	// container idle.
	RunnableEvery int
	// Churn arms one deterministic limit-churn rule per container:
	// cpu-quota and memory-limit rewrites at jittered ChurnInterval.
	Churn bool
	// ChurnInterval separates a container's churn firings (default
	// 250ms).
	ChurnInterval time.Duration
	// Span is the simulated duration of the measured run (default 2s).
	Span time.Duration
	// Warmup is simulated time executed before measurement starts, so
	// scratch buffers, telemetry rings, and the timer wheel reach steady
	// state (default 250ms).
	Warmup time.Duration
	// Seed drives the host RNG and the churn schedule.
	Seed uint64
}

// Defaults returns the canonical scale configuration for n containers
// with churn on, as reported in BENCH_scale.json. All duration and size
// fields are resolved, so callers can read Span/Warmup directly.
func Defaults(n int) Config {
	return Config{Containers: n, Churn: true}.withDefaults()
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Containers <= 0 {
		panic("scalebench: non-positive container count")
	}
	if c.CPUs == 0 {
		c.CPUs = 64
	}
	if c.Memory == 0 {
		c.Memory = 512 * units.GiB
	}
	if c.RunnableEvery == 0 {
		c.RunnableEvery = 4
	}
	if c.ChurnInterval == 0 {
		c.ChurnInterval = 250 * time.Millisecond
	}
	if c.Span == 0 {
		c.Span = 2 * time.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 250 * time.Millisecond
	}
	return c
}

// Bench is one built scenario, ready to run.
type Bench struct {
	Cfg   Config
	H     *host.Host
	Trace *telemetry.Tracer
}

// Build constructs the host: cfg.Containers flat containers with a
// spread of shares and quotas, runnable tasks per cfg.RunnableEvery,
// telemetry attached (production monitoring on), and — when cfg.Churn —
// one churn rule per container on the fault injector's deterministic
// schedule.
func Build(cfg Config) *Bench {
	cfg = cfg.withDefaults()
	h := host.New(host.Config{
		CPUs:   cfg.CPUs,
		Memory: cfg.Memory,
		Seed:   cfg.Seed,
	})
	// Pin the view-update interval at the paper's 24ms base period: with
	// hundreds of runnable tasks the CFS scheduling period scales to
	// 3ms x ntasks, which would dilute the very pipeline the benchmark
	// measures to a handful of rounds per simulated second.
	h.Monitor.FixedPeriod = 24 * time.Millisecond
	tr := h.EnableTelemetry(0)

	for i := 0; i < cfg.Containers; i++ {
		c := h.Runtime.Create(container.Spec{
			Name:      fmt.Sprintf("c%04d", i),
			CPUShares: int64(512 + 256*(i%5)),         // 512..1536, five classes
			MemHard:   units.Bytes(1+i%4) * units.GiB, // 1..4 GiB
			MemSoft:   units.Bytes(1+i%4) * units.GiB / 2,
		})
		c.Exec("app")
		if cfg.RunnableEvery > 0 && i%cfg.RunnableEvery == 0 {
			t := h.Sched.NewTask(c.Cgroup.CPU, "spin")
			h.Sched.SetRunnable(t, true)
		}
	}

	if cfg.Churn {
		inj := faults.Attach(h, faults.Config{Seed: cfg.Seed + 1})
		for i := 0; i < cfg.Containers; i++ {
			inj.StartChurn(faults.ChurnRule{
				Target:       fmt.Sprintf("c%04d", i),
				Interval:     cfg.ChurnInterval,
				Jitter:       0.3,
				MinQuotaCPUs: 1, MaxQuotaCPUs: 4,
				MinMemHard: 1 * units.GiB, MaxMemHard: 4 * units.GiB,
			})
		}
	}
	return &Bench{Cfg: cfg, H: h, Trace: tr}
}

// Result is one measured scale run, the record arvbench serializes into
// BENCH_scale.json.
type Result struct {
	Containers    int     `json:"containers"`
	CPUs          int     `json:"cpus"`
	Churn         bool    `json:"churn"`
	ChurnMS       float64 `json:"churn_interval_ms"`
	SimSeconds    float64 `json:"sim_seconds"`
	WallMS        float64 `json:"wall_ms"`
	NsPerSimSec   float64 `json:"ns_per_sim_second"`
	Ticks         uint64  `json:"sched_ticks"`
	TickRepairs   uint64  `json:"tick_repairs"`
	TickRebuilds  uint64  `json:"tick_rebuilds"`
	Escalations   uint64  `json:"repair_escalations"`
	NSUpdates     uint64  `json:"ns_updates"`
	LimitChurns   uint64  `json:"limit_churns"`
	Allocs        uint64  `json:"allocs"`
	AllocBytes    uint64  `json:"alloc_bytes"`
	AllocsPerTick float64 `json:"allocs_per_tick"`
}

// Run builds cfg, executes the warmup span, then measures the main span:
// wall clock, telemetry counter deltas, and heap allocations (exact in a
// quiet process; an upper bound if anything else runs concurrently).
func Run(cfg Config) Result {
	b := Build(cfg)
	cfg = b.Cfg
	b.H.Run(cfg.Warmup)

	ticks0 := b.Trace.Count(telemetry.CtrSchedTicks)
	reps0 := b.Trace.Count(telemetry.CtrTickRepairs)
	rebs0 := b.Trace.Count(telemetry.CtrTickRebuilds)
	esc0 := b.Trace.Count(telemetry.CtrRepairEscalations)
	ups0 := b.Trace.Count(telemetry.CtrNSUpdates)
	churn0 := b.Trace.Count(telemetry.CtrLimitChurns)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	b.H.Run(cfg.Span)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	ticks := b.Trace.Count(telemetry.CtrSchedTicks) - ticks0
	res := Result{
		Containers:   cfg.Containers,
		CPUs:         cfg.CPUs,
		Churn:        cfg.Churn,
		ChurnMS:      float64(cfg.ChurnInterval) / float64(time.Millisecond),
		SimSeconds:   cfg.Span.Seconds(),
		WallMS:       float64(wall) / float64(time.Millisecond),
		NsPerSimSec:  float64(wall.Nanoseconds()) / cfg.Span.Seconds(),
		Ticks:        ticks,
		TickRepairs:  b.Trace.Count(telemetry.CtrTickRepairs) - reps0,
		TickRebuilds: b.Trace.Count(telemetry.CtrTickRebuilds) - rebs0,
		Escalations:  b.Trace.Count(telemetry.CtrRepairEscalations) - esc0,
		NSUpdates:    b.Trace.Count(telemetry.CtrNSUpdates) - ups0,
		LimitChurns:  b.Trace.Count(telemetry.CtrLimitChurns) - churn0,
		Allocs:       after.Mallocs - before.Mallocs,
		AllocBytes:   after.TotalAlloc - before.TotalAlloc,
	}
	if ticks > 0 {
		res.AllocsPerTick = float64(res.Allocs) / float64(ticks)
	}
	return res
}
