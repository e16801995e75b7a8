package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"arv/internal/cfs"
	"arv/internal/cgroups"
	"arv/internal/container"
	"arv/internal/fsd"
	"arv/internal/host"
	"arv/internal/sim"
	"arv/internal/sysns"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// The host every host workload builds, and its churn: each container's
// cpu quota and memory limits are rewritten every churnInterval ±
// churnJitter, hard limit drawn from [memMin, memMax], soft = hard / 2.
const (
	hostCPUs      = 64
	churnInterval = 250 * time.Millisecond
	churnJitter   = 0.3
	memMin        = 1 * units.GiB
	memMax        = 4 * units.GiB
	warmup        = 300 * time.Millisecond // simulated, before the measured span
	updatePeriod  = 24 * time.Millisecond  // the paper's base ns_monitor period
)

// hostSpec shapes one single-host workload: a flat fleet of containers
// under seeded cpu-quota and memory-limit churn, optionally read through
// an in-process fsd server.
type hostSpec struct {
	containers    int
	runnableEvery int // every n-th container gets busy tasks
	tasks         int // busy tasks per busy container
	quotaMin      float64
	quotaMax      float64       // churned quota range, CPUs
	readEvery     int           // ticks between fsd reads; 0 = no consumer
	span          time.Duration // simulated, measured per repetition
}

// churnSpec is the scale regime: limits churn but never bind, no view
// consumer, so cgroup event delivery and the monitor's update round do
// the work.
var churnSpec = hostSpec{
	containers: 4096, runnableEvery: 4, tasks: 1,
	quotaMin: 1, quotaMax: 4, span: 4 * time.Second,
}

// throttleSpec churns quotas below the fair share (64 CPUs / 1024
// containers ≈ 0.06 CPU), so every write binds and the scheduler repairs
// its allocation nearly every tick.
var throttleSpec = hostSpec{
	containers: 1024, runnableEvery: 1, tasks: 2,
	quotaMin: 0.01, quotaMax: 0.1, span: 2 * time.Second,
}

// serveSpec is the churn host at 1024 containers with an fsd consumer,
// the only workload that publishes view snapshots.
var serveSpec = hostSpec{
	containers: 1024, runnableEvery: 4, tasks: 1,
	quotaMin: 1, quotaMax: 4, readEvery: 2, span: 4 * time.Second,
}

// readMix is the fixed cycle of fsd routes serve reads; %s is a
// container (and its cgroup) name.
var readMix = []string{
	"/containers/%s/sys/devices/system/cpu/online",
	"/containers/%s/proc/meminfo",
	"/cgroups/%s/cpu.cfs_quota_us",
	"/containers/%s/proc/cpuinfo",
	"/cgroups/%s/memory.limit_in_bytes",
	"/host/proc/loadavg",
}

// layers accumulates traced self times over one repetition.
type layers struct {
	cfs, subsystems, clock, round, publish, publishIfDirty time.Duration
	write, read, span, create                              time.Duration
}

// repResult is one measured repetition.
type repResult struct {
	setup      time.Duration // CPU time of the build
	cpu        time.Duration // CPU time of the measured span, reads excluded
	wall       time.Duration // wall time of the same
	cal        time.Duration // CPU time of one calibration kernel run
	opLat      []float64     // client op latencies, µs; dropped after the span
	ages       []float64     // serve: snapshot age at each read, sim ms; dropped after the span
	ops        int           // len(opLat)
	opP50      float64       // quantiles of opLat
	opP99      float64
	reads      int     // len(ages)
	ageP50     float64 // quantiles of ages
	ageP99     float64
	ageMax     float64
	heapMB     float64
	counters   map[telemetry.Counter]uint64 // measured-span deltas
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
	gcCycles   uint32
	tr         layers
	digest     string
	attempted  int
	failed     int
	readErrors int
}

// hostBench is one built workload instance.
type hostBench struct {
	spec    hostSpec
	h       *host.Host
	tr      *telemetry.Tracer
	cgs     []*cgroups.Cgroup
	nss     []*sysns.SysNamespace
	names   []string
	handler http.Handler // nil without a consumer

	readRNG *rand.Rand
	writes  []write   // the churn schedule, in issue order
	due     []int32   // due[t] = index into writes of tick t's first write
	tick    int       // ticks executed so far
	quota   []float64 // last written quota per container (0 = none)
	hard    []units.Bytes

	lastVersion uint64
	bodies      hash.Hash64
	reads       int
}

// write is one scheduled limit update of one container.
type write struct {
	idx   int32
	quota float64 // CPUs
	hard  units.Bytes
}

// build constructs the host and the churn schedule; in traced mode it
// also times the container runtime's Create/Exec calls.
func build(spec hostSpec, seed uint64, tr *layers) *hostBench {
	h := host.New(host.Config{
		CPUs:        hostCPUs,
		Memory:      512 * units.GiB,
		Seed:        seed,
		NSOptions:   sysns.Options{BatchedRecompute: true},
		CFSOptions:  cfs.Options{IncrementalRepair: true},
		EventShards: 8,
	})
	// The paper's 24 ms base period, pinned so the update round keeps
	// its rate however many tasks are runnable.
	h.Monitor.FixedPeriod = updatePeriod
	b := &hostBench{
		spec:    spec,
		h:       h,
		tr:      h.EnableTelemetry(0),
		readRNG: rand.New(rand.NewPCG(seed, 0x72656164)),
		quota:   make([]float64, spec.containers),
		hard:    make([]units.Bytes, spec.containers),
		bodies:  fnv.New64a(),
	}
	for i := 0; i < spec.containers; i++ {
		name := fmt.Sprintf("c%04d", i)
		cs := container.Spec{
			Name:      name,
			CPUShares: int64(512 + 256*(i%5)),
			MemHard:   units.Bytes(1+i%4) * units.GiB,
			MemSoft:   units.Bytes(1+i%4) * units.GiB / 2,
		}
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		c := h.Runtime.Create(cs)
		c.Exec("app")
		if tr != nil {
			tr.create += time.Since(t0)
		}
		b.hard[i] = cs.MemHard
		if i%spec.runnableEvery == 0 {
			for k := 0; k < spec.tasks; k++ {
				h.Sched.SetRunnable(h.Sched.NewTask(c.Cgroup.CPU, "spin"), true)
			}
		}
		b.cgs = append(b.cgs, c.Cgroup)
		b.nss = append(b.nss, c.NS)
		b.names = append(b.names, name)
	}
	b.schedule(rand.New(rand.NewPCG(seed, 0x63687572)))
	if spec.readEvery > 0 {
		b.handler = fsd.NewServer(h).Handler()
	}
	return b
}

// schedule generates every churn write of the warmup and measured span
// from the seed: each container first writes at a uniform offset within
// one interval, then again after a jittered interval, drawing a quota
// and a hard limit each time.
func (b *hostBench) schedule(rng *rand.Rand) {
	s := b.spec
	tick := b.h.Tick()
	ticks := int((warmup + s.span) / tick)
	per := float64(churnInterval / tick)
	ring := make([][]int32, int(per*(1+churnJitter))+2)
	for i := range b.cgs {
		at := 1 + rng.IntN(int(per))
		ring[at%len(ring)] = append(ring[at%len(ring)], int32(i))
	}
	b.due = make([]int32, ticks+1)
	for t := 0; t < ticks; t++ {
		b.due[t] = int32(len(b.writes))
		slot := t % len(ring)
		for _, i := range ring[slot] {
			w := write{
				idx:   i,
				quota: s.quotaMin + rng.Float64()*(s.quotaMax-s.quotaMin),
				hard:  memMin + units.Bytes(rng.Float64()*float64(memMax-memMin)),
			}
			b.writes = append(b.writes, w)
			next := max(int(math.Round(per*(1+churnJitter*(2*rng.Float64()-1)))), 1)
			ring[(t+next)%len(ring)] = append(ring[(t+next)%len(ring)], i)
		}
		// No write reschedules into its own slot (next < len(ring)).
		ring[slot] = ring[slot][:0]
	}
	b.due[ticks] = int32(len(b.writes))
}

// churn issues every write due at the current tick. It returns the
// number of write pairs issued.
func (b *hostBench) churn(lat *[]float64, tr *layers) int {
	ws := b.writes[b.due[b.tick]:b.due[b.tick+1]]
	for _, w := range ws {
		cg := b.cgs[w.idx]
		t0 := time.Now()
		cg.SetQuotaCPUs(w.quota)
		cg.SetMemLimits(w.hard, w.hard/2)
		d := time.Since(t0)
		if lat != nil {
			*lat = append(*lat, float64(d)/1e3)
		}
		if tr != nil {
			tr.write += d
		}
		b.quota[w.idx], b.hard[w.idx] = w.quota, w.hard
	}
	return len(ws)
}

// read issues one fsd GET in-process, checks it, and returns its handler
// latency and the sim age of the snapshot it saw.
func (b *hostBench) read(o *repResult) (time.Duration, float64) {
	n := b.reads
	b.reads++
	path := readMix[n%len(readMix)]
	name := b.names[b.readRNG.IntN(len(b.names))] // drawn for every read, host files too
	if strings.Contains(path, "%s") {
		path = fmt.Sprintf(path, name)
	}
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	snap := b.h.ViewSnapshot()
	t0 := time.Now()
	b.handler.ServeHTTP(rec, req)
	d := time.Since(t0)
	o.attempted++
	v, err := strconv.ParseUint(rec.Header().Get("X-Arv-Snapshot-Version"), 10, 64)
	age := b.h.Now() - snap.At
	// A read fails on a non-200 status, a version that is not the
	// current snapshot's or runs backwards, or a view older than one
	// update period (the monitor's bounded-staleness contract).
	if rec.Code != http.StatusOK || err != nil || v != snap.Version || v < b.lastVersion ||
		age < 0 || age > sim.Time(b.h.Monitor.Period()) {
		o.failed++
		o.readErrors++
	}
	b.lastVersion = v
	b.bodies.Write([]byte(path))
	b.bodies.Write(rec.Body.Bytes())
	return d, float64(age) / 1e6
}

// stepper advances the host one tick at a time. Untraced, a step is
// Host.Step. Traced, it drives the same phase pipeline from here so each
// layer can be timed; start stops the monitor's update timer, and the
// round (UpdateAll, then Publish when a consumer exists) runs at the same
// instants the timer would have fired it.
type stepper struct {
	b         *hostBench
	tr        *layers
	nextRound sim.Time
}

func (s *stepper) start() error {
	h := s.b.h
	if s.tr == nil {
		return nil
	}
	if h.Programs() != 0 || h.Clock.PendingTimers() != 1 {
		return fmt.Errorf("traced stepping needs no programs and only the monitor timer (programs=%d timers=%d)",
			h.Programs(), h.Clock.PendingTimers())
	}
	s.nextRound, _ = h.Clock.NextDeadline()
	h.Monitor.Stop()
	return nil
}

func (s *stepper) step() {
	h := s.b.h
	if s.tr == nil {
		h.Step()
		return
	}
	tr := s.tr
	tick := h.Tick()
	end := h.Clock.Now() + tick
	for _, ss := range h.Subsystems() {
		t0 := time.Now()
		ss.Tick(end, tick)
		if ss.SubsystemName() == "cfs" {
			tr.cfs += time.Since(t0)
		} else {
			tr.subsystems += time.Since(t0)
		}
	}
	t0 := time.Now()
	now := h.Clock.Step()
	tr.clock += time.Since(t0)
	if now >= s.nextRound {
		t0 = time.Now()
		h.Monitor.UpdateAll(now)
		tr.round += time.Since(t0)
		if s.b.handler != nil {
			t0 = time.Now()
			h.Monitor.Publish(now)
			tr.publish += time.Since(t0)
		}
		s.nextRound = now + sim.Time(h.Monitor.Period())
	}
	t0 = time.Now()
	published := h.Monitor.PublishIfDirty(now)
	if d := time.Since(t0); published {
		tr.publish += d
	} else {
		tr.publishIfDirty += d
	}
	h.Trace.Add(telemetry.CtrSteps, 1)
}

// run executes ticks simulated ticks of churn, reads and steps.
func (b *hostBench) run(ticks int, st *stepper, o *repResult) (readsWall, readsCPU time.Duration) {
	// The client op is the read when the workload has a consumer and
	// the limit update otherwise.
	var lat *[]float64
	if o != nil && b.handler == nil {
		lat = &o.opLat
	}
	for end := b.tick + ticks; b.tick < end; {
		n := b.churn(lat, st.tr)
		if o != nil {
			o.attempted += n
		}
		if b.handler != nil && b.tick%b.spec.readEvery == 0 {
			ro := o
			if ro == nil {
				ro = &repResult{}
			}
			t0, c0 := time.Now(), cpuNow()
			d, age := b.read(ro)
			if o != nil {
				// The whole read, request building and checks
				// included, stays out of the stepping time.
				readsCPU += cpuNow() - c0
				readsWall += time.Since(t0)
				o.opLat = append(o.opLat, float64(d)/1e3)
				o.ages = append(o.ages, age)
				if st.tr != nil {
					st.tr.read += d
				}
			}
		}
		st.step()
		b.tick++
	}
	return readsWall, readsCPU
}

// counted are the telemetry counters reported per simulated second.
var counted = []telemetry.Counter{
	telemetry.CtrSchedTicks, telemetry.CtrTickRepairs, telemetry.CtrTickRebuilds,
	telemetry.CtrRepairEscalations, telemetry.CtrNSUpdates, telemetry.CtrSnapshotsPublished,
}

// rep builds the workload, warms it up and measures one span. The live
// heap it reports is what the built host retains: the heap after GC with
// the host alive, less the heap after GC once it is dropped, so the
// benchmark's own bookkeeping never counts.
func rep(spec hostSpec, seed uint64, traced bool) (*repResult, error) {
	o, withHost, err := repRun(spec, seed, traced)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	o.heapMB = float64(int64(withHost)-int64(m.HeapAlloc)) / (1 << 20)
	return o, nil
}

// repRun is rep up to the point where the host is dropped; it returns the
// heap after GC with the host still alive.
func repRun(spec hostSpec, seed uint64, traced bool) (*repResult, uint64, error) {
	o := &repResult{counters: map[telemetry.Counter]uint64{}}
	var tr *layers
	if traced {
		tr = &o.tr
	}
	c0 := cpuNow()
	b := build(spec, seed, tr)
	o.setup = cpuNow() - c0

	tick := b.h.Tick()
	b.run(int(warmup/tick), &stepper{b: b}, nil)
	st := &stepper{b: b, tr: tr}
	if err := st.start(); err != nil {
		return nil, 0, err
	}
	before := map[telemetry.Counter]uint64{}
	for _, c := range counted {
		before[c] = b.tr.Count(c)
	}
	runtime.GC()
	o.cal = calibrate()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	spanTicks := int(spec.span / tick)
	if b.handler != nil {
		o.opLat = make([]float64, 0, spanTicks/spec.readEvery+1)
		o.ages = make([]float64, 0, spanTicks/spec.readEvery+1)
	} else {
		o.opLat = make([]float64, 0, b.due[b.tick+spanTicks]-b.due[b.tick])
	}
	start, c0 := time.Now(), cpuNow()
	readsWall, readsCPU := b.run(spanTicks, st, o)
	cpu, total := cpuNow()-c0, time.Since(start)
	runtime.ReadMemStats(&m1)
	o.cpu = cpu - readsCPU
	o.wall = total - readsWall
	o.tr.span = total
	for _, c := range counted {
		o.counters[c] = b.tr.Count(c) - before[c]
	}
	o.mallocs = m1.Mallocs - m0.Mallocs
	o.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	o.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	o.gcCycles = m1.NumGC - m0.NumGC
	// Only the summaries outlive the repetition, so the heap the
	// collector paces against does not grow from one repetition to the
	// next.
	o.ops, o.opP50, o.opP99 = len(o.opLat), quantile(o.opLat, 0.5), quantile(o.opLat, 0.99)
	o.reads, o.ageP50, o.ageP99, o.ageMax = len(o.ages), quantile(o.ages, 0.5), quantile(o.ages, 0.99), quantile(o.ages, 1)
	o.opLat, o.ages = nil, nil

	b.check(o)
	o.digest = b.digest()
	b.writes, b.due = nil, nil // the schedule is the benchmark's, not the host's
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(b)
	return o, m2.HeapAlloc, nil
}

// check verifies that every container's view reflects the limits the
// benchmark last wrote: the cpu upper bound follows the quota (Algorithm
// 1), E_CPU lies within the bounds, and the memory limits took effect.
// A container that disagrees counts as one failed write.
func (b *hostBench) check(o *repResult) {
	p := hostCPUs
	for i, ns := range b.nss {
		want := p
		if q := b.quota[i]; q > 0 {
			want = min(max(int(math.Floor(q+1e-9)), 1), p)
		}
		lower, upper := ns.CPUBounds()
		e := ns.EffectiveCPU()
		cg := b.cgs[i]
		if upper != want || e < lower || e > upper ||
			cg.Mem.HardLimit != b.hard[i] || ns.EffectiveMemory() <= 0 {
			o.failed++
		}
	}
}

// digest hashes the simulated results: every telemetry counter, the
// final per-container views, and (serve) every response body. Speed-only
// changes must leave it unchanged.
func (b *hostBench) digest() string {
	d := sha256.New()
	cs := b.tr.Counters()
	keys := make([]string, 0, len(cs))
	for k := range cs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(d, "%s=%d\n", k, cs[k])
	}
	for i, ns := range b.nss {
		lower, upper := ns.CPUBounds()
		fmt.Fprintf(d, "%s %d %d %d %d\n", b.names[i], ns.EffectiveCPU(), lower, upper, ns.EffectiveMemory())
	}
	fmt.Fprintf(d, "reads=%d bodies=%x\n", b.reads, b.bodies.Sum64())
	return fmt.Sprintf("%x", d.Sum(nil)[:16])
}

// runHost runs repetitions of one host workload within the budget. In
// traced mode repetitions alternate untraced and traced, so the traced
// digest and the tracing overhead are measured against the same run.
func runHost(spec hostSpec, seed uint64, bud budget, traced bool) *outcome {
	out := &outcome{correct: true, values: map[string]float64{}}
	var plain, tracedReps []*repResult
	for i := 0; bud.more(i) || (traced && len(tracedReps) == 0); i++ {
		t := traced && i%2 == 1
		r, err := rep(spec, seed, t)
		if err != nil {
			out.fail("%v", err)
			break
		}
		if out.digest == "" {
			out.digest = r.digest
		} else if r.digest != out.digest {
			out.fail("repetition %d (traced=%v) digest %s differs from %s", i, t, r.digest, out.digest)
		}
		out.attempted += r.attempted
		out.failed += r.failed
		if t {
			tracedReps = append(tracedReps, r)
		} else {
			plain = append(plain, r)
		}
	}
	out.reps = len(plain) + len(tracedReps)
	if out.failed > 0 {
		out.fail("%d of %d operations failed", out.failed, out.attempted)
	}
	if len(plain) == 0 {
		out.attempted = max(out.attempted, 1)
		out.failed = max(out.failed, 1)
		return out
	}
	var cal []float64
	for _, r := range append(plain, tracedReps...) {
		cal = append(cal, float64(r.cal))
	}
	scale, calNote := calScale(cal)
	simS := spec.span.Seconds()
	var setup, nsPer, wallPer, heap, p50, p99 []float64
	ops := 0
	for _, r := range plain {
		setup = append(setup, r.setup.Seconds())
		nsPer = append(nsPer, float64(r.cpu.Nanoseconds())/simS)
		wallPer = append(wallPer, float64(r.wall.Nanoseconds())/simS)
		heap = append(heap, r.heapMB)
		p50 = append(p50, r.opP50)
		p99 = append(p99, r.opP99)
		ops += r.ops
	}
	v := out.values
	v["setup_s"] = scale * median(setup)
	v["ns_per_sim_s"] = scale * median(nsPer)
	v["op_p50_us"] = scale * median(p50)
	v["op_p99_us"] = scale * median(p99)
	v["live_heap_mb"] = median(heap)
	out.notes = append(out.notes,
		fmt.Sprintf("containers=%d span=%v per repetition, untraced reps=%d, op samples=%d (%d per repetition)",
			spec.containers, spec.span, len(plain), ops, plain[0].ops),
		calNote,
		fmt.Sprintf("unscaled: setup_s=%.6f op_p50_us=%.4f op_p99_us=%.4f", median(setup), median(p50), median(p99)),
		fmt.Sprintf("unscaled ns_per_sim_s (CPU) over repetitions: q1=%.0f median=%.0f q3=%.0f; wall median=%.0f",
			quantile(nsPer, 0.25), median(nsPer), quantile(nsPer, 0.75), median(wallPer)))
	if r := plain[0]; r.reads > 0 {
		// Simulated time, the same on every repetition of a schedule:
		// reported here and gated per read, not emitted as a timing
		// metric.
		out.notes = append(out.notes, fmt.Sprintf(
			"view age at read (sim ms) over %d reads per repetition: p50=%.0f p99=%.0f max=%.0f, gate <= %.0f",
			r.reads, r.ageP50, r.ageP99, r.ageMax, updatePeriod.Seconds()*1e3))
	}
	if traced {
		perLayer(out, tracedReps, median(nsPer), simS)
	}
	return out
}

// perLayer fills the traced metrics: totals over the traced repetitions
// divided by their simulated seconds, so the layer self times plus
// other_ms add up to span_ms.
func perLayer(out *outcome, reps []*repResult, plainNs float64, simS float64) {
	var t layers
	var nsPer []float64
	ctr := map[telemetry.Counter]uint64{}
	var mallocs, allocBytes uint64
	var gcPause time.Duration
	var gcCycles uint32
	reads := 0
	for _, r := range reps {
		t.cfs += r.tr.cfs
		t.subsystems += r.tr.subsystems
		t.clock += r.tr.clock
		t.round += r.tr.round
		t.publish += r.tr.publish
		t.publishIfDirty += r.tr.publishIfDirty
		t.write += r.tr.write
		t.read += r.tr.read
		t.span += r.tr.span
		t.create += r.tr.create
		for c, n := range r.counters {
			ctr[c] += n
		}
		mallocs += r.mallocs
		allocBytes += r.allocBytes
		gcPause += r.gcPause
		gcCycles += r.gcCycles
		nsPer = append(nsPer, float64(r.cpu.Nanoseconds())/simS)
		reads += r.reads
	}
	sim := simS * float64(len(reps))
	perSim := func(d time.Duration) float64 { return float64(d) / 1e6 / sim }
	v := out.values
	v["trace_overhead_pct"] = 100 * (median(nsPer)/plainNs - 1)
	v["span_ms"] = perSim(t.span)
	v["cfs.tick_ms"] = perSim(t.cfs)
	v["host.subsystem_tick_ms"] = perSim(t.subsystems)
	v["host.clock_step_ms"] = perSim(t.clock)
	v["sysns.update_round_ms"] = perSim(t.round)
	v["sysns.publish_ms"] = perSim(t.publish)
	v["host.publish_if_dirty_ms"] = perSim(t.publishIfDirty)
	v["cgroups.write_ms"] = perSim(t.write)
	v["fsd.read_ms"] = perSim(t.read)
	v["other_ms"] = perSim(t.span - t.cfs - t.subsystems - t.clock - t.round - t.publish -
		t.publishIfDirty - t.write - t.read)
	v["container.create_ms"] = float64(t.create) / 1e6 / float64(len(reps))

	ticks := float64(ctr[telemetry.CtrSchedTicks])
	v["cfs.tick_repairs"] = float64(ctr[telemetry.CtrTickRepairs]) / sim
	v["cfs.tick_rebuilds"] = float64(ctr[telemetry.CtrTickRebuilds]) / sim
	v["cfs.repair_escalations"] = float64(ctr[telemetry.CtrRepairEscalations]) / sim
	if ticks > 0 {
		v["cfs.repair_ratio"] = float64(ctr[telemetry.CtrTickRepairs]) / ticks
	}
	v["sysns.updates"] = float64(ctr[telemetry.CtrNSUpdates]) / sim
	pubs := ctr[telemetry.CtrSnapshotsPublished]
	v["sysns.snapshots_published"] = float64(pubs) / sim
	if pubs > 0 {
		v["sysns.publish_us_per_snapshot"] = float64(t.publish) / 1e3 / float64(pubs)
	}
	writes := 0
	for _, r := range reps {
		writes += r.attempted - r.reads
	}
	v["cgroups.writes"] = 2 * float64(writes) / sim
	v["fsd.reads"] = float64(reads) / sim
	v["go.allocs_per_sim_s"] = float64(mallocs) / sim
	v["go.alloc_bytes_per_sim_s"] = float64(allocBytes) / sim
	v["go.gc_pause_ms"] = perSim(gcPause)
	v["go.gc_cycles"] = float64(gcCycles) / sim
	for _, r := range reps {
		v["fsd.read_errors"] += float64(r.readErrors)
	}
}
