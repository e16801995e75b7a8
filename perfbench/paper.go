package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"arv/internal/experiments"
	"arv/internal/host"
)

// paperScale is the scale the committed goldens were rendered at.
const paperScale = 0.25

// repoRoot finds the arv module root: the working directory when run
// from the checkout, its parent when run from this directory (go test).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module arv\n") {
			return dir, nil
		}
	}
	return "", fmt.Errorf("arv module root not found from the working directory")
}

// paperSetup loads every golden and resolves every experiment.
func paperSetup(root string) ([]experiments.Entry, []string, error) {
	entries := make([]experiments.Entry, len(paperIDs))
	goldens := make([]string, len(paperIDs))
	for i, id := range paperIDs {
		e, ok := experiments.Lookup(id)
		if !ok {
			return nil, nil, fmt.Errorf("experiment %s is not registered", id)
		}
		data, err := os.ReadFile(filepath.Join(root, "testdata", "golden", id+".golden"))
		if err != nil {
			return nil, nil, fmt.Errorf("load golden: %w", err)
		}
		entries[i], goldens[i] = e, string(data)
	}
	return entries, goldens, nil
}

// sweep is one measured pass over every experiment.
type sweep struct {
	cpu      time.Duration   // CPU time of the sweep, forced collections excluded
	wall     time.Duration   // wall time of the same
	expCPU   []time.Duration // CPU time of each experiment, by paperIDs index
	expWall  []time.Duration // wall time of the same
	cal      []float64       // calibration kernel CPU times, ns
	simS     float64         // simulated seconds over every host built
	heapMB   float64         // largest heap an experiment's hosts retain
	mallocs  uint64
	bytes    uint64
	gcPause  time.Duration
	gcCycles uint32
	digest   string
	failed   int
}

// runSweep runs every experiment once, sequentially, in the seed's
// order, comparing each rendered output with its golden byte for byte.
// Every experiment starts from a collected heap; the heap its hosts
// still hold when it returns is its retained memory.
func runSweep(entries []experiments.Entry, goldens []string, order []int) *sweep {
	s := &sweep{expCPU: make([]time.Duration, len(entries)), expWall: make([]time.Duration, len(entries))}
	outputs := make([]string, len(entries))
	var hosts []*host.Host
	host.OnNew = func(h *host.Host) { hosts = append(hosts, h) }
	defer func() { host.OnNew = nil }()

	// Forced collections and calibration runs stay out of the sweep's
	// time.
	var forcedWall, forcedCPU time.Duration
	collect := func(m *runtime.MemStats, gc, cal bool) {
		t0, c0 := time.Now(), cpuNow()
		if gc {
			runtime.GC()
		}
		runtime.ReadMemStats(m)
		if cal {
			s.cal = append(s.cal, float64(calibrate()))
		}
		forcedCPU += cpuNow() - c0
		forcedWall += time.Since(t0)
	}
	start, cpu0 := time.Now(), cpuNow()
	for _, i := range order {
		var m0, m1, m2 runtime.MemStats
		collect(&m0, true, true)
		t0, c0 := time.Now(), cpuNow()
		outputs[i] = entries[i].Run(experiments.Options{Scale: paperScale, Workers: 1}).String()
		s.expCPU[i] = cpuNow() - c0
		s.expWall[i] = time.Since(t0)
		collect(&m1, false, false)
		collect(&m2, true, false)
		s.mallocs += m1.Mallocs - m0.Mallocs
		s.bytes += m1.TotalAlloc - m0.TotalAlloc
		s.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
		s.gcCycles += m1.NumGC - m0.NumGC
		if mb := float64(int64(m2.HeapAlloc)-int64(m0.HeapAlloc)) / (1 << 20); mb > s.heapMB {
			s.heapMB = mb
		}
		for _, h := range hosts {
			s.simS += h.Now().Seconds()
		}
		clear(hosts)
		hosts = hosts[:0]
	}
	s.cpu = cpuNow() - cpu0 - forcedCPU
	s.wall = time.Since(start) - forcedWall

	d := sha256.New()
	for i, out := range outputs {
		if out != goldens[i] {
			s.failed++
		}
		fmt.Fprintf(d, "%s\n%s", paperIDs[i], out)
	}
	s.digest = fmt.Sprintf("%x", d.Sum(nil)[:16])
	return s
}

// runPaper sweeps all 21 experiments at the golden scale until the
// budget is spent. The seed only permutes the sweep order: the
// experiments are independent, so the outputs (and the digest) must not
// change with it.
func runPaper(seed uint64, bud budget, traced bool) *outcome {
	out := &outcome{correct: true, values: map[string]float64{}}
	root, err := repoRoot()
	if err != nil {
		out.fail("%v", err)
		out.attempted = 1
		out.failed = 1
		return out
	}
	order := rand.New(rand.NewPCG(seed, 0x7061706572)).Perm(len(paperIDs))

	var setups []float64
	var plain, tracedSweeps []*sweep
	for i := 0; bud.more(i) || (traced && len(tracedSweeps) == 0); i++ {
		// Set up several times per sweep: a single load is too short
		// to time steadily.
		var entries []experiments.Entry
		var goldens []string
		for k := 0; k < 16; k++ {
			c0 := cpuNow()
			entries, goldens, err = paperSetup(root)
			setups = append(setups, (cpuNow() - c0).Seconds())
			if err != nil {
				out.fail("%v", err)
				out.attempted++
				out.failed++
				return out
			}
		}
		s := runSweep(entries, goldens, order)
		if out.digest == "" {
			out.digest = s.digest
		} else if s.digest != out.digest {
			out.fail("sweep %d digest %s differs from %s", i, s.digest, out.digest)
		}
		out.attempted += len(paperIDs)
		out.failed += s.failed
		if traced && i%2 == 1 {
			tracedSweeps = append(tracedSweeps, s)
		} else {
			plain = append(plain, s)
		}
	}
	out.reps = len(plain) + len(tracedSweeps)
	if out.failed > 0 {
		out.fail("%d of %d experiment outputs differ from testdata/golden", out.failed, out.attempted)
	}

	// An experiment's op time is its median over the sweeps; the op
	// quantiles run over the 21 experiments.
	var nsPer, wallPer, heap, lat, cal []float64
	for _, s := range append(plain, tracedSweeps...) {
		cal = append(cal, s.cal...)
	}
	scale, calNote := calScale(cal)
	perExp := make([][]float64, len(paperIDs))
	for _, s := range plain {
		nsPer = append(nsPer, float64(s.cpu.Nanoseconds())/s.simS)
		wallPer = append(wallPer, float64(s.wall.Nanoseconds())/s.simS)
		heap = append(heap, s.heapMB)
		for i, d := range s.expCPU {
			perExp[i] = append(perExp[i], float64(d)/1e3)
		}
	}
	for _, xs := range perExp {
		lat = append(lat, median(xs))
	}
	v := out.values
	v["setup_s"] = scale * median(setups)
	v["ns_per_sim_s"] = scale * median(nsPer)
	v["op_p50_us"] = scale * quantile(lat, 0.5)
	v["op_p99_us"] = scale * quantile(lat, 0.99)
	v["live_heap_mb"] = median(heap)
	out.notes = append(out.notes,
		fmt.Sprintf("%d experiments at scale %g, golden matches %d/%d, untraced sweeps=%d, setup samples=%d",
			len(paperIDs), paperScale, out.attempted-out.failed, out.attempted, len(plain), len(setups)),
		calNote,
		fmt.Sprintf("unscaled: setup_s=%.6f op_p50_us=%.1f op_p99_us=%.1f", median(setups), quantile(lat, 0.5), quantile(lat, 0.99)),
		fmt.Sprintf("unscaled ns_per_sim_s (CPU) over sweeps: q1=%.0f median=%.0f q3=%.0f; wall median=%.0f",
			quantile(nsPer, 0.25), median(nsPer), quantile(nsPer, 0.75), median(wallPer)))
	if traced {
		paperLayers(out, tracedSweeps, median(nsPer))
	}
	return out
}

// paperLayers fills the traced metrics for the paper workload: each
// experiment's mean wall per sweep, and the sweep wall per simulated
// second split into experiment time and the harness remainder.
func paperLayers(out *outcome, sweeps []*sweep, plainNs float64) {
	v := out.values
	var wall, inExp, gcPause time.Duration
	var simS float64
	var nsPer []float64
	var mallocs, bytes uint64
	var gcCycles uint32
	for _, s := range sweeps {
		wall += s.wall
		simS += s.simS
		nsPer = append(nsPer, float64(s.cpu.Nanoseconds())/s.simS)
		mallocs += s.mallocs
		bytes += s.bytes
		gcPause += s.gcPause
		gcCycles += s.gcCycles
		for i, d := range s.expWall {
			inExp += d
			v["experiments."+paperIDs[i]+"_ms"] += float64(d) / 1e6 / float64(len(sweeps))
		}
	}
	v["trace_overhead_pct"] = 100 * (median(nsPer)/plainNs - 1)
	v["experiments.suite_ms"] = float64(wall) / 1e6 / float64(len(sweeps))
	v["span_ms"] = float64(wall) / 1e6 / simS
	v["other_ms"] = float64(wall-inExp) / 1e6 / simS
	v["go.allocs_per_sim_s"] = float64(mallocs) / simS
	v["go.alloc_bytes_per_sim_s"] = float64(bytes) / simS
	v["go.gc_pause_ms"] = float64(gcPause) / 1e6 / simS
	v["go.gc_cycles"] = float64(gcCycles) / simS
}
