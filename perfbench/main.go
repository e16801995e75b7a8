// Command perfbench is the repository's benchmark: it runs one named
// workload through the simulator's public functions for a fixed wall
// budget, checks that the outputs are correct, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload churn --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the metrics are the end-to-end set (see metricsEndToEnd);
// with --trace 1 they are the per-layer set, measured by alternating
// untraced and traced repetitions of the same workload. README.md in this
// directory gives each workload's rationale and the layer predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one emitted value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec names a metric and its unit.
type spec struct{ name, unit string }

// metricsEndToEnd is what a user of the simulator sees. Every workload
// emits every one of them; the "op" is the workload's client operation
// (a limit update, an fsd read, or an experiment run).
var metricsEndToEnd = []spec{
	{"setup_s", "s"},
	{"ns_per_sim_s", "ns"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"live_heap_mb", "MB"},
}

// paperIDs are the registered experiments the paper workload sweeps.
var paperIDs = []string{
	"abl-cpu", "abl-mem", "abl-period", "ext-autoscale", "ext-cluster",
	"ext-httpd", "ext-launch", "ext-probe", "ext-views", "fault-churn",
	"fault-staleness", "fig1", "fig10", "fig11", "fig12", "fig2a",
	"fig2b", "fig6", "fig7", "fig8", "fig9",
}

// metricsPerLayer is the traced set. Times are wall milliseconds per
// simulated second unless the unit says otherwise; counts are per
// simulated second and come from the telemetry counters.
var metricsPerLayer = func() []spec {
	s := []spec{
		{"trace_overhead_pct", "%"},
		{"span_ms", "ms/sim_s"},
		{"other_ms", "ms/sim_s"},
		{"cfs.tick_ms", "ms/sim_s"},
		{"cfs.tick_repairs", "1/sim_s"},
		{"cfs.tick_rebuilds", "1/sim_s"},
		{"cfs.repair_escalations", "1/sim_s"},
		{"cfs.repair_ratio", "ratio"},
		{"cgroups.write_ms", "ms/sim_s"},
		{"cgroups.writes", "1/sim_s"},
		{"sysns.update_round_ms", "ms/sim_s"},
		{"sysns.updates", "1/sim_s"},
		{"sysns.publish_ms", "ms/sim_s"},
		{"sysns.snapshots_published", "1/sim_s"},
		{"sysns.publish_us_per_snapshot", "us"},
		{"host.clock_step_ms", "ms/sim_s"},
		{"host.subsystem_tick_ms", "ms/sim_s"},
		{"host.publish_if_dirty_ms", "ms/sim_s"},
		{"container.create_ms", "ms"},
		{"fsd.read_ms", "ms/sim_s"},
		{"fsd.reads", "1/sim_s"},
		{"fsd.read_errors", "count"},
		{"go.allocs_per_sim_s", "1/sim_s"},
		{"go.alloc_bytes_per_sim_s", "B/sim_s"},
		{"go.gc_pause_ms", "ms/sim_s"},
		{"go.gc_cycles", "1/sim_s"},
		{"experiments.suite_ms", "ms"},
	}
	for _, id := range paperIDs {
		s = append(s, spec{"experiments." + id + "_ms", "ms"})
	}
	return s
}()

// outcome is what one workload run produces.
type outcome struct {
	attempted, failed int
	correct           bool
	problems          []string
	digest            string
	reps              int
	notes             []string
	values            map[string]float64 // by metric name; absent = 0
}

func (o *outcome) fail(format string, args ...any) {
	o.correct = false
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// budget bounds one run: repetitions continue until the wall budget is
// spent and at least minReps have completed.
type budget struct {
	seconds float64
	minReps int
	start   time.Time
}

func (b budget) more(rep int) bool {
	return rep < b.minReps || time.Since(b.start).Seconds() < b.seconds
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(seed uint64, b budget, trace bool) *outcome{
	"churn":    func(s uint64, b budget, t bool) *outcome { return runHost(churnSpec, s, b, t) },
	"throttle": func(s uint64, b budget, t bool) *outcome { return runHost(throttleSpec, s, b, t) },
	"serve":    func(s uint64, b budget, t bool) *outcome { return runHost(serveSpec, s, b, t) },
	"paper":    runPaper,
}

func main() {
	name := flag.String("workload", "", "workload: churn, throttle, serve or paper")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "wall seconds to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {churn,throttle,serve,paper} --seed N --seconds S --trace {0,1}\n")
		os.Exit(2)
	}
	// The simulator is single-threaded; one P keeps the Go runtime's
	// spinning and background GC threads from adding CPU time that
	// depends on the machine's load rather than on the program.
	runtime.GOMAXPROCS(1)
	specs := metricsEndToEnd
	if *trace == 1 {
		specs = metricsPerLayer
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Printf("machine: %s\n", fingerprint())
	o := run(*seed, budget{seconds: *seconds, minReps: 3, start: time.Now()}, *trace == 1)
	fmt.Print(report(o, specs))
	line, err := json.Marshal(result(o, specs))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the final JSON object.
func result(o *outcome, specs []spec) map[string]any {
	ms := make(map[string]metric, len(specs))
	for _, s := range specs {
		ms[s.name] = metric{Value: o.values[s.name], Unit: s.unit}
	}
	return map[string]any{
		"correct":   o.correct,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   ms,
	}
}

// report renders the human-readable lines printed before the result.
func report(o *outcome, specs []spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "reps=%d attempted=%d failed=%d correct=%v\n", o.reps, o.attempted, o.failed, o.correct)
	fmt.Fprintf(&b, "digest=%s\n", o.digest)
	for _, n := range o.notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, p := range o.problems {
		fmt.Fprintf(&b, "problem: %s\n", p)
	}
	for _, s := range specs {
		fmt.Fprintf(&b, "metric %-32s %16.6f %s\n", s.name, o.values[s.name], s.unit)
	}
	return b.String()
}

// fingerprint identifies the machine, so numbers from different machines
// are never compared as one.
func fingerprint() string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
