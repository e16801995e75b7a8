package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each emits exactly the metrics BENCHMARK.json names, with their
// units, that outputs are correct, and that the traced run simulated
// exactly what the untraced run did.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			run, ok := workloads[w.Name]
			if !ok {
				t.Fatalf("workload %s has no runner", w.Name)
			}
			plain := run(7, budget{minReps: 1, start: time.Now()}, false)
			traced := run(7, budget{minReps: 2, start: time.Now()}, true)
			for _, o := range []*outcome{plain, traced} {
				if !o.correct || o.failed != 0 || o.attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", o.correct, o.attempted, o.failed, o.problems)
				}
			}
			if plain.digest != traced.digest {
				t.Errorf("untraced digest %s != traced digest %s", plain.digest, traced.digest)
			}
			checkEmitted(t, result(plain, metricsEndToEnd), bf.EndToEnd, true)
			checkEmitted(t, result(traced, metricsPerLayer), bf.PerLayer, false)

			v := traced.values
			sum := v["other_ms"]
			for _, k := range []string{"cfs.tick_ms", "host.subsystem_tick_ms", "host.clock_step_ms",
				"sysns.update_round_ms", "sysns.publish_ms", "host.publish_if_dirty_ms",
				"cgroups.write_ms", "fsd.read_ms"} {
				sum += v[k]
			}
			if suite := v["experiments.suite_ms"]; suite > 0 {
				// Paper: per-sweep experiment times, rescaled to the
				// per-simulated-second span.
				for _, id := range paperIDs {
					sum += v["experiments."+id+"_ms"] * v["span_ms"] / suite
				}
			}
			if d := sum - v["span_ms"]; d > 1e-6*v["span_ms"] || d < -1e-6*v["span_ms"] {
				t.Errorf("layer self times + other = %g, traced span = %g", sum, v["span_ms"])
			}
		})
	}
}

// checkEmitted asserts the result carries exactly the named metrics with
// their units; end-to-end values must also be positive.
func checkEmitted(t *testing.T, res map[string]any, want []struct{ Name, Unit string }, positive bool) {
	t.Helper()
	got := res["metrics"].(map[string]metric)
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		case positive && !(m.Value > 0):
			t.Errorf("metric %s = %g, want > 0", w.Name, m.Value)
		}
	}
}
