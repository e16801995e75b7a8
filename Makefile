GO ?= go

.PHONY: build vet test race fuzz-smoke bench bench-scale bench-serve bench-gate profile cover docs golden golden-check golden-parallel perfbench-check ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short native-fuzzing runs, one target per invocation (go test -fuzz
# takes one): the ns_monitor mirror (production protocol vs the
# full-walk reference over randomized hierarchy schedules), the cfs
# repair mirror (production tick dispatch vs rebuilding every tick,
# including runs across the fill's under-subscription boundary), and the
# water fill's under-subscribed shortcut vs the iterative loop. Their
# seed corpora also run in `make test`. Part of `make ci`.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzMonitorMirror -fuzztime 10s ./internal/sysns/
	$(GO) test -run xxx -fuzz FuzzRepairMirror -fuzztime 10s ./internal/cfs/
	$(GO) test -run xxx -fuzz FuzzWaterfill -fuzztime 10s ./internal/cfs/

bench:
	$(GO) test -run xxx -bench . -benchtime=1x .

# Container-scale benchmark family: regenerate BENCH_scale.json (the
# committed trajectory, best-of-3 per point; see SCALING.md) and gate
# the steady-state hot paths at 0 allocs/op. Use the default settings
# when refreshing the committed baseline; CI runs the shorter bench-gate
# instead.
bench-scale:
	$(GO) run ./cmd/arvbench -scalebench 64,256,1024,4096,16384 -scalebench-reps 3 -json BENCH_scale.json
	$(GO) test -run xxx -bench ScaleSteady -benchmem -benchtime=50x . | tee bench-steady.txt
	$(GO) run ./internal/tools/benchgate -match ScaleSteady -max-allocs 0 bench-steady.txt
	rm -f bench-steady.txt

# Serve benchmark family: regenerate BENCH_serve.json (fsd read
# throughput, lock-free vs locked, plus snapshot publication counters)
# and run the GOMAXPROCS read-throughput sweep. The lock-free claim
# itself is proven by the -race stress test in internal/fsd, which
# `make race` runs.
bench-serve:
	$(GO) run ./cmd/arvbench -servebench 1,2,4,8 -json BENCH_serve.json
	$(GO) test -run xxx -bench ServeParallel -benchtime=2000x .

# Allocation gate only (short benchtime, no baseline regeneration):
# proves the steady-state scheduler tick and view-update rounds stay
# allocation-free, snapshot reads allocate nothing, a snapshot
# publication costs exactly its three buffers (header + two slices;
# DESIGN.md §11), a steady-state cluster step — four host steps plus a
# no-move rebalance round (DESIGN.md §12) — amortizes to zero, and a
# converged autoscaler control round (DESIGN.md §13) reads, decides,
# and holds without allocating. The final step is the regression gate
# (SCALING.md): fresh best-of-3 scalebench runs at n=1024 and n=16384
# must stay within 25% of the committed BENCH_scale.json rows on both
# ns_per_sim_second and allocs_per_tick, so the large-n tail and the
# alloc budget are gated alongside the mid-size wall number. Part of
# `make ci`.
bench-gate:
	$(GO) test -run xxx -bench 'ScaleSteady|Snapshot|ClusterSteady|AutoscaleSteady' -benchmem -benchtime=20x . | tee bench-steady.txt
	$(GO) run ./internal/tools/benchgate -match 'ScaleSteady|SnapshotRead|ClusterSteady|AutoscaleSteady' -max-allocs 0 bench-steady.txt
	$(GO) run ./internal/tools/benchgate -match SnapshotPublish -max-allocs 3 bench-steady.txt
	rm -f bench-steady.txt
	$(GO) run ./cmd/arvbench -scalebench 1024,16384 -scalebench-reps 3 -json bench-scale-fresh.json
	$(GO) run ./internal/tools/benchgate -scale-baseline BENCH_scale.json -scale-fresh bench-scale-fresh.json -scale-n 1024,16384 -max-regress 0.25 -max-alloc-drift 0.25
	rm -f bench-scale-fresh.json

# CPU + heap profiles of the dominant scale point (pprof text top also
# printed for a quick look). Adjust N for other sizes:
#   make profile N=4096
N ?= 16384
profile:
	$(GO) run ./cmd/arvbench -scalebench $(N) -cpuprofile cpu.pprof -memprofile mem.pprof
	$(GO) tool pprof -top -nodecount 15 cpu.pprof
	@echo "profiles written: cpu.pprof mem.pprof (go tool pprof -http=:8080 cpu.pprof)"

# Coverage gate: the autoscaler closes a feedback loop against cgroup
# limits, so its engine must stay near-fully covered by the behavioral,
# property, and differential layers. Part of `make ci`.
cover:
	$(GO) test -coverprofile=cover-autoscaler.out ./internal/autoscaler/
	$(GO) run ./internal/tools/covercheck -min 85 cover-autoscaler.out
	rm -f cover-autoscaler.out

# Documentation gate: every package needs a package comment, and the
# public API (arv) plus the packages in docscheck's strictPkgs (the core
# subsystems and the serving layer) must have no undocumented exported
# symbols.
docs:
	$(GO) run ./internal/tools/docscheck

# Rewrite testdata/golden after an intentional model change.
golden:
	$(GO) test -run TestExperimentsMatchGolden -update-golden .

# Verify the goldens sequentially (also covered by `make test`, but
# explicit here so ci exercises both ends of the worker sweep).
golden-check:
	$(GO) test -count=1 -run TestExperimentsMatchGolden .

# Prove the goldens are byte-identical with trial-level parallelism.
golden-parallel:
	$(GO) test -count=1 -run TestExperimentsMatchGolden -golden-workers 8 .

# The benchmark (BENCHMARK.json) is its own module, which `./...` at the
# root does not reach: vet it and run its smoke test so a library change
# cannot break the benchmark build unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test .

ci: build vet docs test race fuzz-smoke bench bench-gate cover golden-check golden-parallel perfbench-check
