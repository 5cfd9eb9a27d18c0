GO ?= go

.PHONY: all build test race vet lint bench bench-json bench-json-pr8 bench-json-pr9 bench-json-pr10 sweep-clean verify eval-output golden

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The solver, montecarlo, eval, and carbon packages fan work across
# goroutines; run them under the race detector in addition to the plain
# suite. The eval pass includes the worker-pool determinism tests
# (bit-identical figures at Workers=1 vs Workers=8), the telemetry
# inertness tests (bit-identical figures with the recorder on vs off),
# and the shared trace-cache concurrency tests.
race:
	$(GO) test -race ./internal/solver/... ./internal/montecarlo/... ./internal/telemetry/...
	$(GO) test -race ./internal/controlplane/... ./internal/manager/... ./internal/runstore/...
	$(GO) test -race -run 'TestPool|TestFig7|TestCoarse|TestRunAll|TestDo|TestSharedSource|TestTelemetry' ./internal/eval/... ./internal/carbon/...

# vet runs with the same build tags as the build (none today; set
# VET_TAGS if that changes) and pins GOFLAGS=-mod=mod so local runs and
# CI agree even when a parent environment sets -mod=readonly or vendor.
# CI runs the identical invocation (see .github/workflows/ci.yml).
VET_TAGS ?=
vet:
	GOFLAGS=-mod=mod $(GO) vet -tags '$(VET_TAGS)' ./...

# lint runs the in-repo determinism & telemetry analyzer suite
# (internal/analysis, driven by cmd/caribou-lint): wallclock (no
# time.Now/Since/Sleep outside telemetry), globalrand (no math/rand
# outside simclock), maporder (no observable output from unsorted map
# iteration), hotsprintf (no Sprintf/concat in montecarlo/solver/stats
# loops), goroutines (go statements only in the approved concurrency
# packages), taperecord (no tapeStep/tapeEdge AoS literals outside
# internal/montecarlo), dettaint (no exported solver/montecarlo/eval/
# controlplane function may transitively reach a wallclock or
# global-rand sink — the chain is printed), hotalloc (no closure
# literals, interface boxing, fmt calls, or grow-in-loop appends in the
# montecarlo tape/batch/bounds and solver HBSS hot files), and
# atomicpub (values published via atomic.Pointer.Store are
# write-complete at publish; shard-owned controlplane state mutates
# only inside its owning worker). Suppress an individual finding with
# //caribou:allow <check> <reason> — the reason is mandatory and a
# suppression that no longer matches a finding is itself a diagnostic.
# Results are cached under .caribou-cache/lint/ keyed by source and
# import hashes, so warm runs are sub-second and byte-identical to cold
# runs; -cache off disables, -cache DIR relocates. See DESIGN.md
# "Static analysis" and "Static analysis v2".
lint:
	$(GO) run ./cmd/caribou-lint ./...

# bench is a short smoke pass (one iteration per benchmark) so the whole
# suite stays in CI budget; use `go test -bench . -benchtime Nx .` for
# stable timings. The control-plane load generator runs a small
# in-process population as part of the same pass (benchmark lines on
# stdout; see cmd/caribou-load).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem .
	$(GO) run ./cmd/caribou-load -tenants 64 -deltas 2 -queries 3 -workers 16

# bench-json times the tracked solver/tape benchmarks and merges the
# ns/op numbers into BENCH_PR7.json under $(LABEL) (see cmd/benchjson;
# existing labels such as "baseline" are preserved). Run on an otherwise
# idle machine for stable numbers. Compare the two sections afterwards
# with `go run ./cmd/benchjson -compare BENCH_PR7.json BENCH_PR7.json`,
# which flags any >5% regression and exits non-zero.
LABEL ?= after
BENCHES = BenchmarkSolver24Hourly$$|BenchmarkSolver24HourlyUntaped$$|BenchmarkSolver24HourlyNoBatch$$|BenchmarkFig7Parallel$$|BenchmarkSnapshotEstimateTaped$$|BenchmarkSnapshotEstimateUntaped$$|BenchmarkSnapshotEstimateBatch$$
bench-json:
	$(GO) test -run xxx -bench '$(BENCHES)' -benchtime 3x . \
		| $(GO) run ./cmd/benchjson -out BENCH_PR7.json -label $(LABEL)

# bench-json-pr8 measures the control plane end-to-end: it builds
# caribou-server and caribou-load, starts the server in -sim mode on
# PR8_ADDR, drives 10k concurrent tenants over real HTTP, and merges the
# resulting benchmark lines (p99 plan-query latency, ns-per-solve
# throughput, admission-rejection count) into BENCH_PR8.json. Numbers are
# host-dependent; re-run on an idle machine before comparing.
PR8_ADDR ?= localhost:8456
bench-json-pr8:
	@mkdir -p .bench
	$(GO) build -o .bench/caribou-server ./cmd/caribou-server
	$(GO) build -o .bench/caribou-load ./cmd/caribou-load
	@.bench/caribou-server -sim -addr $(PR8_ADDR) -shards 8 -queue-depth 256 & \
	SERVER=$$!; sleep 1; \
	.bench/caribou-load -addr http://$(PR8_ADDR) -tenants 10000 -deltas 3 -queries 5 -workers 128 \
		| $(GO) run ./cmd/benchjson -out BENCH_PR8.json -label $(LABEL); \
	STATUS=$$?; kill $$SERVER 2>/dev/null; exit $$STATUS

# bench-json-pr9 measures the durable sweep engine end-to-end: a cold
# quick fig7-fig10 sweep into a fresh store, a warm re-sweep of the same
# store (served entirely from disk — zero solver executions), the same
# cold sweep split across two concurrent sharded processes, and the
# heavy-tail pruning bench (whose pruned/op metric must be nonzero; see
# BenchmarkSolver24HourlyHeavyTail). Everything merges into
# BENCH_PR9.json. Numbers are host-dependent; re-run on an idle machine.
PR9_CACHE = .bench/pr9-cache
PR9_FIGS = fig7,fig8,fig9,fig10
bench-json-pr9:
	@mkdir -p .bench
	$(GO) build -o .bench/caribou-sweep ./cmd/caribou-sweep
	rm -rf $(PR9_CACHE) $(PR9_CACHE)-sharded
	.bench/caribou-sweep submit -cache-dir $(PR9_CACHE) -name pr9 -figures $(PR9_FIGS) -quick
	.bench/caribou-sweep run -cache-dir $(PR9_CACHE) -name pr9 -bench SweepColdQuick \
		| $(GO) run ./cmd/benchjson -out BENCH_PR9.json -label $(LABEL)
	.bench/caribou-sweep submit -cache-dir $(PR9_CACHE) -name pr9-warm -figures $(PR9_FIGS) -quick
	.bench/caribou-sweep run -cache-dir $(PR9_CACHE) -name pr9-warm -bench SweepWarmQuick \
		| $(GO) run ./cmd/benchjson -out BENCH_PR9.json -label $(LABEL)
	.bench/caribou-sweep submit -cache-dir $(PR9_CACHE)-sharded -name pr9 -figures $(PR9_FIGS) -quick -shards 2
	@.bench/caribou-sweep run -cache-dir $(PR9_CACHE)-sharded -name pr9 -owner p1 -bench SweepShard1of2 > .bench/pr9-shard1.out & \
	P1=$$!; \
	.bench/caribou-sweep run -cache-dir $(PR9_CACHE)-sharded -name pr9 -owner p2 -bench SweepShard2of2 > .bench/pr9-shard2.out; \
	wait $$P1; \
	cat .bench/pr9-shard1.out .bench/pr9-shard2.out | $(GO) run ./cmd/benchjson -out BENCH_PR9.json -label $(LABEL)
	$(GO) test -run xxx -bench 'BenchmarkSolver24HourlyHeavyTail$$' -benchtime 3x . \
		| $(GO) run ./cmd/benchjson -out BENCH_PR9.json -label $(LABEL)

# bench-json-pr10 times the lint driver's cache: caribou-lint -bench
# wipes a scratch cache, runs the full module cold (type-checking every
# package), re-runs it warm (every package served from the on-disk
# summary cache, zero type-checks), asserts the two outputs are
# byte-identical, and prints both timings as benchmark lines, which
# merge into BENCH_PR10.json. The warm run must be >=3x faster than the
# cold run; in practice it is two orders of magnitude faster. Numbers
# are host-dependent; re-run on an idle machine before comparing.
bench-json-pr10:
	@mkdir -p .bench
	$(GO) run ./cmd/caribou-lint -bench -cache .bench/pr10-lint-cache . \
		| $(GO) run ./cmd/benchjson -out BENCH_PR10.json -label $(LABEL)

# sweep-clean removes the durable run caches: the default store
# caribou-eval -cache-dir and caribou-sweep write to, plus the scratch
# stores bench-json-pr9 leaves under .bench/.
sweep-clean:
	rm -rf .caribou-cache $(PR9_CACHE) $(PR9_CACHE)-sharded

# verify is the pre-merge gate: full build + full suite + race-checked
# solver/montecarlo/telemetry/eval-pool + vet + the determinism lint.
verify: build test race vet lint
	@echo "verify: ok"

# eval-output regenerates the quick-mode sample of every experiment. The
# artifact is gitignored — regenerate locally instead of versioning it.
eval-output:
	$(GO) run ./cmd/caribou-eval -quick all > eval_output.txt

# golden is the only way to update testdata/golden/quick-all.txt, the
# checked-in stdout of caribou-eval -quick all at the default seed (on
# amd64) that CI diffs every run against. Any update needs a CHANGES.md
# line saying why the figures moved.
golden:
	$(GO) run ./cmd/caribou-eval -quick all > testdata/golden/quick-all.txt.tmp
	mv testdata/golden/quick-all.txt.tmp testdata/golden/quick-all.txt
