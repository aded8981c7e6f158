# ldis — build, verification, and benchmark targets.
#
# `make check` is the tier-1 gate: build, vet, format, lint, tests.
# `make fmt-check` fails if gofmt would reformat any Go file outside
# testdata.
# `make lint` runs the project's own analyzer suite (cmd/ldislint):
# noalloc, detrange, nowallclock, gridpure, sharddisjoint,
# atomicplain, boundedgo — the determinism, zero-allocation, and
# concurrency-safety invariants enforced at compile time.
# `make lint-vet` runs the same suite through `go vet -vettool`, which
# also analyzes _test.go files.
# `make lint-json` writes lint-report.json (every diagnostic as one
# JSON object per line, suppressed ones included); CI uploads it as
# the lint-report artifact.
# `make lint-fix-check` runs the stale-suppression sweep: any
# justified //ldis:*-ok directive no analyzer needs anymore, or any
# unknown //ldis: name, fails the target.
# `make race` runs the test suite under the race detector (the
# experiment engine fans (benchmark × configuration) cells out across
# worker goroutines, so the suite doubles as a scheduler race test).
# `make test-race` is the focused race gate CI runs as its own job:
# the shard/batch equivalence matrix (internal/hierarchy), the
# bounded-parallelism pools (internal/par), and the concurrent
# observability registry (internal/obs).
# `make bench-smoke` runs each workload of the repo benchmark
# (cmd/ldbench, declared in BENCHMARK.json) for one second and fails
# unless every run reports "correct":true. Throughput regressions are
# judged by comparing full BENCHMARK.json runs, not by this target.
# `make microbench` runs the Go testing benchmarks (per-figure,
# hot-path, and scheduler fan-out).
# `make fuzz-smoke` runs the trace-codec, checkpoint-scan, job-spec,
# MRC-engine, branch-predictor and DRAM-MSHR fuzzers briefly over their
# committed seed corpora.
# `make mrc-smoke` validates the miss-ratio-curve engine: SHARDS-vs-
# exact tolerance on every benchmark, curve-vs-simulation spot checks,
# and a short end-to-end ldisexp mrc run.
# `make obs-smoke` validates the observability core: manifest
# determinism across worker counts, the zero-allocation registry
# tests, and an end-to-end ldisexp run whose manifest must round-trip
# the validating parser, carry the instrumented metrics and the cells'
# config keys, and show fig8 reading the cells fig6 simulated as
# replayed.
# `make chaos` runs the fault-injection suite: seeded panics, corrupt
# traces, and kill-mid-sweep checkpoints driven through the full
# engine (see DESIGN.md §8).
# `make ldisd-smoke` drives the ldisd service end to end against a
# real process: start, submit, stream the result, verify the manifest,
# SIGTERM-drain (see DESIGN.md §12).
# `make examples` builds every example program (compile gate).
# `make orgs-smoke` validates the related-work organization trio
# (Touché tags, clean copy-back, way memoization): the three acceptance
# gates — Touché tag area below LDIS per-word at equal miss ratio,
# copy-back strictly reducing misses on the reuse-heavy benchmarks, and
# memo energy never above baseline with identical results — plus the
# focused unit tests and a short end-to-end ldisexp orgs run (see
# DESIGN.md §14).
# `make partition-smoke` validates the partition controller end to end:
# UCP must not lose to the static equal split on any bundled scenario,
# the online-SHARDS allocator must agree with exact Mattson within one
# way on >=90% of epochs, the word-grain policy must change at least
# one allocation, the way-quota rule's unit tests (cache.Quotas and
# both caches that enforce it) must pass, and a short ldisexp
# partition run must succeed (see DESIGN.md §13).

GO ?= go

.PHONY: all build vet fmt-check lint lint-vet lint-json lint-fix-check \
	lint-install test check race test-race microbench bench-smoke \
	chaos fuzz-smoke mrc-smoke \
	obs-smoke ldisd-smoke partition-smoke orgs-smoke examples govulncheck profile \
	clean

all: check

build:
	$(GO) build ./...

# Compile gate for the example programs: examples are documentation
# that must keep building, but `go build ./...` does not reach them
# (each is its own main package under examples/).
examples:
	$(GO) build -o /dev/null ./examples/...

vet:
	$(GO) vet ./...

# Formatting gate: gofmt must have nothing to report, and must run —
# a missing formatter or a file it cannot parse fails the gate too. The
# formatter is the one shipped with $(GO)'s toolchain. Directories named
# testdata are skipped — the analyzer fixtures there keep hand-aligned
# `// want` comments whose line numbers the analyzer tests assert — as
# are dot-directories such as the benchmark's .bench_build cache.
fmt-check:
	@gofmt="$$($(GO) env GOROOT)/bin/gofmt"; \
	out=$$(find . -type d \( -name testdata -o -name '.?*' \) -prune -o \
		-type f -name '*.go' -print | xargs "$$gofmt" -l) || \
		{ echo "fmt-check: $$gofmt failed" >&2; exit 1; }; \
	if [ -n "$$out" ]; then \
		echo "fmt-check: gofmt would reformat:" >&2; echo "$$out" >&2; exit 1; \
	fi

# Project analyzer suite, standalone driver. This is the authoritative
# lint gate: unlike vet mode it verifies //ldis:noalloc call chains
# across package boundaries (see DESIGN.md).
lint:
	$(GO) run ./cmd/ldislint ./...

# Vet driver mode: the suite through the go command's unitchecker
# protocol. Cross-package facts are unavailable here (the standalone
# driver is authoritative for those), but vet also analyzes _test.go
# files, which the standalone driver does not see.
lint-vet:
	@mkdir -p bin
	$(GO) build -o bin/ldislint ./cmd/ldislint
	$(GO) vet -vettool=bin/ldislint ./...

# JSON lint report: every diagnostic as one NDJSON record —
# {"analyzer","pos","message","suppressed"[,"suppressed_by"]} —
# including the suppressed ones text mode hides. Fails like lint.
lint-json:
	$(GO) run ./cmd/ldislint -json ./... > lint-report.json

# Stale-suppression sweep: every justified //ldis:*-ok directive must
# still silence a diagnostic, and every //ldis: name must be part of
# the grammar. A suppression nothing needs is a lie about the code's
# invariants — delete it.
lint-fix-check:
	$(GO) run ./cmd/ldislint -stale ./...

# Install ldislint into GOBIN so `go vet -vettool=$$(command -v
# ldislint) ./...` works from any checkout.
lint-install:
	$(GO) install ./cmd/ldislint

test:
	$(GO) test ./...

check: build vet fmt-check lint test

race:
	$(GO) test -race ./...

# Focused race gate: the packages whose concurrency the sharddisjoint,
# atomicplain, and boundedgo analyzers reason about, under the dynamic
# detector. The shard/batch equivalence tests in internal/hierarchy
# drive every worker count the static proofs cover.
test-race:
	$(GO) test -race ./internal/hierarchy/... ./internal/par/... ./internal/obs/... \
		./internal/server/...

# Fault-injection (chaos) suite: the resilience tests across the
# scheduler, checkpoint, trace-decode, fault-injector, and service
# layers, run under the race detector so injected panics can't hide a
# data race. The internal/server leg covers the ldisd chaos gate:
# injected worker panics, corrupt uploads, queue-full shedding, and
# kill-mid-sweep resume.
chaos:
	$(GO) test -race -run 'Chaos|Checkpoint|Panic|Policy|Fault|Corrupt|Lenient|Sheds|KillMidSweep|Drain' \
		./internal/exp ./internal/par ./internal/trace ./internal/faultinject \
		./internal/server

# Short fuzz runs over the committed seed corpora: the trace codec
# (internal/trace/testdata/fuzz), the checkpoint record scanner
# (internal/exp/testdata/fuzz), the ldisd job-spec decoder
# (internal/server/testdata/fuzz), the MRC engine against a naive
# LRU stack (internal/mrc/testdata/fuzz), the branch predictor against
# its branchy reference (internal/branch/testdata/fuzz), and the DRAM
# model's FIFO MSHR against a linear-scan one
# (internal/dram/testdata/fuzz). Sized for CI. Each new-coverage input is
# minimized for at most 100 runs: the default 60 s an input would spend
# most of a 10 s run minimizing one find.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRead -fuzztime 10s -fuzzminimizetime 100x ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzCheckpointScan -fuzztime 10s -fuzzminimizetime 100x ./internal/exp
	$(GO) test -run '^$$' -fuzz FuzzDecodeSpec -fuzztime 10s -fuzzminimizetime 100x ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzEngineMatchesStack -fuzztime 10s -fuzzminimizetime 100x ./internal/mrc
	$(GO) test -run '^$$' -fuzz FuzzPredictorMatchesReference -fuzztime 10s -fuzzminimizetime 100x ./internal/branch
	$(GO) test -run '^$$' -fuzz FuzzMemoryMatchesReference -fuzztime 10s -fuzzminimizetime 100x ./internal/dram

# Miss-ratio-curve validation: the acceptance gate for internal/mrc.
# The tests assert the SHARDS curve within 0.02 absolute error of the
# exact Mattson curve on every registered benchmark and spot-check the
# exact curve against full cache simulation; the CLI run exercises the
# experiment end to end (curves for two benchmarks, both columns).
mrc-smoke:
	$(GO) test -run 'TestMRCShardsTolerance|TestMRCMatchesSimulation' -count=1 ./internal/exp
	$(GO) run ./cmd/ldisexp -accesses 120000 -benchmarks sixtrack,health -mrc rate=0.2,max-samples=8192 mrc > /dev/null

# Observability smoke: the acceptance gate for internal/obs. The
# tests pin manifest determinism across worker counts and the
# zero-allocation metric hot paths; the CLI run exercises manifest
# emission end to end (-verify-manifest re-reads it through the
# validating parser) and the greps assert the required content:
# identity fields, instrumented distill counters, and span timings.
obs-smoke:
	$(GO) test -run 'TestManifestDeterministicAcrossWorkerCounts' -count=1 ./internal/exp
	$(GO) test -count=1 ./internal/obs
	$(GO) run ./cmd/ldisexp -accesses 60000 -benchmarks mcf,health \
		-out obs-smoke-out -verify-manifest fig6 fig8 > /dev/null
	@grep -q '"tool": "ldisexp"' obs-smoke-out/manifest.json
	@grep -q '"name": "distill_lines_distilled"' obs-smoke-out/manifest.json
	@grep -q '"stage": "simulate"' obs-smoke-out/manifest.json
	@grep -q '"key": "ldis-mt-rc-2"' obs-smoke-out/manifest.json
	@grep -q '"status": "replayed"' obs-smoke-out/manifest.json
	@rm -rf obs-smoke-out
	@echo "obs-smoke: manifest verified"

# Partition smoke: the acceptance gate for internal/partition (see
# DESIGN.md §13). The three gate tests pin the smoke properties on the
# bundled scenarios; the CLI run exercises the experiment end to end
# on one custom tenant mix.
partition-smoke:
	$(GO) test -run 'TestPartitionUCPBeatsStatic|TestPartitionShardsAgreesWithExact|TestPartitionLDISAwareDiffers' \
		-count=1 ./internal/exp
	$(GO) test -count=1 ./internal/partition
	$(GO) test -run 'TestQuotas|TestPartitionQuotaVictim|TestSetPartitionRefusals' \
		-count=1 ./internal/cache ./internal/distill
	$(GO) run ./cmd/ldisexp -accesses 60000 -partition tenants=twolf+mcf,epoch=6000 partition > /dev/null
	@echo "partition-smoke: gates passed"

# Organization-trio smoke: the acceptance gates for the orgs
# experiment (see DESIGN.md §14) — area, miss-reduction, and energy —
# plus the modifier unit tests (superblock aliasing, copy-back
# cold-start, memo transparency) and a short end-to-end CLI run
# exercising every grouped -orgs knob.
orgs-smoke:
	$(GO) test -run 'TestOrgsToucheTagAreaGate|TestOrgsCopyBackReducesMisses|TestOrgsWayMemoEnergyGate' \
		-count=1 ./internal/exp
	$(GO) test -run 'Touche|CopyBack|WayMemo|Memo|Modifier' -count=1 ./internal/wordstore ./internal/distill \
		./internal/cache ./internal/costmodel .
	$(GO) run ./cmd/ldisexp -accesses 60000 -benchmarks mcf,twolf \
		-orgs touche-sb-lines=8,waymemo-entries=8,copyback-max-reuse=1048576 orgs > /dev/null
	@echo "orgs-smoke: gates passed"

# End-to-end service smoke: builds the real ldisd binary and drives it
# through its full lifecycle with the Go smoke driver — start on an
# ephemeral port, submit a fig6 job, long-poll the streamed result and
# require the "done" trailer, verify the per-job manifest, then
# SIGTERM and require a clean graceful-drain exit.
ldisd-smoke:
	@mkdir -p bin
	$(GO) build -o bin/ldisd ./cmd/ldisd
	$(GO) run ./cmd/ldisdsmoke -bin bin/ldisd

# Advisory vulnerability scan: runs only if govulncheck is installed
# (it is not vendored; `go install golang.org/x/vuln/cmd/govulncheck@latest`
# needs network access). Never fails the build.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || true; \
	else \
		echo "govulncheck not installed; skipping (advisory only)"; \
	fi

# Go testing benchmarks (per-figure, hot-path, and scheduler fan-out).
microbench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Benchmark smoke: one short, fixed-seed run of every BENCHMARK.json
# workload through the benchmark's own build script. The last line of
# each run is its JSON summary; any workload whose summary is not
# "correct":true (a failed cell or a digest mismatch) fails the target.
bench-smoke:
	@for w in sweep replay timing tenants; do \
		out=$$(bash cmd/ldbench/run.sh --workload $$w --seed 1 --seconds 1) || exit 1; \
		last=$$(printf '%s\n' "$$out" | tail -n 1); \
		echo "$$w: $$last"; \
		case "$$last" in *'"correct":true'*) ;; \
		*) echo "bench-smoke: workload $$w did not report \"correct\":true" >&2; exit 1 ;; esac; \
	done

# CPU + heap profiles of the headline experiment, written to ./profiles.
profile:
	mkdir -p profiles
	$(GO) run ./cmd/ldisexp -accesses 400000 \
		-cpuprofile profiles/cpu.prof -memprofile profiles/mem.prof \
		fig6 > /dev/null
	@echo "inspect with: go tool pprof profiles/cpu.prof"

clean:
	rm -rf profiles bin lint-report.json
