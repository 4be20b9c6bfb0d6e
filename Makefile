# Offline quality gate for the mpshare workspace.
#
# Everything here runs without network access: all external crates are
# vendored as API-compatible stand-ins under vendor/ and wired in via
# workspace path dependencies. Do NOT `cargo add` registry dependencies.

CARGO ?= cargo

.PHONY: check build test test-all fmt clippy alloc-gate bench bench-build bench-gate fault-smoke trace-smoke fuzz-smoke clean

# The full tier-1 gate: release build, tests, formatting, lints, the
# allocation gate, the fault-, trace-, and fuzz smoke runs, the end-to-end
# benchmark build, and the bench regression gate.
check: build test fmt clippy alloc-gate fault-smoke trace-smoke fuzz-smoke bench-build bench-gate

# --workspace so member binaries (mpshare-repro, mpshare-sched,
# mpshare-fuzz, bench_gate) exist for the smoke gates below even from a
# clean target dir.
build:
	$(CARGO) build --release --workspace

# Tier-1 tests: the root package's suites (lib, integration, doc-tests).
test:
	$(CARGO) test -q

# Every crate in the workspace, including the vendored-stand-in consumers.
test-all:
	$(CARGO) test -q --workspace

fmt:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Allocation gate (tests/alloc_gate.rs): a counting global allocator
# proves the steady-state engine contract (zero heap allocations per
# `step()` with recycled scratch, under MPS and under time slicing) and
# the warm-planner bound (a warm
# `plan_warm` call allocates no more than the cold `plan` it replaces).
# Release mode is required: debug builds run the engine's self-checking
# cross-validation paths, which allocate by design. One test thread: the
# counter is process-wide, and with parallel tests the harness thread's
# result bookkeeping for one finished test can land inside the next
# test's measured window.
alloc-gate:
	$(CARGO) test -q --release --test alloc_gate -- --test-threads=1

# The end-to-end benchmark (mpshare-benchmark/, driven by BENCHMARK.json)
# is its own workspace, so `cargo build --workspace` never compiles it:
# build and test it here so an API change it depends on cannot break it
# silently.
bench-build:
	$(CARGO) build --release --offline --manifest-path mpshare-benchmark/Cargo.toml
	$(CARGO) test --offline --manifest-path mpshare-benchmark/Cargo.toml

# Engine + plan-search hot-path benchmarks; per-scenario medians (ns) are
# written to BENCH_engine.json by the vendored criterion stand-in. A prior
# BENCH_engine.json is optional: when present it is kept as
# BENCH_engine.prev.json for comparison, when absent this run records the
# baseline.
bench:
	@if [ -f $(CURDIR)/BENCH_engine.json ]; then \
		cp $(CURDIR)/BENCH_engine.json $(CURDIR)/BENCH_engine.prev.json; \
		echo "previous medians kept in BENCH_engine.prev.json"; \
	else \
		echo "no prior BENCH_engine.json; this run records the baseline"; \
	fi
	MPSHARE_BENCH_JSON=$(CURDIR)/BENCH_engine.json \
		$(CARGO) bench -p mpshare-bench --bench engine_performance

# Bench regression gate: re-measures the engine benchmarks into a scratch
# summary and compares per-scenario medians against the committed
# BENCH_engine.json. Any scenario present in both that regressed by more
# than 25% fails the gate; scenarios present in only one file (added,
# renamed, or retired benchmarks) are tolerated. Skipped with a note when
# no baseline has been committed yet.
bench-gate: build
	@if [ ! -f $(CURDIR)/BENCH_engine.json ]; then \
		echo "bench-gate: no BENCH_engine.json baseline; run 'make bench' to record one"; \
	else \
		rm -f $(CURDIR)/.bench-gate.json && \
		MPSHARE_BENCH_JSON=$(CURDIR)/.bench-gate.json \
			$(CARGO) bench -p mpshare-bench --bench engine_performance && \
		./target/release/bench_gate $(CURDIR)/BENCH_engine.json \
			$(CURDIR)/.bench-gate.json --max-regression 0.25 && \
		rm -f $(CURDIR)/.bench-gate.json && \
		echo "bench regression gate passed"; \
	fi

# Fault-injection determinism gate: the seeded ext_faults experiment must
# be bit-identical run-to-run and across serial vs. parallel execution.
fault-smoke: build
	@rm -rf .fault-smoke
	@mkdir -p .fault-smoke
	./target/release/mpshare-repro ext_faults --out .fault-smoke/a >/dev/null
	./target/release/mpshare-repro ext_faults --out .fault-smoke/b >/dev/null
	./target/release/mpshare-repro ext_faults --out .fault-smoke/c --serial >/dev/null
	cmp .fault-smoke/a/ext_faults.json .fault-smoke/b/ext_faults.json
	cmp .fault-smoke/a/ext_faults.json .fault-smoke/c/ext_faults.json
	@rm -rf .fault-smoke
	@echo "fault-determinism smoke gate passed"

# Observability determinism gate: two recorded serial runs must produce
# byte-identical trace, metrics, and timeline artifacts (the recorder
# uses simulated time and sequence numbers only — no wall clocks), and a
# recorded parallel run must produce the byte-identical timeline export
# (it is a pure function of the observation multiset) and still carry
# every required track, metric family, and timeline invariant
# (validate-obs). Experiment outputs must be unaffected by recording.
trace-smoke: build
	@rm -rf .trace-smoke
	@mkdir -p .trace-smoke
	./target/release/mpshare-repro ext_online --out .trace-smoke/a --serial \
		--trace-out .trace-smoke/a-trace.json --metrics-out .trace-smoke/a-metrics.json \
		--timeline-out .trace-smoke/a-timeline.json >/dev/null 2>&1
	./target/release/mpshare-repro ext_online --out .trace-smoke/b --serial \
		--trace-out .trace-smoke/b-trace.json --metrics-out .trace-smoke/b-metrics.json \
		--timeline-out .trace-smoke/b-timeline.json >/dev/null 2>&1
	cmp .trace-smoke/a-trace.json .trace-smoke/b-trace.json
	cmp .trace-smoke/a-metrics.json .trace-smoke/b-metrics.json
	cmp .trace-smoke/a-metrics.json.prom .trace-smoke/b-metrics.json.prom
	cmp .trace-smoke/a-timeline.json .trace-smoke/b-timeline.json
	./target/release/mpshare-repro ext_online --out .trace-smoke/c \
		--trace-out .trace-smoke/c-trace.json --metrics-out .trace-smoke/c-metrics.json \
		--timeline-out .trace-smoke/c-timeline.json >/dev/null 2>&1
	cmp .trace-smoke/a-timeline.json .trace-smoke/c-timeline.json
	./target/release/mpshare-repro validate-obs \
		--trace-out .trace-smoke/c-trace.json --metrics-out .trace-smoke/c-metrics.json \
		--timeline-out .trace-smoke/c-timeline.json
	cmp .trace-smoke/a/ext_online.json .trace-smoke/c/ext_online.json
	@rm -rf .trace-smoke
	@echo "trace-determinism smoke gate passed"

# Fuzz smoke gate: a fixed-seed 500-scenario campaign must be clean and
# byte-identical serial vs. parallel (the generator, oracle, and report
# are pure functions of the seed block), and every pinned scenario in
# configs/zoo/ — shrunk repros of past bugs plus mechanism coverage —
# must replay with zero violations and its exact pinned digest.
fuzz-smoke: build
	@rm -rf .fuzz-smoke
	@mkdir -p .fuzz-smoke
	./target/release/mpshare-fuzz run --count 500 --base 0 --out .fuzz-smoke/par.txt
	./target/release/mpshare-fuzz run --count 500 --base 0 --serial --out .fuzz-smoke/ser.txt
	cmp .fuzz-smoke/par.txt .fuzz-smoke/ser.txt
	./target/release/mpshare-fuzz zoo configs/zoo
	@rm -rf .fuzz-smoke
	@echo "fuzz smoke gate passed"

clean:
	$(CARGO) clean
