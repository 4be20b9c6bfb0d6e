# Offline quality gate for the mpshare workspace.
#
# Everything here runs without network access: all external crates are
# vendored as API-compatible stand-ins under vendor/ and wired in via
# workspace path dependencies. Do NOT `cargo add` registry dependencies.

CARGO ?= cargo

.PHONY: check build test test-all fmt clippy doc alloc-gate bench bench-build bench-gate bench-ab bench-e2e-ab fault-smoke trace-smoke fuzz-smoke golden golden-update clean

# The full tier-1 gate: release build, every workspace crate's tests (the
# root package's included), formatting, lints, warning-free API docs, the
# allocation gate, the fault-, trace-, and fuzz smoke runs, the golden
# outputs, the end-to-end benchmark build, and the bench regression gate.
check: build test-all fmt clippy doc alloc-gate fault-smoke trace-smoke fuzz-smoke golden bench-build bench-gate

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

# API docs must build without warnings, so a deleted or renamed item
# cannot leave a dangling intra-doc link behind.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps --offline

# Allocation gate (tests/alloc_gate.rs): a counting global allocator
# proves the steady-state engine contract (zero heap allocations per
# `step()` with recycled scratch, under MPS and under time slicing).
# Release mode is required: debug builds run the engine's self-checking
# cross-validation paths, which allocate by design. The counter and its
# armed flag are per thread, so the tests run in parallel: another
# thread's allocations never land in a measured window.
alloc-gate:
	$(CARGO) test -q --release --test alloc_gate

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

# Wall-time A/B against the parent commit, measured in the same window
# (not part of `check`). The parent is HEAD~1 when the tree is clean and
# HEAD when tracked files have uncommitted changes — the commit under the
# candidate either way. It is checked out with `git worktree` (offline)
# under .bench-ab/ and its engine_performance bench is built into its own
# target dir; 3 rounds then run both bench executables, alternating which
# side goes first (host speed drifts for minutes). Each side keeps every
# scenario's minimum median over its rounds, and bench_gate judges the
# candidate against the parent with the 25% bound.
AB := $(CURDIR)/.bench-ab
AB_BENCH := --offline -q -p mpshare-bench --bench engine_performance
AB_EXE := select(.target.kind == ["bench"] and .executable != null) | .executable
AB_MIN := {unit: .[0].unit, scenarios: [map(.scenarios[]) | group_by(.name)[] | {name: .[0].name, median_ns: (map(.median_ns) | min)}]}
bench-ab: build
	@rm -rf $(AB) && git worktree prune && mkdir -p $(AB)/runs
	git worktree add --detach $(AB)/parent \
		$$(git diff --quiet HEAD && echo HEAD~1 || echo HEAD) >/dev/null
	@parent=$$(cd $(AB)/parent && CARGO_TARGET_DIR=$(AB)/target \
		$(CARGO) bench $(AB_BENCH) --no-run --message-format=json | jq -r '$(AB_EXE)') && \
	cand=$$($(CARGO) bench $(AB_BENCH) --no-run --message-format=json | jq -r '$(AB_EXE)') && \
	for i in 1 2 3; do \
		if [ $$((i % 2)) = 1 ]; then order="parent cand"; else order="cand parent"; fi; \
		for side in $$order; do \
			if [ $$side = parent ]; then exe=$$parent; else exe=$$cand; fi; \
			MPSHARE_BENCH_JSON=$(AB)/runs/$$side-$$i.json $$exe --bench >/dev/null || exit 1; \
		done; \
		echo "bench-ab: round $$i done ($$order)"; \
	done
	@for side in parent cand; do \
		jq -s '$(AB_MIN)' $(AB)/runs/$$side-*.json > $(AB)/$$side.json || exit 1; \
	done
	git worktree remove --force $(AB)/parent
	./target/release/bench_gate $(AB)/parent.json $(AB)/cand.json --max-regression 0.25

# End-to-end A/B against the parent commit (not part of `check`): the
# sibling of bench-ab for one BENCHMARK.json workload, `make bench-e2e-ab
# W=<workload>`. The parent (chosen as in bench-ab) is checked out with
# `git worktree` under .bench-e2e-ab/ and its mpshare-benchmark is built
# into its own target dir; 4 rounds then run `--workload $(W) --seconds 20`
# on both sides, alternating which goes first. Prints each run's
# end-to-end metrics and each side's median per metric. Needs jq; takes
# about 3 min plus the two builds. Building the benchmark may rewrite a
# line of mpshare-benchmark/Cargo.lock (ROADMAP item 2): do not commit it.
W ?= repro_all
E2E := $(CURDIR)/.bench-e2e-ab
E2E_BUILD := build --release --offline -q --manifest-path mpshare-benchmark/Cargo.toml
E2E_METRICS := setup_s iter_ms_p50 iter_ms_p90 iters_per_s peak_rss_mib
E2E_MEDIAN := map(.metrics[$$m].value) | sort | (.[(length - 1) / 2 | floor] + .[length / 2 | floor]) / 2
bench-e2e-ab:
	@rm -rf $(E2E) && git worktree prune && mkdir -p $(E2E)/runs
	git worktree add --detach $(E2E)/parent \
		$$(git diff --quiet HEAD && echo HEAD~1 || echo HEAD) >/dev/null
	cd $(E2E)/parent && CARGO_TARGET_DIR=$(E2E)/target $(CARGO) $(E2E_BUILD)
	$(CARGO) $(E2E_BUILD)
	@for i in 1 2 3 4; do \
		if [ $$((i % 2)) = 1 ]; then order="parent cand"; else order="cand parent"; fi; \
		for side in $$order; do \
			if [ $$side = parent ]; then exe=$(E2E)/target/release/mpshare-benchmark; \
			else exe=$(CURDIR)/mpshare-benchmark/target/release/mpshare-benchmark; fi; \
			run=$(E2E)/runs/$$side-$$i; \
			$$exe --workload $(W) --seconds 20 > $$run.out 2> $$run.log || exit 1; \
			tail -n 1 $$run.out > $$run.json; \
			printf '%-6s round %d:' $$side $$i; \
			for m in $(E2E_METRICS); do \
				printf ' %s=%s' $$m "$$(jq -r --arg m $$m '.metrics[$$m].value' $$run.json)"; \
			done; \
			echo " failed=$$(jq -r .failed $$run.json)"; \
		done; \
	done
	@for side in parent cand; do \
		printf '%-6s median:' $$side; \
		for m in $(E2E_METRICS); do \
			printf ' %s=%s' $$m "$$(jq -s -r --arg m $$m '$(E2E_MEDIAN)' $(E2E)/runs/$$side-*.json)"; \
		done; \
		echo; \
	done
	git worktree remove --force $(E2E)/parent

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

# Fuzz smoke gate: a fixed-seed 500-scenario campaign must be clean,
# byte-identical serial vs. parallel (the generator, oracle, and report
# are pure functions of the seed block) and byte-identical to the
# committed report in results/golden/ (the golden gate's fuzz output), and
# every pinned scenario in configs/zoo/ — shrunk repros of past bugs plus
# mechanism coverage — must replay with zero violations and its exact
# pinned digest.
fuzz-smoke: build
	@rm -rf .fuzz-smoke
	@mkdir -p .fuzz-smoke
	./target/release/mpshare-fuzz run --count 500 --base 0 --out .fuzz-smoke/par.txt
	./target/release/mpshare-fuzz run --count 500 --base 0 --serial --out .fuzz-smoke/ser.txt
	cmp .fuzz-smoke/par.txt .fuzz-smoke/ser.txt
	cmp .fuzz-smoke/par.txt results/golden/$(GOLDEN_FUZZ)
	./target/release/mpshare-fuzz zoo configs/zoo
	@rm -rf .fuzz-smoke
	@echo "fuzz smoke gate passed"

# Golden-output gate: the committed outputs must be reproduced byte for
# byte. `mpshare-repro all` (parallel and --serial) and `report --serial`
# must rebuild every file in results/, and `mpshare-sched --json` on the example and custom queues at
# 1, 2 and 4 GPUs must print results/golden/sched-*.json. The 500-seed
# fuzz report is checked against results/golden/ by fuzz-smoke, so the
# campaign runs once. Parallel `report` is left out: its float gauge sums
# run in thread order (ROADMAP item 3(a)), so it is not yet bit-stable.
GOLDEN := .golden
GOLDEN_FUZZ := fuzz-500.txt
GOLDEN_QUEUES := example custom
GOLDEN_GPUS := 1 2 4
golden: build fuzz-smoke
	@rm -rf $(GOLDEN)
	@mkdir -p $(GOLDEN)
	./target/release/mpshare-repro all --out $(GOLDEN)/all >/dev/null
	./target/release/mpshare-repro all --serial --out $(GOLDEN)/all-serial >/dev/null
	./target/release/mpshare-repro report --serial --out $(GOLDEN)/report >/dev/null
	cp $(GOLDEN)/report/report.* $(GOLDEN)/all/
	cp $(GOLDEN)/report/report.* $(GOLDEN)/all-serial/
	diff -r --exclude=golden results $(GOLDEN)/all
	diff -r --exclude=golden results $(GOLDEN)/all-serial
	@for q in $(GOLDEN_QUEUES); do for g in $(GOLDEN_GPUS); do \
		out=sched-$$q-gpus$$g.json; \
		./target/release/mpshare-sched configs/$${q}_queue.json --json --gpus $$g \
			> $(GOLDEN)/$$out 2>/dev/null || exit 1; \
		cmp $(GOLDEN)/$$out results/golden/$$out || exit 1; \
	done; done
	@rm -rf $(GOLDEN)
	@echo "golden output gate passed"

# Re-records every output the golden gate checks. A change that runs this
# must list each changed file in CHANGES.md and explain every moved
# headline number in EXPERIMENTS.md.
golden-update: build
	./target/release/mpshare-repro all --out results >/dev/null
	./target/release/mpshare-repro report --serial --out results >/dev/null
	@mkdir -p results/golden
	@for q in $(GOLDEN_QUEUES); do for g in $(GOLDEN_GPUS); do \
		./target/release/mpshare-sched configs/$${q}_queue.json --json --gpus $$g \
			> results/golden/sched-$$q-gpus$$g.json 2>/dev/null || exit 1; \
	done; done
	./target/release/mpshare-fuzz run --count 500 --base 0 --out results/golden/$(GOLDEN_FUZZ) >/dev/null
	@echo "golden outputs re-recorded; review 'git diff results/'"

clean:
	$(CARGO) clean
