# Developer / CI entry points. `make verify` is the tier-1 gate.

CARGO ?= cargo

.PHONY: verify build test bench bench-no-run bench-check bench-repeat bench-smoke recovery-smoke chaos-smoke session-smoke clippy fmt lint lint-baseline alloc-report parity-deep examples figures prod-loc

EXAMPLES := $(basename $(notdir $(wildcard examples/*.rs)))

verify: fmt build test clippy lint bench-no-run bench-check bench-repeat recovery-smoke chaos-smoke session-smoke examples

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

clippy:
	$(CARGO) clippy --all-targets -- -D warnings

bench:
	$(CARGO) bench -p kath_bench

bench-no-run:
	$(CARGO) bench --no-run

# The repo benchmark (BENCHMARK.json) is a package outside the workspace,
# so nothing above notices when a crate's public API breaks it. Builds it
# against the current crates and runs its tests, which include a smoke pass
# of all four workloads with their oracles.
bench-check:
	$(CARGO) test -q --manifest-path benchmark/Cargo.toml

# The repo benchmark's own determinism check: every workload twice from one
# seed; each result digest and each exact count (rows, statements, zone
# skips, checkpoint pages) must agree between the two runs. A drive whose
# answer or whose counted work depends on scheduling fails here, not in a
# perf comparison later.
bench-repeat:
	$(CARGO) run --release --quiet --manifest-path benchmark/Cargo.toml -- --check-repeat

# Quick end-to-end runs of the perf benches (small corpora, few reps):
# the six binaries prove the morsel-parallel, durable-recovery,
# vector-search, paged out-of-core storage, fault-guard and
# concurrent-transaction paths still run and still emit their JSON. The
# smoke results land under target/bench-smoke/, so the committed
# BENCH_*.json baselines change only when someone runs a full bench on
# purpose. Every report must carry the shared header (`host`, `quick`,
# `reps`) that `kath_bench::write_report` stamps, and the recovery report
# a number, not `null`, at every first-INSERT-into-unsealed point.
BENCH_SMOKE := target/bench-smoke
bench-smoke:
	mkdir -p $(BENCH_SMOKE)
	$(CARGO) run -q --release -p kath_bench --bin parallel_bench -- --quick --out $(BENCH_SMOKE)/BENCH_parallel.json
	$(CARGO) run -q --release -p kath_bench --bin recovery_bench -- --quick --out $(BENCH_SMOKE)/BENCH_recovery.json
	$(CARGO) run -q --release -p kath_bench --bin vector_bench -- --quick --out $(BENCH_SMOKE)/BENCH_vector.json
	$(CARGO) run -q --release -p kath_bench --bin storage_bench -- --quick --out $(BENCH_SMOKE)/BENCH_storage.json
	$(CARGO) run -q --release -p kath_bench --bin fault_bench -- --quick --out $(BENCH_SMOKE)/BENCH_faults.json
	$(CARGO) run -q --release -p kath_bench --bin txn_bench -- --quick --out $(BENCH_SMOKE)/BENCH_txn.json
	for r in parallel recovery vector storage faults txn; do \
		for key in host quick reps; do \
			grep -q "\"$$key\":" $(BENCH_SMOKE)/BENCH_$$r.json \
				|| { echo "BENCH_$$r.json lacks $$key"; exit 1; }; \
		done; \
	done
	! grep -Eq '"first_insert_into_unsealed_ms": *null' $(BENCH_SMOKE)/BENCH_recovery.json \
		|| { echo "BENCH_recovery.json has a null first_insert_into_unsealed_ms point"; exit 1; }

# Crash-recovery smoke: a child process populates a durable DB (WAL-logged
# inserts around a checkpoint) and dies via abort(); the parent reopens and
# asserts every committed row survived.
recovery-smoke:
	$(CARGO) run -q --release -p kath_bench --bin recovery_smoke

# Fault-injection smoke: seeded fault schedules on the I/O seam drive a
# durable SQL workload; the run asserts every failure is typed and a
# fault-free reopen recovers exactly the acknowledged prefix, plus a 0ms
# query-deadline cancellation leg (see docs/robustness.md).
chaos-smoke:
	$(CARGO) run -q --release -p kath_bench --bin chaos_smoke

# Concurrent-session smoke: 8 writer sessions commit framed transactions
# while 8 readers take MVCC snapshots under seeded interleavings; asserts
# no torn reads (every snapshot is a per-writer committed prefix of
# complete transactions) and that post-crash recovery — including a
# hand-torn Begin-without-Commit WAL tail — equals the acked commits
# exactly (see docs/concurrency.md). CI also runs this under
# KATHDB_FAULTS as a chaos leg.
session-smoke:
	$(CARGO) run -q --release -p kath_bench --bin session_smoke

fmt:
	$(CARGO) fmt --all --check

# Workspace static analysis: io-seam, panic ratchet, lock order, atomics,
# nondeterminism (see docs/static-analysis.md). Fails on any finding.
lint:
	$(CARGO) run -q --release -p kath_lint --bin kathdb-lint

# Regenerates lint-baseline.json from the current panic-site counts — the
# only sanctioned way to change the ratchet (it may only shrink).
lint-baseline:
	$(CARGO) run -q --release -p kath_lint --bin kathdb-lint -- --write-baseline

# Allocations per input row and per output row of every statement class of
# the allocation gate (tests/alloc_complexity.rs), at both of its sizes, with
# each class's budget. A perf claim about the SELECT path quotes it.
alloc-report:
	$(CARGO) test -q --release --test alloc_complexity -- --ignored --nocapture alloc_report

# The oracle suites at 1 024 cases each: random statements against the
# naive evaluator (drive_parity), the entry-point corpus, sorts, the slt
# corpus, and the literal-compare kernel against `Value::sql_cmp` and the
# evaluator (batch_parity). The benchmark's reference digests come from the
# engine itself, so these suites are what judges which WHERE conjuncts a
# scan may take out of the filter.
parity-deep:
	PROPTEST_CASES=1024 $(CARGO) test -q --release -p kath_sql --test drive_parity --test one_entry_point --test sort_parity --test slt
	PROPTEST_CASES=1024 $(CARGO) test -q --release -p kath_storage --test batch_parity

examples:
	for e in $(EXAMPLES); do \
		$(CARGO) run -q --release --example $$e </dev/null || exit 1; \
	done

figures:
	$(CARGO) run -q --release -p kath_bench --bin paper_figures

# Production lines per crate: the lines of each `src/` file above its first
# `#[cfg(test)]` (the whole file when it has none), summed per crate, then
# the total.
prod-loc:
	@for src in crates/*/src; do \
		find $$src -name '*.rs' -exec awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' {} \; \
			| awk -v src=$$src '{ n += $$1 } END { printf "%7d  %s\n", n, src }'; \
	done | awk '{ print; total += $$1 } END { printf "%7d  total\n", total }'
