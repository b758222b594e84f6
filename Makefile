# Developer entry points. `make verify` is the full pre-merge gate; CI
# (.github/workflows/ci.yml) runs the same steps.

CARGO ?= cargo

.PHONY: verify tier1 fmt lint lint-arch doc bench bench-json examples recovery-drill clean-state

# Everything CI checks, in CI's order.
verify: fmt lint lint-arch tier1 doc examples

# The tier-1 gate from ROADMAP.md.
tier1:
	$(CARGO) build --release
	$(CARGO) test -q

fmt:
	$(CARGO) fmt --check

lint:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# The architectural lint pass (crates/analyzer): cost-purity,
# panic-freedom, fp-determinism, lock-discipline, lock-order, and
# error-discipline — per-file rules plus interprocedural call-chain
# analysis over every covered source file. Non-zero exit on any
# error-severity violation; waivers need
# `// analyzer:allow(<rule>): <reason>` with a written reason. The stats
# line prints extraction and inference timing.
lint-arch:
	$(CARGO) run -q --release -p pgdesign-analyzer

doc:
	$(CARGO) doc --workspace --no-deps

# Build and run every example end to end — the public TuningSession /
# Advisor API exercised exactly the way the README shows it.
EXAMPLES := quickstart scenario1_interactive scenario2_offline \
            scenario3_online portability_tpch write_aware
# Then the CLI past 20 indexes (the interaction analysis and the schedules
# have no bound on the index count): 22 what-if indexes through
# `evaluate`, and a `recommend` that chooses 28.
WIDE_INDEXES := objid ra dec type u g r i z run camcol field flags status \
                rowc colc type,r r,type u,g g,r run,camcol ra,dec
examples:
	$(CARGO) build --release --examples
	@set -e; for ex in $(EXAMPLES); do \
	  echo "== example: $$ex =="; \
	  $(CARGO) run -q --release --example $$ex >/dev/null; \
	done; echo "all examples ran"
	$(CARGO) build --release
	./target/release/pgdesign evaluate --workload builtin:20 \
	  $(foreach c,$(WIDE_INDEXES),--index photoobj:$(c)) >/dev/null
	./target/release/pgdesign recommend --workload examples/wide_workload.sql \
	  --budget-frac 10 >/dev/null
	@echo "evaluate at 22 indexes and recommend at 28 ran"

# The E1-E7 experiment benches (report + timing per experiment).
bench:
	$(CARGO) bench -p pgdesign-bench

# Perf trajectories, recorded as JSON at the repo root.
#
# E4 (BENCH_e4.json): the matrix-vs-INUM-vs-reoptimization comparison
# (calls/sec + speedup factors). Besides the per-join-count index rows,
# the `partition` and `joint-index+part` rows record partitioned-design
# costing through the partition-aware matrix level (gate: ≥5x vs
# per-design Inum::cost, agreement within 1e-6).
#
# E-build (BENCH_build.json): matrix *construction* — incremental epoch
# update vs fresh per-epoch build on the scenario-3 drift workload
# (gate: ≥5x, agreement ≤1e-12) and serial vs 4-thread cold build
# (gate: ≥2x on a ≥4-core machine; available_parallelism is recorded).
bench-json:
	BENCH_E4_JSON=$(CURDIR)/BENCH_e4.json $(CARGO) bench -p pgdesign-bench --bench e4_inum
	BENCH_BUILD_JSON=$(CURDIR)/BENCH_build.json $(CARGO) bench -p pgdesign-bench --bench e_build

# Crash-recovery drill over the real CLI and a real state directory.
# Leg 1: run the scenario-3 stream with durable state, kill it hard
# (exit 137) mid-epoch, then restart and require a warm matrix — zero
# builds, restored cells reused from the first epoch.
# Leg 2: kill *during a checkpoint* (PGDESIGN_KILL_AT_CHECKPOINT dies
# before the snapshot replace) — recovery must land on the prior
# snapshot with every published edit replayed from the intact log and
# nothing dropped at a torn tail. CI runs this after tier-1.
recovery-drill:
	$(CARGO) build --release
	rm -rf target/recovery-drill
	./target/release/pgdesign online --scale 0.005 --queries 120 --epoch 10 \
	  --state target/recovery-drill --kill-after 33; \
	  status=$$?; [ $$status -eq 137 ] || { echo "expected exit 137, got $$status"; exit 1; }
	./target/release/pgdesign online --scale 0.005 --queries 120 --epoch 10 \
	  --state target/recovery-drill --expect-warm --stats
	rm -rf target/recovery-drill
	PGDESIGN_KILL_AT_CHECKPOINT=2 ./target/release/pgdesign online --scale 0.005 \
	  --queries 120 --epoch 10 --state target/recovery-drill; \
	  status=$$?; [ $$status -eq 137 ] || { echo "expected exit 137, got $$status"; exit 1; }
	./target/release/pgdesign online --scale 0.005 --queries 120 --epoch 10 \
	  --state target/recovery-drill --expect-warm --stats \
	  | tee target/recovery-drill.out
	grep -q '(0 dropped at torn tail)' target/recovery-drill.out \
	  || { echo "checkpoint-kill recovery dropped published edits"; exit 1; }
	rm -rf target/recovery-drill target/recovery-drill.out
	@echo "recovery drill passed (mid-epoch and mid-checkpoint kills)"

# Remove durable session state (snapshot + edit-log directories created
# via --state or TuningSession::open_or_create).
clean-state:
	find . -name '*.pgds' -delete -o -name '*.pgdl' -delete
	rm -rf target/recovery-drill target/cli-drill
