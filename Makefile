# Developer entry points. `make verify` is the full pre-merge gate; CI
# (.github/workflows/ci.yml) runs the same steps.

CARGO ?= cargo

.PHONY: verify tier1 fmt lint lint-arch doc examples recovery-drill same-bytes clean-state

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
# panic-freedom, fp-determinism, lock-order (global lock order plus no
# publish or optimizer call under a write guard), error-discipline, and
# clock-purity (no `Instant`/`SystemTime` reads outside the `Clock` seam
# and the CLI binaries) — per-file rules plus interprocedural
# call-chain analysis over every covered source file. Non-zero exit on
# any error-severity violation; waivers need
# `// analyzer:allow(<rule>): <reason>` with a written reason. The stats
# line prints extraction and inference timing.
lint-arch:
	$(CARGO) run -q --release -p pgdesign-analyzer

# Rustdoc warnings (a dangling intra-doc link) are errors, as in CI.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps

# Build and run every example end to end — the public TuningSession /
# Advisor API exercised exactly the way the README shows it.
EXAMPLES := quickstart scenario1_interactive scenario2_offline \
            scenario3_online portability_tpch write_aware
# Then the CLI past 20 indexes (the interaction analysis and the schedules
# have no bound on the index count): 22 what-if indexes through
# `evaluate`, and a `recommend` that chooses 27.
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
	@echo "evaluate at 22 indexes and recommend at 27 ran"

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

# Compare this tree's CLI output byte for byte against another build of
# pgdesign: `make same-bytes PARENT=path/to/other/pgdesign`. Runs every
# command below with both binaries, drops the wall-clock `matrix build
# time` lines, `cmp`s each pair, and names each command whose output
# differs (exit 1 if any does). Outputs are kept in target/same-bytes.
SAME_BYTES_RUNS := \
  "evaluate --workload builtin:40 --index photoobj:objid --index photoobj:ra --index photoobj:type,r --index specobj:bestobjid" \
  "session --workload builtin:200 --index photoobj:objid --vertical photoobj:objid,ra,dec|type,r --horizontal photoobj:ra:8 --stats" \
  "recommend --workload builtin:40 --stats" \
  "recommend --catalog tpch --workload builtin:36 --stats" \
  "online --scale 0.005 --queries 120 --epoch 10 --stats"
same-bytes:
	@test -n "$(PARENT)" || { echo "usage: make same-bytes PARENT=<other pgdesign binary>"; exit 2; }
	$(CARGO) build --release
	@rm -rf target/same-bytes; mkdir -p target/same-bytes; n=0; differ=0; \
	for run in $(SAME_BYTES_RUNS); do \
	  n=$$((n + 1)); out=target/same-bytes/$$n; \
	  "$(PARENT)" $$run | grep -v 'matrix build time' > $$out.parent; \
	  ./target/release/pgdesign $$run | grep -v 'matrix build time' > $$out.this; \
	  if cmp -s $$out.parent $$out.this; then echo "same:    pgdesign $$run"; \
	  else echo "DIFFERS: pgdesign $$run ($$out.parent vs $$out.this)"; differ=1; fi; \
	done; exit $$differ

# Remove durable session state: the snapshot, sidecar and edit-log files
# (*.pgds, *.pgdl) that `--state DIR`, or a session opened with
# `open_or_create_on` over an `FsStore`, writes into its directory, and the
# recovery drill's directory.
clean-state:
	find . -name '*.pgds' -delete -o -name '*.pgdl' -delete
	rm -rf target/recovery-drill
