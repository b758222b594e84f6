//! E-build — the cost of *building* the cost matrix, and what the
//! incremental + parallel paths buy back.
//!
//! After E4 made configuration costing pure lookups, the dominant
//! remaining cost of the online scenario is constructing the matrix every
//! epoch. This bench measures three things on the scenario-3 drift
//! workload (recurring concrete queries, a small drifting minority per
//! epoch):
//!
//! (a) **fresh-per-epoch**: building a new `CostMatrix` for every epoch
//!     (what COLT did before the persistent matrix),
//! (b) **incremental epoch update**: one persistent matrix; each epoch
//!     adds its queries (recurring ones reuse their resident cells) and
//!     retires the leftovers — work scales with the drift, not the epoch
//!     length (gate: ≥5× faster than (a), agreement ≤1e-12), and
//! (c) **parallel cold build**: `CostMatrix::build_with_threads` at 1 vs
//!     4 workers (gate: ≥2× at 4 threads — only reachable on a machine
//!     with ≥4 cores; `available_parallelism` is recorded alongside so
//!     single-core CI numbers are interpretable), and
//! (d) **concurrent reader serving**: sustained what-if lookups/sec from
//!     N lock-free snapshot readers (`CostMatrix::reader`) while the
//!     writer keeps rotating epochs and publishing generations.
//!
//! All rows land in `BENCH_build.json` (set `BENCH_BUILD_JSON` to a path,
//! or use `make bench-json`).

use criterion::{criterion_group, criterion_main, test_mode, Criterion};
use pgdesign::Designer;
use pgdesign_bench::SCALE;
use pgdesign_catalog::samples::sdss_catalog;
use pgdesign_catalog::Catalog;
use pgdesign_colt::{ColtConfig, EpochMode};
use pgdesign_inum::{decode_snapshot, encode_published, restore_matrix, Clock, CostMatrix, Inum};
use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
use pgdesign_optimizer::Optimizer;
use pgdesign_query::ast::Query;
use pgdesign_query::generators::sdss_template;
use pgdesign_query::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The scenario-3 drift pool: a sequence of *concrete* queries (fixed
/// literals, as a parameterized application would repeat them). Epoch `e`
/// is the window `pool[e*drift .. e*drift + epoch_len]`, so consecutive
/// epochs share `epoch_len - drift` queries and differ in `drift`.
fn drift_pool(catalog: &Catalog, len: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|i| sdss_template(catalog, i % 9, &mut rng))
        .collect()
}

fn epoch_workload(pool: &[Query], e: usize, epoch_len: usize, drift: usize) -> Workload {
    Workload::from_queries(pool[e * drift..e * drift + epoch_len].iter().cloned())
}

fn bench_build(c: &mut Criterion) {
    let catalog = sdss_catalog(SCALE);
    let optimizer = Optimizer::new();
    let inum = Inum::new(&catalog, &optimizer);

    let (epochs, epoch_len, drift) = if test_mode() { (4, 10, 2) } else { (10, 40, 3) };
    let pool = drift_pool(&catalog, epoch_len + epochs * drift, 0xB111D);
    let all = Workload::from_queries(pool.iter().cloned());
    // The candidate pool an advisor would actually run with: the base
    // enumeration plus CoPhy's merged candidates.
    let cands = pgdesign_cophy::merging::augment_with_merges(
        &catalog,
        &workload_candidates(&catalog, &all, &CandidateConfig::default()),
        4,
        64,
    );
    // Warm the skeleton cache once: both build paths then pay only cell
    // work, which is the comparison that matters.
    inum.prepare_workload(&all);

    // Epoch workloads are materialized outside every timed region so both
    // strategies measure matrix work only.
    let epoch_ws: Vec<Workload> = (0..=epochs)
        .map(|e| epoch_workload(&pool, e, epoch_len, drift))
        .collect();

    // Both strategies are measured `REPS` times and the minimum total is
    // kept — the standard way to strip scheduler noise from short runs.
    const REPS: usize = 3;

    // (a) Fresh per-epoch builds, epochs 1..n (epoch 0 is the cold start
    // both strategies share). Each epoch's matrix is dropped before the
    // next is built — exactly the old per-epoch COLT flow — so both
    // strategies pay their cell deallocation inside the timed region.
    let mut fresh_total = f64::INFINITY;
    let mut last_fresh = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        for w in &epoch_ws[1..epochs] {
            last_fresh = Some(CostMatrix::build_with_threads(&inum, w, &cands.indexes, 1));
        }
        fresh_total = fresh_total.min(t0.elapsed().as_secs_f64());
    }

    // (b) One persistent matrix, incrementally rotated through the same
    // epochs. Add first, retire after — recurring queries keep their
    // resident cells. Each rep restarts from an epoch-0 matrix (built
    // outside the timed region).
    let mut incr_total = f64::INFINITY;
    let mut persistent = CostMatrix::build_with_threads(&inum, &epoch_ws[0], &cands.indexes, 1);
    let mut epoch_qids: Vec<Vec<usize>> = Vec::new();
    for rep in 0..REPS {
        if rep > 0 {
            persistent = CostMatrix::build_with_threads(&inum, &epoch_ws[0], &cands.indexes, 1);
        }
        let t1 = Instant::now();
        epoch_qids.clear();
        for w in &epoch_ws[1..epochs] {
            let qids = persistent.add_queries(w.iter());
            let keep: std::collections::HashSet<usize> = qids.iter().copied().collect();
            let stale: Vec<usize> = persistent
                .active_query_ids()
                .filter(|id| !keep.contains(id))
                .collect();
            for id in stale {
                persistent.retire_query(id);
            }
            epoch_qids.push(qids);
        }
        incr_total = incr_total.min(t1.elapsed().as_secs_f64());
    }

    // Agreement: after the final rotation the persistent matrix must cost
    // the last epoch identically to its fresh counterpart (≤1e-12).
    let last_fresh = last_fresh.expect("≥2 epochs");
    let last_fresh = &last_fresh;
    let last_qids = epoch_qids.last().expect("≥2 epochs");
    let mut agreement: f64 = 0.0;
    for k in 0..=cands.indexes.len().min(6) {
        let cfg_fresh = last_fresh.config_of((0..k).map(|i| i * 2 % cands.indexes.len().max(1)));
        let cfg_inc = persistent.config_of((0..k).map(|i| i * 2 % cands.indexes.len().max(1)));
        for (pos, &qid) in last_qids.iter().enumerate() {
            let a = persistent.cost(qid, &cfg_inc);
            let b = last_fresh.cost(pos, &cfg_fresh);
            agreement = agreement.max((a - b).abs() / b.abs().max(1.0));
        }
    }

    // (c) Parallel cold build over the whole pool: serial vs 4 workers.
    let mut cold_serial = f64::INFINITY;
    let mut cold_parallel = f64::INFINITY;
    let mut serial = CostMatrix::build_with_threads(&inum, &all, &cands.indexes, 1);
    let mut par = CostMatrix::build_with_threads(&inum, &all, &cands.indexes, 4);
    for _ in 0..REPS {
        let t2 = Instant::now();
        serial = CostMatrix::build_with_threads(&inum, &all, &cands.indexes, 1);
        cold_serial = cold_serial.min(t2.elapsed().as_secs_f64());
        let t3 = Instant::now();
        par = CostMatrix::build_with_threads(&inum, &all, &cands.indexes, 4);
        cold_parallel = cold_parallel.min(t3.elapsed().as_secs_f64());
    }
    let mut par_agreement: f64 = 0.0;
    for qi in 0..all.len() {
        let cfg = serial.config_of(0..cands.indexes.len());
        let a = serial.cost(qi, &cfg);
        let b = par.cost(qi, &cfg);
        par_agreement = par_agreement.max((a - b).abs() / b.abs().max(1.0));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // (e) Warm restart: encode the published matrix into snapshot
    // records, then decode + restore onto a *second* INUM — the recovery
    // path a durable session takes at open (`TuningSession::open_or_create`)
    // — versus paying the cold build again. Restore adopts the persisted
    // cells instead of recomputing them, so it is pure decode work.
    serial.publish();
    let records = encode_published(&serial);
    let snapshot_bytes: usize = records.iter().map(|r| r.len()).sum();
    let opt2 = Optimizer::new();
    let inum2 = Inum::new(&catalog, &opt2);
    let mut restore_total = f64::INFINITY;
    let mut restore_cells = 0u64;
    let mut restored_last = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let decoded = decode_snapshot(&records).expect("decode snapshot");
        restore_cells = decoded.cells;
        let (restored, _) = restore_matrix(&inum2, decoded).expect("restore");
        restore_total = restore_total.min(t.elapsed().as_secs_f64());
        restored_last = Some(restored);
    }
    let restored = restored_last.expect("REPS > 0");
    assert_eq!(inum2.matrix_stats().builds, 0, "restore must not build");
    let mut restore_agreement: f64 = 0.0;
    {
        let cfg = serial.config_of(0..cands.indexes.len());
        for qi in 0..all.len() {
            let a = serial.cost(qi, &cfg);
            let b = restored.cost(qi, &cfg);
            restore_agreement = restore_agreement.max((a - b).abs() / b.abs().max(1.0));
        }
    }
    let restore_speedup = cold_serial / restore_total.max(1e-12);

    // (d) Concurrent what-if serving: sustained snapshot lookups/sec from
    // N lock-free readers while the writer keeps rotating epochs and
    // publishing generations — the tail-latency story behind the
    // `TuningSession::reader` API. Readers clone one `MatrixReader` and
    // never take a lock; the writer pays the whole synchronization bill.
    let reader_threads = 4usize;
    let serve_secs = if test_mode() { 0.05 } else { 0.25 };
    let mut serve_generations = 0u64;
    let (served, serve_elapsed) = {
        use rand::Rng;
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = AtomicBool::new(false);
        let reader0 = persistent.reader();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..reader_threads)
                .map(|t| {
                    let mut reader = reader0.clone();
                    let stop = &stop;
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(0xD00D + t as u64);
                        let mut n = 0u64;
                        while !stop.load(Ordering::Acquire) {
                            reader.refresh();
                            let snap = reader.snapshot();
                            let actives: Vec<usize> = snap.active_query_ids().collect();
                            let n_cands = snap.n_candidates().max(1);
                            let cfg = snap.config_of(
                                (0..rng.random_range(0..6usize))
                                    .map(|_| rng.random_range(0..n_cands)),
                            );
                            for &qid in &actives {
                                let _ = snap.cost(qid, &cfg);
                                n += 1;
                            }
                        }
                        n
                    })
                })
                .collect();
            let t4 = Instant::now();
            while t4.elapsed().as_secs_f64() < serve_secs {
                let w = &epoch_ws[(serve_generations as usize) % epoch_ws.len()];
                let qids = persistent.add_queries(w.iter());
                let keep: std::collections::HashSet<usize> = qids.iter().copied().collect();
                let stale: Vec<usize> = persistent
                    .active_query_ids()
                    .filter(|id| !keep.contains(id))
                    .collect();
                for id in stale {
                    persistent.retire_query(id);
                }
                persistent.publish();
                serve_generations += 1;
            }
            stop.store(true, Ordering::Release);
            let elapsed = t4.elapsed().as_secs_f64();
            let total: u64 = handles.into_iter().map(|h| h.join().expect("reader")).sum();
            (total, elapsed)
        })
    };
    let reader_rate = served as f64 / serve_elapsed.max(1e-12);

    // (f) Degraded epochs: the drift stream pushed through the online
    // daemon (`OnlineSession`) under epoch-deadline pressure on a ticking
    // test clock, while snapshot readers keep serving. The deadline
    // cycles one relaxed epoch, one tightly-deadlined epoch, one
    // zero-deadline epoch — walking all three rungs of the degradation
    // ladder — and the row records how service held up: every rung
    // observed, staleness bounded and metered, reader throughput nonzero
    // straight through `Stale` epochs.
    struct TickClock {
        step: u64,
        nanos: std::sync::atomic::AtomicU64,
    }
    impl Clock for TickClock {
        fn now_nanos(&self) -> u64 {
            self.nanos
                .fetch_add(self.step, std::sync::atomic::Ordering::SeqCst)
        }
    }
    let (d_epochs, d_len) = if test_mode() { (6, 8) } else { (9, 25) };
    let designer = Designer::new(sdss_catalog(SCALE));
    let mut session = designer.online_session(ColtConfig {
        epoch_length: d_len,
        whatif_budget_per_epoch: if test_mode() { 40 } else { 120 },
        ..ColtConfig::default()
    });
    session.set_clock(std::sync::Arc::new(TickClock {
        step: 200_000, // 0.2ms per clock read: a 4ms budget expires mid-epoch
        nanos: std::sync::atomic::AtomicU64::new(0),
    }));
    let mut mode_counts = [0usize; 3]; // full / incremental-only / stale
    let mut max_stale = 0u64;
    let (served_degraded, degraded_elapsed) = {
        use rand::Rng;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::Duration;
        let mut stream_rng = StdRng::seed_from_u64(0xDE6);
        let stop = AtomicBool::new(false);
        let reader0 = session.reader();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..reader_threads)
                .map(|t| {
                    let mut reader = reader0.clone();
                    let stop = &stop;
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(0xFADE + t as u64);
                        let mut n = 0u64;
                        while !stop.load(Ordering::Acquire) {
                            reader.refresh();
                            let snap = reader.snapshot();
                            let actives: Vec<usize> = snap.active_query_ids().collect();
                            let n_cands = snap.n_candidates().max(1);
                            let cfg = snap.config_of(
                                (0..rng.random_range(0..4usize))
                                    .map(|_| rng.random_range(0..n_cands)),
                            );
                            for &qid in &actives {
                                let _ = snap.cost(qid, &cfg);
                                n += 1;
                            }
                        }
                        n
                    })
                })
                .collect();
            let t5 = Instant::now();
            for e in 0..d_epochs {
                session.set_epoch_deadline(match e % 3 {
                    0 => None,
                    1 => Some(Duration::from_millis(4)),
                    _ => Some(Duration::ZERO),
                });
                for _ in 0..d_len {
                    let q = sdss_template(
                        &designer.catalog,
                        stream_rng.random_range(0..9usize),
                        &mut stream_rng,
                    );
                    if let Some(r) = session.observe(q) {
                        mode_counts[match r.mode {
                            EpochMode::Full => 0,
                            EpochMode::IncrementalOnly => 1,
                            EpochMode::Stale => 2,
                        }] += 1;
                    }
                }
                max_stale = max_stale.max(session.staleness_generations());
            }
            stop.store(true, Ordering::Release);
            let elapsed = t5.elapsed().as_secs_f64();
            let total: u64 = handles.into_iter().map(|h| h.join().expect("reader")).sum();
            (total, elapsed)
        })
    };
    let degraded_rate = served_degraded as f64 / degraded_elapsed.max(1e-12);

    let incr_speedup = fresh_total / incr_total.max(1e-12);
    // Four workers on fewer than four cores time the scheduler, not the
    // build: no speed-up is reported, and the reason is.
    let par_speedup = (cores >= 4).then(|| cold_serial / cold_parallel.max(1e-12));
    let par_speedup_text = par_speedup.map_or("  n/a".to_string(), |x| format!("{x:5.1}x"));
    let par_speedup_json = par_speedup.map_or_else(
        || format!("null, \"reason\": \"4 threads requested, {cores} cores available\""),
        |x| format!("{x:.2}"),
    );
    println!(
        "=== E-build: matrix construction ({} epochs x {} queries, drift {}) ===",
        epochs, epoch_len, drift
    );
    println!(
        "fresh-per-epoch: {:7.2} ms   incremental: {:7.2} ms   speedup {:5.1}x   agreement {:.2e}",
        fresh_total * 1e3,
        incr_total * 1e3,
        incr_speedup,
        agreement
    );
    println!(
        "cold build:      {:7.2} ms   4 threads:   {:7.2} ms   speedup {par_speedup_text}   (cores available: {cores})   agreement {:.2e}",
        cold_serial * 1e3,
        cold_parallel * 1e3,
        par_agreement
    );
    println!(
        "warm restart:    {:7.2} ms to decode+restore {} cells ({} snapshot bytes)   vs cold {:5.1}x   agreement {:.2e}",
        restore_total * 1e3,
        restore_cells,
        snapshot_bytes,
        restore_speedup,
        restore_agreement
    );
    println!(
        "reader serving:  {:7.0} lookups/s from {reader_threads} threads during {} rotations ({:.0} ms window)",
        reader_rate,
        serve_generations,
        serve_elapsed * 1e3
    );
    println!(
        "degraded rotate: {d_epochs} deadline-cycled epochs → {} full / {} incremental-only / {} stale, \
         max staleness {max_stale} generations; readers held {:7.0} lookups/s",
        mode_counts[0], mode_counts[1], mode_counts[2], degraded_rate
    );
    let s = inum.matrix_stats();
    println!(
        "matrix counters: {} builds, {} cells computed, {} cells reused, {:.1} ms total build time",
        s.builds,
        s.cells,
        s.cells_reused,
        s.build_nanos as f64 / 1e6
    );

    if let Ok(path) = std::env::var("BENCH_BUILD_JSON") {
        let degraded_row = format!(
            "{{\"row\": \"degraded-epoch\", \"epochs\": {d_epochs}, \"full\": {}, \
             \"incremental_only\": {}, \"stale\": {}, \"max_staleness_generations\": {max_stale}, \
             \"reader_threads\": {reader_threads}, \"lookups_per_sec\": {degraded_rate:.0}, \
             \"window_ms\": {:.1}}}",
            mode_counts[0],
            mode_counts[1],
            mode_counts[2],
            degraded_elapsed * 1e3,
        );
        let json = format!(
            "{{\n  \"experiment\": \"build\",\n  \"scale\": {SCALE},\n  \
             \"epochs\": {epochs},\n  \"epoch_len\": {epoch_len},\n  \"drift\": {drift},\n  \
             \"rows\": [\n    \
             {{\"row\": \"epoch-update\", \"fresh_per_epoch_ms\": {:.3}, \"incremental_ms\": {:.3}, \
             \"incremental_vs_fresh_speedup\": {:.2}, \"agreement_err\": {:.3e}}},\n    \
             {{\"row\": \"cold-build\", \"serial_ms\": {:.3}, \"parallel_4t_ms\": {:.3}, \
             \"parallel_speedup_4t\": {par_speedup_json}, \"available_parallelism\": {cores}, \
             \"agreement_err\": {:.3e}}},\n    \
             {{\"row\": \"warm-restart\", \"restore_ms\": {:.3}, \"cold_build_ms\": {:.3},              \"restore_vs_cold_speedup\": {:.2}, \"snapshot_bytes\": {snapshot_bytes},              \"cells_restored\": {restore_cells}, \"agreement_err\": {:.3e}}},\n                 {{\"row\": \"reader-throughput\", \"reader_threads\": {reader_threads}, \
             \"lookups_per_sec\": {:.0}, \"generations_published\": {serve_generations}, \
             \"window_ms\": {:.1}}},\n    {degraded_row}\n  ],\n  \
             \"cells_computed\": {},\n  \"cells_reused\": {}\n}}\n",
            fresh_total * 1e3,
            incr_total * 1e3,
            incr_speedup,
            agreement,
            cold_serial * 1e3,
            cold_parallel * 1e3,
            par_agreement,
            restore_total * 1e3,
            cold_serial * 1e3,
            restore_speedup,
            restore_agreement,
            reader_rate,
            serve_elapsed * 1e3,
            s.cells,
            s.cells_reused,
        );
        std::fs::write(&path, json).expect("write BENCH_build.json");
        println!("wrote {path}");
    }

    // Criterion rows for the two hot operations.
    let mut g = c.benchmark_group("e_build");
    let epoch_next = &epoch_ws[epochs];
    g.bench_function("cold_build_serial", |b| {
        b.iter(|| CostMatrix::build_with_threads(&inum, &epoch_ws[0], &cands.indexes, 1))
    });
    g.bench_function("incremental_epoch_update", |b| {
        b.iter(|| {
            let qids = persistent.add_queries(epoch_next.iter());
            let keep: std::collections::HashSet<usize> = qids.iter().copied().collect();
            let stale: Vec<usize> = persistent
                .active_query_ids()
                .filter(|id| !keep.contains(id))
                .collect();
            for id in stale {
                persistent.retire_query(id);
            }
            qids.len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
