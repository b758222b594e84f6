//! Seeded chaos schedules against the full online tuning daemon.
//!
//! Each schedule drives a real [`OnlineSession`] over a fault-injecting
//! [`SharedMemStore`] through a deterministic, seed-derived interleaving
//! of:
//!
//! * valid stream queries (the SDSS templates),
//! * hostile / unparseable SQL, which must come back as a `ParseError`,
//!   never a panic,
//! * durable-store failpoints (transient fsync, sticky fsync, short
//!   writes, mid-append crashes) with power-cut and byte-corruption
//!   restarts,
//! * mid-stream catalog drift via [`Catalog::update_table_stats`] — both
//!   valid updates and non-finite poison that must be rejected with the
//!   catalog left untouched, and
//! * epoch-deadline pressure on a manual clock, walking the tuner down
//!   its degradation ladder.
//!
//! Invariants checked on every schedule, beyond "nothing panics":
//!
//! 1. every cost served from a reader snapshot agrees within `1e-12`
//!    (relative) with a fresh serial rebuild of that generation's
//!    recorded (queries, candidates) state;
//! 2. a reader is never left without an answerable snapshot — after any
//!    fault, every active query still costs to a non-NaN value through
//!    the latest snapshot;
//! 3. [`OnlineSession::tuning_stats`] and [`OnlineSession::health`]
//!    always agree on the service-health verdict.
//!
//! Schedules are pure functions of their seed (manual clock, no wall
//! time, deterministic backoff), so any failure replays bit-identically
//! from the seed printed in the panic message.

use pgdesign::health::ManualClock;
use pgdesign::{Designer, OnlineSession, ServiceHealth};
use pgdesign_catalog::design::Index;
use pgdesign_catalog::samples::sdss_catalog;
use pgdesign_catalog::{Catalog, CatalogError};
use pgdesign_colt::{ColtConfig, EpochMode};
use pgdesign_durability::{Failpoint, SharedMemStore};
use pgdesign_inum::{CostMatrix, Inum};
use pgdesign_query::ast::Query;
use pgdesign_query::generators::sdss_template;
use pgdesign_query::{parse_query, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Aggregated evidence from one schedule (or a sweep of them): how much
/// of the fault surface was actually exercised, and the worst observed
/// serving error. Everything is additive except `max_rel_err`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ChaosOutcome {
    /// Schedules folded into this outcome.
    pub schedules: u64,
    /// Stream steps executed.
    pub steps: u64,
    /// Epoch boundaries crossed.
    pub epochs: u64,
    /// Epochs that closed below the `Full` rung of the ladder.
    pub degraded_epochs: u64,
    /// Hostile SQL inputs rejected with a typed parse error.
    pub hostile_rejected: u64,
    /// Store failpoints armed.
    pub faults_injected: u64,
    /// Durable bytes corrupted across restarts.
    pub corruptions: u64,
    /// Session restarts over the surviving store bytes.
    pub restarts: u64,
    /// Valid catalog drift updates applied mid-stream.
    pub drifts_applied: u64,
    /// Non-finite drift updates rejected (catalog verified unchanged).
    pub drifts_rejected: u64,
    /// Reader-availability probes (snapshot answered every active query).
    pub availability_checks: u64,
    /// Served costs verified against a fresh serial rebuild.
    pub lookups_verified: u64,
    /// Steps at which the daemon reported non-`Healthy` service health.
    pub degraded_observations: u64,
    /// Worst relative error between a served and a fresh-rebuilt cost.
    pub max_rel_err: f64,
}

impl ChaosOutcome {
    /// Fold another outcome into this one.
    pub fn absorb(&mut self, o: &ChaosOutcome) {
        self.schedules += o.schedules;
        self.steps += o.steps;
        self.epochs += o.epochs;
        self.degraded_epochs += o.degraded_epochs;
        self.hostile_rejected += o.hostile_rejected;
        self.faults_injected += o.faults_injected;
        self.corruptions += o.corruptions;
        self.restarts += o.restarts;
        self.drifts_applied += o.drifts_applied;
        self.drifts_rejected += o.drifts_rejected;
        self.availability_checks += o.availability_checks;
        self.lookups_verified += o.lookups_verified;
        self.degraded_observations += o.degraded_observations;
        self.max_rel_err = self.max_rel_err.max(o.max_rel_err);
    }
}

/// Malformed statements every schedule samples from. Each must produce a
/// `ParseError`; none may panic, hang, or reach the tuner.
const HOSTILE_SQL: &[&str] = &[
    "",
    ";",
    "SELECT",
    "SELECT FROM",
    "SELECT * FROM no_such_table",
    "SELECT ra FROM photoobj WHERE",
    "SELECT ra FROM photoobj WHERE objid =",
    "SELECT ra FROM photoobj WHERE objid = 'unterminated",
    "SELECT ra FROM photoobj WHERE objid BETWEEN 1",
    "SELECT ra FROM photoobj WHERE objid IN (",
    "SELECT ra FROM photoobj ORDER BY",
    "SELECT ra FROM photoobj LIMIT -3",
    "SELECT ??? FROM photoobj",
    "SELECT ra, FROM photoobj",
    "SELECT ra FROM photoobj trailing garbage tokens",
    "SELECT count(ra FROM photoobj",
    "SELECT ra FROM photoobj WHERE ra <> <> 1",
    "\u{0}\u{7} SELECT \u{1b}[2J",
];

/// Random near-SQL noise: ASCII soup with quotes, dots, digits and a few
/// non-ASCII code points, biased toward the lexer's edge cases.
fn garbage_sql(rng: &mut StdRng) -> String {
    const POOL: &[char] = &[
        'S', 'E', 'L', 'C', 'T', 'F', 'R', 'O', 'M', 'W', ' ', ' ', '*', '(', ')', '\'', '.', ',',
        '<', '>', '=', '-', '0', '9', 'e', '_', ';', '\n', '\t', '\u{0}', 'ß', '☃',
    ];
    let len = rng.random_range(0..48usize);
    (0..len)
        .map(|_| POOL[rng.random_range(0..POOL.len())])
        .collect()
}

/// Apply one valid drift update and one non-finite poison update to a
/// random table. The poison must be rejected with a typed error and must
/// leave the catalog bit-for-bit unchanged.
fn drift_catalog(catalog: &mut Catalog, rng: &mut StdRng, out: &mut ChaosOutcome) {
    let n_tables = catalog.schema.len();
    let tid = catalog
        .schema
        .tables()
        .nth(rng.random_range(0..n_tables))
        .expect("schema has tables")
        .id;

    // Valid drift: scale row count and per-column NDVs.
    let factor = 0.5 + rng.random_range(0..16u32) as f64 / 8.0;
    let mut drifted = catalog.table_stats(tid).clone();
    drifted.row_count = ((drifted.row_count as f64 * factor) as u64).max(1);
    for col in &mut drifted.columns {
        col.ndv = (col.ndv * factor).max(1.0);
    }
    catalog
        .update_table_stats(tid, drifted)
        .expect("finite drift must be accepted");
    out.drifts_applied += 1;

    // Poison drift: one non-finite field, rejected atomically.
    let rows_before = catalog.table_stats(tid).row_count;
    let ndv_before = catalog.table_stats(tid).columns.first().map(|c| c.ndv);
    let mut poison = catalog.table_stats(tid).clone();
    if let Some(col) = poison.columns.first_mut() {
        col.ndv = if rng.random_range(0..2) == 0 {
            f64::NAN
        } else {
            f64::INFINITY
        };
        match catalog.update_table_stats(tid, poison) {
            Err(CatalogError::NonFinite { field: "ndv", .. }) => {}
            other => panic!("poisoned stats must be rejected as NonFinite, got {other:?}"),
        }
        assert_eq!(
            catalog.table_stats(tid).row_count,
            rows_before,
            "rejected update mutated catalog"
        );
        assert_eq!(
            catalog.table_stats(tid).columns.first().map(|c| c.ndv),
            ndv_before
        );
        out.drifts_rejected += 1;
    }
}

/// Record the just-published generation from the writer matrix, sample a
/// few costs through a fresh reader snapshot, then rebuild that exact
/// state serially and require agreement within 1e-12 relative.
fn verify_served_costs(
    designer: &Designer,
    session: &mut OnlineSession<'_>,
    rng: &mut StdRng,
    out: &mut ChaosOutcome,
    seed: u64,
) {
    type ActiveRow = (usize, Query, f64);
    let (actives, cands): (Vec<ActiveRow>, Vec<(usize, Index)>) = {
        let m = session.session().matrix();
        (
            m.active_query_ids()
                .map(|qid| (qid, m.workload().query(qid).clone(), m.query_weight(qid)))
                .collect(),
            m.candidates().map(|(id, idx)| (id, idx.clone())).collect(),
        )
    };
    if actives.is_empty() {
        return;
    }
    let mut reader = session.reader();
    reader.refresh();
    let snap = reader.snapshot();

    let mut samples: Vec<(usize, Vec<usize>, f64)> = Vec::new();
    for _ in 0..3 {
        let (qid, _, _) = actives[rng.random_range(0..actives.len())];
        let ids: Vec<usize> = cands
            .iter()
            .map(|(id, _)| *id)
            .filter(|_| rng.random_range(0..2u32) == 0)
            .collect();
        let served = snap.cost(qid, &snap.config_of(ids.iter().copied()));
        samples.push((qid, ids, served));
    }

    let inum = Inum::new(&designer.catalog, &designer.optimizer);
    let mut w = Workload::new();
    for (_, q, wt) in &actives {
        w.push(q.clone(), *wt);
    }
    let fresh_cands: Vec<Index> = cands.iter().map(|(_, idx)| idx.clone()).collect();
    let fresh = CostMatrix::build_with_threads(&inum, &w, &fresh_cands, 1);
    let qpos: HashMap<usize, usize> = actives
        .iter()
        .enumerate()
        .map(|(p, (id, _, _))| (*id, p))
        .collect();
    let cpos: HashMap<usize, usize> = cands
        .iter()
        .enumerate()
        .map(|(p, (id, _))| (*id, p))
        .collect();
    for (qid, ids, served) in samples {
        let serial = fresh.cost(qpos[&qid], &fresh.config_of(ids.iter().map(|id| cpos[id])));
        let denom = serial.abs().max(1.0);
        let rel = (served - serial).abs() / denom;
        assert!(
            rel <= 1e-12,
            "schedule seed {seed}: served cost {served} disagrees with fresh rebuild {serial} \
             (rel {rel:.3e}, query {qid}, candidates {ids:?})"
        );
        out.max_rel_err = out.max_rel_err.max(rel);
        out.lookups_verified += 1;
    }
}

/// The reader-availability invariant: the latest snapshot must cost every
/// active query to a non-NaN value, no matter what just failed.
fn assert_snapshot_answerable(reader: &mut pgdesign::SessionReader, seed: u64) {
    reader.refresh();
    let snap = reader.snapshot();
    let cfg = snap.empty_config();
    for qid in snap.active_query_ids().collect::<Vec<_>>() {
        let c = snap.cost(qid, &cfg);
        assert!(
            !c.is_nan(),
            "schedule seed {seed}: snapshot served NaN for query {qid}"
        );
    }
}

/// One session lifetime within a schedule: open over the surviving store
/// bytes, stream with interleaved faults, optionally end on a hard store
/// fault. Returns whether the store needs a power cut before reopening.
#[allow(clippy::too_many_arguments)]
fn run_segment(
    designer: &Designer,
    store: &SharedMemStore,
    rng: &mut StdRng,
    out: &mut ChaosOutcome,
    seed: u64,
) -> bool {
    let config = ColtConfig {
        epoch_length: 4,
        whatif_budget_per_epoch: 40,
        ..ColtConfig::default()
    };
    let mut session = OnlineSession::open_or_create_on(designer, config, Box::new(store.clone()))
        .unwrap_or_else(|e| panic!("schedule seed {seed}: open over a healthy store failed: {e}"));

    // Half the segments run under deadline pressure on a manual clock
    // (sub-5ms budgets force the ladder; a 0ms budget forces `Stale`).
    let clock = Arc::new(ManualClock::new());
    let deadline = if rng.random_range(0..2u32) == 0 {
        Some(Duration::from_millis(rng.random_range(0..4u64)))
    } else {
        None
    };
    if let Some(d) = deadline {
        session.set_clock(clock.clone());
        session.set_epoch_deadline(Some(d));
    }

    let mut availability = session.reader();
    let target_epochs = 2 + rng.random_range(0..2u32);
    let mut epochs_seen = 0u32;
    let mut steps = 0u32;
    while epochs_seen < target_epochs && steps < 64 {
        steps += 1;
        out.steps += 1;
        match rng.random_range(0..8u32) {
            0 => {
                // Hostile input edge: parse must reject, never panic. A
                // garbage string that happens to parse is a valid query
                // and goes into the stream like any other.
                let sql = if rng.random_range(0..2u32) == 0 {
                    HOSTILE_SQL[rng.random_range(0..HOSTILE_SQL.len())].to_string()
                } else {
                    garbage_sql(rng)
                };
                match parse_query(&designer.catalog.schema, &sql) {
                    Err(_) => {
                        out.hostile_rejected += 1;
                        continue;
                    }
                    Ok(q) => {
                        let _ = session.observe(q);
                        continue;
                    }
                }
            }
            1 => {
                // Transient IO fault under the next epoch sync — bounded
                // retry must ride it out without suspending.
                store.lock().arm(Failpoint::TransientFsync {
                    times: 1 + rng.random_range(0..2usize),
                });
                out.faults_injected += 1;
            }
            _ => {}
        }
        if deadline.is_some() {
            clock.advance(Duration::from_millis(rng.random_range(0..3u64)));
        }
        let q = sdss_template(&designer.catalog, rng.random_range(0..9usize), rng);
        let boundary = session.observe(q).map(|r| r.mode);
        if let Some(mode) = boundary {
            epochs_seen += 1;
            out.epochs += 1;
            if mode != EpochMode::Full {
                out.degraded_epochs += 1;
            }
            // `Stale` published nothing, so the writer matrix is ahead of
            // the snapshot; only verify after an epoch that published.
            if mode != EpochMode::Stale && rng.random_range(0..2u32) == 0 {
                verify_served_costs(designer, &mut session, rng, out, seed);
            }
        }
        if rng.random_range(0..3u32) == 0 {
            assert_snapshot_answerable(&mut availability, seed);
            out.availability_checks += 1;
        }
        let stats = session.tuning_stats();
        assert_eq!(
            stats.health,
            session.health(),
            "schedule seed {seed}: stats/health disagree"
        );
        if stats.health != ServiceHealth::Healthy {
            out.degraded_observations += 1;
        }
    }

    // Finale (one in three segments): a hard store fault while the stream
    // keeps running. The daemon must degrade or suspend — and keep
    // serving reads — never panic. These faults down or poison the store,
    // so the caller power-cuts before the next open.
    let mut store_dirty = false;
    if rng.random_range(0..3u32) == 0 {
        let fp = match rng.random_range(0..3u32) {
            0 => Failpoint::ShortWrite {
                keep: rng.random_range(0..8usize),
            },
            1 => Failpoint::CrashAfterBytes {
                n: rng.random_range(4..96usize),
            },
            _ => Failpoint::FsyncError,
        };
        store.lock().arm(fp);
        store_dirty = true;
        out.faults_injected += 1;
        for _ in 0..5 {
            out.steps += 1;
            if deadline.is_some() {
                clock.advance(Duration::from_millis(1));
            }
            let q = sdss_template(&designer.catalog, rng.random_range(0..9usize), rng);
            if session.observe(q).is_some() {
                out.epochs += 1;
            }
            if session.health() != ServiceHealth::Healthy {
                out.degraded_observations += 1;
            }
        }
    }
    // Whatever just happened, the reader still has an answerable snapshot.
    assert_snapshot_answerable(&mut availability, seed);
    out.availability_checks += 1;
    store_dirty
}

/// Run one seeded schedule end to end. Panics (with the seed in the
/// message) on any invariant violation; returns the coverage outcome.
pub fn run_schedule(seed: u64) -> ChaosOutcome {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5C4A_05C4_A05C);
    let mut out = ChaosOutcome {
        schedules: 1,
        ..ChaosOutcome::default()
    };
    let mut designer = Designer::new(sdss_catalog(0.004));
    let store = SharedMemStore::new();
    let mut store_dirty = false;
    let segments = 1 + rng.random_range(0..2usize);
    for seg in 0..segments {
        if seg > 0 {
            // The "kill": the previous session is gone; surviving bytes
            // (plus an optional torn tail and a flipped byte) are what
            // the restart finds. Catalog stats drift across the restart.
            out.restarts += 1;
            drift_catalog(&mut designer.catalog, &mut rng, &mut out);
            if store_dirty {
                let mut g = store.lock();
                g.power_cut(rng.random_range(0..32usize));
            } else if rng.random_range(0..2u32) == 0 {
                store.lock().power_cut(rng.random_range(0..32usize));
            }
            if rng.random_range(0..4u32) == 0 {
                let name = ["matrix.pgds", "matrix.pgdl"][rng.random_range(0..2usize)];
                store.lock().corrupt(name, rng.random_range(0..512usize));
                out.corruptions += 1;
            }
        }
        store_dirty = run_segment(&designer, &store, &mut rng, &mut out, seed);
    }
    out
}

/// Run `n` consecutive seeds starting at `first_seed`, spread over worker
/// threads (schedules are independent and deterministic per seed; sums
/// commute and `max_rel_err` is order-free, so the fold is deterministic).
pub fn run_schedules(first_seed: u64, n: usize) -> ChaosOutcome {
    let workers = std::thread::available_parallelism()
        .map_or(1, |c| c.get())
        .clamp(1, 8);
    let mut total = ChaosOutcome::default();
    std::thread::scope(|s| {
        let chunk = n.div_ceil(workers);
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let lo = (w * chunk).min(n);
                let hi = ((w + 1) * chunk).min(n);
                s.spawn(move || {
                    let mut acc = ChaosOutcome::default();
                    for i in lo..hi {
                        acc.absorb(&run_schedule(first_seed + i as u64));
                    }
                    acc
                })
            })
            .collect();
        for h in handles {
            total.absorb(&h.join().expect("chaos worker panicked"));
        }
    });
    total
}
