//! Tier-1 chaos gate: a fixed range of seeded fault schedules against
//! the full online daemon (see `engine.rs` for the engine and the
//! invariants). Fixed seeds keep this gating step reproducible.
//! `CHAOS_SCHEDULES` overrides the schedule count and `CHAOS_SEED` the
//! first seed, so the same test runs a wider randomized soak:
//!
//! ```text
//! CHAOS_SEED=$((0x5EED0000 + $(date +%s) / 86400)) CHAOS_SCHEDULES=4000 \
//!     cargo test -q --release --test chaos
//! ```
//!
//! Any failure replays from the seed its panic message names.

mod engine;

const SEED_BASE: u64 = 0xC4A0_5000;

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn schedule_count() -> usize {
    env_or("CHAOS_SCHEDULES", 1000)
}

fn first_seed() -> u64 {
    env_or("CHAOS_SEED", SEED_BASE)
}

/// The headline gate: ≥1000 seeded schedules, zero panics, every served
/// cost within 1e-12 of a fresh rebuild of its generation's recorded
/// state, and a reader never left without an answerable snapshot (those
/// two invariants assert inside the engine; this test additionally pins
/// that the sweep actually exercised every fault class).
#[test]
fn chaos_schedules_hold_invariants_under_faults() {
    let (seed, n) = (first_seed(), schedule_count());
    let out = engine::run_schedules(seed, n);
    println!("{n} schedules from seed {seed:#x}: {out:#?}");
    assert_eq!(out.schedules as usize, n);
    assert!(
        out.max_rel_err <= 1e-12,
        "served costs drifted: {:.3e}",
        out.max_rel_err
    );

    // Coverage pins: a sweep that never hit a fault class proves nothing.
    assert!(
        out.epochs >= n as u64,
        "too few epoch boundaries: {}",
        out.epochs
    );
    assert!(out.hostile_rejected > 0, "no hostile SQL was exercised");
    assert!(out.faults_injected > 0, "no store failpoints were armed");
    assert!(out.restarts > 0, "no kill/restart cycles ran");
    assert!(out.drifts_applied > 0, "no catalog drift was applied");
    assert!(out.drifts_rejected > 0, "no poisoned drift was rejected");
    assert!(
        out.degraded_epochs > 0,
        "deadline pressure never tripped the ladder"
    );
    assert!(out.lookups_verified > 0, "no served costs were verified");
    assert!(
        out.availability_checks > 0,
        "reader availability never probed"
    );
}

/// Schedules are pure functions of their seed: the same seed replays to
/// the identical outcome (manual clock, deterministic backoff, no wall
/// time anywhere in the schedule path).
#[test]
fn chaos_schedules_are_deterministic() {
    for seed in [SEED_BASE, SEED_BASE + 7, SEED_BASE + 42] {
        let a = engine::run_schedule(seed);
        let b = engine::run_schedule(seed);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "seed {seed} did not replay"
        );
    }
}
