//! Deadline and work-budget tokens for cooperative cancellation.
//!
//! The tuning daemon bounds how long any one epoch may stall the writer:
//! the matrix's mutation bodies ([`CostMatrix::add_queries_budgeted`],
//! [`CostMatrix::add_candidates_budgeted`]) take a [`WorkBudget`] and
//! check it between work units (one query's cells, one candidate's cells),
//! committing completed work and reporting the remainder so the caller can
//! resume it next epoch. The unbudgeted `add_queries` and
//! `add_candidates` are the same bodies under [`WorkBudget::unlimited`].
//!
//! Time is read through an injectable [`Clock`] so tests drive expiry
//! deterministically with a [`ManualClock`]; production uses the
//! monotonic [`SystemClock`]. In tests a [`WorkBudget`] can instead
//! carry a shared unit counter, an exact, clock-free way to cancel after
//! N units.
//!
//! [`CostMatrix::add_queries_budgeted`]: crate::CostMatrix::add_queries_budgeted
//! [`CostMatrix::add_candidates_budgeted`]: crate::CostMatrix::add_candidates_budgeted

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic time source, injectable so deadline behavior is
/// deterministic under test.
pub trait Clock: Send + Sync {
    /// Nanoseconds elapsed since an arbitrary fixed origin.
    fn now_nanos(&self) -> u64;
}

/// The production clock: wall-progress via [`Instant`], origin at
/// construction.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    pub fn new() -> Self {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A test clock that only moves when told to. Shared freely across
/// threads; `advance` uses a single atomic add, so concurrent workers
/// observe a consistent monotonic time.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    pub fn new() -> Self {
        ManualClock {
            nanos: AtomicU64::new(0),
        }
    }

    /// Move time forward by `d`.
    pub fn advance(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }
}

/// A point on a [`Clock`] after which work should stop. Cheap to clone
/// and check; workers poll [`Deadline::expired`] between work units.
#[derive(Clone)]
pub struct Deadline {
    clock: Arc<dyn Clock>,
    at_nanos: u64,
}

impl Deadline {
    /// A deadline `after` from now on `clock`.
    pub fn after(clock: Arc<dyn Clock>, after: Duration) -> Self {
        let at_nanos = clock.now_nanos().saturating_add(after.as_nanos() as u64);
        Deadline { clock, at_nanos }
    }

    /// Has the deadline passed?
    pub fn expired(&self) -> bool {
        self.clock.now_nanos() >= self.at_nanos
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        Duration::from_nanos(self.at_nanos.saturating_sub(self.clock.now_nanos()))
    }
}

impl std::fmt::Debug for Deadline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deadline")
            .field("at_nanos", &self.at_nanos)
            .field("expired", &self.expired())
            .finish()
    }
}

/// A cancellation token threaded through budgeted mutation paths.
///
/// Carries an optional [`Deadline`] and an optional shared unit counter;
/// the budget is exhausted when either trips. [`WorkBudget::unlimited`]
/// never exhausts, so unbudgeted callers pay only a branch.
///
/// The unit counter is shared (`Arc<AtomicU64>`): parallel workers
/// consuming from the same budget drain one pool, which is exactly the
/// semantics an epoch-wide budget needs.
#[derive(Clone, Debug, Default)]
pub struct WorkBudget {
    deadline: Option<Deadline>,
    units: Option<Arc<AtomicU64>>,
}

impl WorkBudget {
    /// A budget that never exhausts.
    pub fn unlimited() -> Self {
        WorkBudget {
            deadline: None,
            units: None,
        }
    }

    /// A budget that exhausts when `deadline` passes.
    pub fn with_deadline(deadline: Deadline) -> Self {
        WorkBudget {
            deadline: Some(deadline),
            units: None,
        }
    }

    /// A budget of exactly `units` work units (deterministic, clock-free).
    #[cfg(test)]
    pub(crate) fn with_units(units: u64) -> Self {
        WorkBudget {
            deadline: None,
            units: Some(Arc::new(AtomicU64::new(units))),
        }
    }

    /// Does the budget carry a deadline (so work must commit unit by
    /// unit, each before the next is paid for)?
    pub(crate) fn has_deadline(&self) -> bool {
        self.deadline.is_some()
    }

    /// Is the budget spent? (Deadline passed, or unit pool empty.)
    pub fn exhausted(&self) -> bool {
        if let Some(d) = &self.deadline {
            if d.expired() {
                return true;
            }
        }
        if let Some(u) = &self.units {
            if u.load(Ordering::Relaxed) == 0 {
                return true;
            }
        }
        false
    }

    /// Try to pay for one work unit. Returns `false` — without consuming
    /// anything — once the budget is exhausted; work already paid for
    /// stays paid (completed units are always committed).
    pub fn try_consume(&self) -> bool {
        if let Some(d) = &self.deadline {
            if d.expired() {
                return false;
            }
        }
        if let Some(u) = &self.units {
            // Claim a unit atomically; racing workers each get at most
            // what is in the pool.
            return u
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let b = WorkBudget::unlimited();
        for _ in 0..10_000 {
            assert!(b.try_consume());
        }
        assert!(!b.exhausted());
    }

    #[test]
    fn unit_budget_is_exact() {
        let b = WorkBudget::with_units(3);
        assert!(b.try_consume());
        assert!(b.try_consume());
        assert!(b.try_consume());
        assert!(!b.try_consume());
        assert!(b.exhausted());
    }

    #[test]
    fn manual_clock_drives_deadline() {
        let clock = Arc::new(ManualClock::new());
        let d = Deadline::after(clock.clone() as Arc<dyn Clock>, Duration::from_millis(5));
        let b = WorkBudget::with_deadline(d.clone());
        assert!(!d.expired());
        assert!(b.try_consume());
        clock.advance(Duration::from_millis(4));
        assert!(!b.exhausted());
        clock.advance(Duration::from_millis(1));
        assert!(d.expired());
        assert!(!b.try_consume());
        assert!(b.exhausted());
        assert_eq!(d.remaining(), Duration::ZERO);
    }

    #[test]
    fn shared_unit_pool_drains_across_clones() {
        let b = WorkBudget::with_units(5);
        let b2 = b.clone();
        assert!(b.try_consume());
        assert!(b2.try_consume());
        assert!(b.try_consume());
        assert!(b2.try_consume());
        assert!(b.try_consume());
        assert!(!b2.try_consume());
    }

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }
}
