//! Lock-free reader snapshots of the cost matrix.
//!
//! A [`crate::CostMatrix`] is `&mut`-exclusive: one writer (COLT, an
//! advisor, a session driver) mutates candidates and queries in place. The
//! what-if *serving* story needs the opposite shape — many readers costing
//! configurations concurrently while the writer keeps rotating epochs. The
//! split here follows the classic read-copy-update idiom:
//!
//! - [`MatrixSnapshot`] is an immutable, self-contained copy of the
//!   matrix's cells and registries (no borrow of the owning
//!   [`crate::Inum`]), tagged with a strictly monotonic publication
//!   generation. It dereferences to the [`MatrixCore`] it carries, where
//!   every read method of the matrix is defined.
//! - [`PublishSlot`] is the shared mailbox: the writer swaps in a fresh
//!   `Arc<MatrixSnapshot>` under a (vendored `parking_lot`) write lock —
//!   writer-side only; readers never touch the lock on the lookup path.
//! - [`MatrixReader`] is a cheap `Clone + Send + Sync` handle pinning one
//!   generation. Lookups are pure arithmetic over the pinned cells —
//!   zero optimizer calls, zero locks, zero allocation — and stay
//!   consistent (same generation) for as long as the handle is held.
//!   [`MatrixReader::is_stale`] is a single atomic load;
//!   [`MatrixReader::refresh`] re-pins the latest generation.
//!
//! Publication clones the writer's [`MatrixCore`]. The cells are
//! copy-on-write at the mutation sites: per-query cell blocks, fragments
//! and split fraction tables are `Arc`-shared between the writer and its
//! snapshots, so [`crate::CostMatrix::publish`] clones one `Arc` per
//! query slot, fragment and split for them. Everything else is deep-copied
//! on every publish: the workload mirror (every slot's query and
//! weight), the candidate registry and its dedupe map (every live
//! index), the fragment dedupe map and per-table fragment lists, and the
//! free lists. A publish therefore costs time linear in the number of
//! slots, candidates and fragments, not in the number of cells.

use crate::matrix::{LookupCounters, MatrixCore};
use parking_lot::RwLock;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The writer→readers mailbox: holds the current published snapshot and
/// its generation. The lock guards *publication only*; readers acquire it
/// just to pin a snapshot (`Arc` clone, nanoseconds) and never on lookups.
pub(crate) struct PublishSlot {
    current: RwLock<Arc<MatrixSnapshot>>,
    /// Generation of the snapshot in `current`, readable without the
    /// lock — this is what makes [`MatrixReader::is_stale`] one atomic
    /// load.
    published: AtomicU64,
    /// Lookup counters shared by every snapshot published through this
    /// slot — the reader side's block, stamped onto each published core.
    counters: Arc<LookupCounters>,
}

impl PublishSlot {
    /// A new slot with `core` published as `generation`, so readers
    /// acquired before the first explicit publish still see a complete
    /// matrix: 0 for a fresh build, the durable snapshot's generation for
    /// a warm restore ([`crate::matrix::persist`]), so publication
    /// numbering continues where it left off.
    pub(crate) fn new_at(core: MatrixCore, generation: u64) -> Self {
        let counters = Arc::new(LookupCounters::default());
        PublishSlot {
            current: RwLock::new(Self::snapshot(core, generation, &counters)),
            published: AtomicU64::new(generation),
            counters,
        }
    }

    /// `core` as a published generation counting on the reader block.
    fn snapshot(
        mut core: MatrixCore,
        generation: u64,
        counters: &Arc<LookupCounters>,
    ) -> Arc<MatrixSnapshot> {
        core.counters = Arc::clone(counters);
        Arc::new(MatrixSnapshot { core, generation })
    }

    /// Publish `core` as the next generation and return it. Existing
    /// pinned snapshots are untouched — they keep serving their
    /// generation until the last handle drops.
    pub(crate) fn publish(&self, core: MatrixCore) -> u64 {
        let mut guard = self.current.write();
        let generation = self.published.load(Ordering::Relaxed) + 1;
        *guard = Self::snapshot(core, generation, &self.counters);
        // Release-publish the generation *after* the swap so a reader that
        // observes generation g through `published` finds (at least) g in
        // `current`.
        self.published.store(generation, Ordering::Release);
        generation
    }

    /// Generation of the latest published snapshot (single atomic load).
    pub(crate) fn published(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// Pin the latest published snapshot.
    pub(crate) fn current(&self) -> Arc<MatrixSnapshot> {
        Arc::clone(&self.current.read())
    }

    /// Total configuration-cost lookups served by snapshot readers.
    pub(crate) fn reader_lookups(&self) -> u64 {
        self.counters.lookups.load(Ordering::Relaxed)
    }
}

/// An immutable, published generation of the cost matrix.
///
/// Dereferences to its [`MatrixCore`], so every *read* method — `cost`,
/// `cost_plus`, `joint_cost`, registries — is served from owned cells with no
/// lock and no [`crate::Inum`] borrow, and the snapshot is freely
/// `Send + Sync` across threads. Obtained via [`crate::CostMatrix::reader`]
/// (or a `TuningSession`'s reader) and normally accessed through the
/// [`MatrixReader`] handle's `Deref`.
pub struct MatrixSnapshot {
    core: MatrixCore,
    generation: u64,
}

impl MatrixSnapshot {
    /// The publication generation of this snapshot: 0 for the build-time
    /// snapshot, then +1 per [`crate::CostMatrix::publish`]. Strictly
    /// monotonic across publishes of one matrix, and distinct from the
    /// writer's rotation generation at publish time
    /// ([`MatrixCore::rotation_generation`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

impl Deref for MatrixSnapshot {
    type Target = MatrixCore;
    fn deref(&self) -> &MatrixCore {
        &self.core
    }
}

/// A cheap, cloneable handle on a published [`MatrixSnapshot`].
///
/// Dereferences to the pinned snapshot, so every read method is available
/// directly (`reader.cost(..)`, `reader.joint_cost(..)`). The pinned
/// generation never changes under the handle — clone-then-rotate keeps
/// the clone on the old generation — which is what makes concurrent
/// lookups consistent. Check [`Self::is_stale`] (one atomic load) and call
/// [`Self::refresh`] at whatever staleness budget the caller tolerates.
#[derive(Clone)]
pub struct MatrixReader {
    snapshot: Arc<MatrixSnapshot>,
    slot: Arc<PublishSlot>,
}

impl MatrixReader {
    pub(crate) fn new(snapshot: Arc<MatrixSnapshot>, slot: Arc<PublishSlot>) -> Self {
        MatrixReader { snapshot, slot }
    }

    /// The pinned snapshot (also reachable through `Deref`).
    pub fn snapshot(&self) -> &MatrixSnapshot {
        &self.snapshot
    }

    /// Whether the writer has published a newer generation than the one
    /// pinned here. One atomic load — safe to call per lookup.
    pub fn is_stale(&self) -> bool {
        self.slot.published() != self.snapshot.generation
    }

    /// Re-pin the latest published generation; returns the generation now
    /// pinned. Takes the publish lock briefly (an `Arc` clone) — never on
    /// the lookup path.
    pub fn refresh(&mut self) -> u64 {
        self.snapshot = self.slot.current();
        self.snapshot.generation
    }
}

impl Deref for MatrixReader {
    type Target = MatrixSnapshot;
    fn deref(&self) -> &MatrixSnapshot {
        &self.snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CostMatrix;
    use crate::Inum;
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
    use pgdesign_optimizer::Optimizer;
    use pgdesign_query::generators::sdss_workload;

    // The whole point of the split: snapshots and readers cross threads,
    // and the one read type borrows nothing.
    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_static<T: 'static>() {}
    fn assert_clone<T: Clone>() {}

    #[test]
    fn snapshot_and_reader_are_send_sync() {
        assert_send_sync::<MatrixSnapshot>();
        assert_send_sync::<MatrixReader>();
        assert_send_sync::<PublishSlot>();
        assert_send_sync::<MatrixCore>();
        assert_static::<MatrixCore>();
        assert_send_sync::<Inum<'_>>();
        assert_clone::<Inum<'_>>();
    }

    #[test]
    fn published_generation_is_immutable_and_monotonic() {
        let catalog = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&catalog, &opt);
        let w = sdss_workload(&catalog, 6, 77);
        let cands = workload_candidates(&catalog, &w, &CandidateConfig::default());
        let mut matrix = CostMatrix::build(&inum, &w, &cands.indexes);

        let gen0 = matrix.reader();
        assert_eq!(gen0.generation(), 0, "build publishes generation 0");
        let config = gen0.config_of(0..cands.indexes.len().min(4));
        let baseline: Vec<f64> = (0..gen0.n_queries())
            .map(|qi| gen0.cost(qi, &config))
            .collect();

        // Clone *before* rotation: both handles pin the old generation.
        let cloned = gen0.clone();

        // Writer mutates and publishes twice; generations must move
        // strictly forward.
        let extra = sdss_workload(&catalog, 2, 501);
        matrix.add_queries(extra.iter());
        let g1 = matrix.publish();
        matrix.set_query_weight(0, 42.0);
        let g2 = matrix.publish();
        assert!(g1 >= 1 && g2 > g1, "publish generations strictly increase");
        assert_eq!(matrix.published_generation(), g2);

        // Old handles: same generation, same cells, bit-for-bit.
        for handle in [&gen0, &cloned] {
            assert_eq!(handle.generation(), 0);
            assert!(handle.is_stale());
            assert_eq!(handle.n_queries(), baseline.len());
            for (qi, &c) in baseline.iter().enumerate() {
                assert_eq!(handle.cost(qi, &config), c, "generation 0 cells moved");
            }
        }

        // Refresh re-pins the latest generation and sees the new weight.
        let mut fresh = cloned;
        assert_eq!(fresh.refresh(), g2);
        assert!(!fresh.is_stale());
        assert_eq!(fresh.query_weight(0), 42.0);
        assert_eq!(gen0.query_weight(0), w.entries[0].weight);
    }

    #[test]
    fn reader_lookups_do_not_touch_the_inum() {
        let catalog = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&catalog, &opt);
        let w = sdss_workload(&catalog, 5, 99);
        let cands = workload_candidates(&catalog, &w, &CandidateConfig::default());
        let matrix = CostMatrix::build(&inum, &w, &cands.indexes);

        let reader = matrix.reader();
        let before = inum.stats();
        let before_matrix = inum.matrix_stats();
        let cfg = reader.config_of([0]);
        let mut acc = 0.0;
        for qi in 0..reader.n_queries() {
            acc += reader.cost(qi, &cfg);
            acc += reader.joint_cost(qi, &reader.empty_joint());
        }
        assert!(acc.is_finite());
        // The reader hot path is pinned at zero optimizer/Inum traffic:
        // snapshot lookups count on the shared reader counters instead.
        assert_eq!(inum.stats(), before);
        assert_eq!(inum.matrix_stats().lookups, before_matrix.lookups);
        assert_eq!(matrix.reader_lookups(), 2 * reader.n_queries() as u64);
    }
}
