//! # pgdesign-inum
//!
//! INUM — the cache-based cost model (Papadomanolakis, Dash, Ailamaki,
//! VLDB 2007) the paper extends "to cache table partitions and partial
//! plans to further increase the efficiency of the selection tool by
//! orders of magnitude" (§1).
//!
//! ## How it works
//!
//! The key observation: for a fixed combination of *interesting orders*
//! delivered by the per-table accesses, the optimal join/sort/aggregation
//! super-structure of a plan — and therefore its *internal cost* — does not
//! depend on which physical structures deliver the rows. Cardinalities are
//! design-independent, so the internal cost can be computed once per order
//! combination (a [`Skeleton`](pgdesign_optimizer::Skeleton)) and reused
//! for every candidate configuration:
//!
//! ```text
//! cost(q, D) = min over order combinations o of
//!              internal(q, o) + Σ_slots access_cost(slot, o[slot], D)
//! ```
//!
//! Re-costing a query under a new design then touches no join enumeration
//! at all — just one access-path costing per table slot. That is the
//! orders-of-magnitude speedup CoPhy leans on when it evaluates thousands
//! of candidate configurations (the benchmark's `bench-trace` reports
//! `optimizer.exact_cost_us`, `inum.cost_us` and `inum.lookup_ns`).
//!
//! ## The two-level cache
//!
//! The crate caches at two levels:
//!
//! 1. **Skeleton cache** ([`Inum`]): one optimizer consultation per
//!    interesting-order combination per query; [`Inum::cost`] then costs
//!    *any* [`PhysicalDesign`](pgdesign_catalog::design::PhysicalDesign) —
//!    indexes, vertical or horizontal partitions — by enumerating access
//!    paths once per slot. This is the general-purpose slow-path oracle.
//!    Only the *undominated* skeletons are kept ([`Inum::skeletons`]): a
//!    skeleton with no higher internal cost that needs, slot by slot, no
//!    order or the same order as another makes the other redundant,
//!    because an unordered access minimum ranges over a superset of an
//!    ordered one's paths and IEEE addition is monotone — every served
//!    cost is the same float from fewer rows. A cached query is one
//!    allocation, a [`SkeletonSet`]. [`Inum::prepare_workload`]
//!    plans a workload's distinct uncached queries — in parallel when
//!    there is enough to plan — and caches them in input order, so the
//!    cache and its counters do not depend on the thread count.
//! 2. **Cost matrix** ([`CostMatrix`]): for a fixed workload and candidate
//!    *index* set, the per-candidate access cost under every skeleton
//!    order is precomputed once, so costing a configuration
//!    (a [`CandidateBitset`]) is
//!
//!    ```text
//!    cost(q, C) = min over skeletons k of
//!                 internal(k) + Σ_slots min(base(slot, o_k),
//!                                           min_{c ∈ C} access(c, slot, o_k))
//!    ```
//!
//!    — pure additions and `min`s over precomputed floats, with zero
//!    allocation and no design construction. The enumeration-heavy
//!    advisors (CoPhy, greedy selection, COLT profiling, interaction
//!    analysis) run on this level; both levels agree exactly on index-only
//!    configurations, which the suite's invariant tests assert.
//!
//! The matrix is **incrementally maintainable and parallel-built**, not a
//! build-once artifact: [`CostMatrix::add_candidate`] /
//! [`CostMatrix::remove_candidate`] edit the candidate set with stable ids
//! (existing [`CandidateBitset`]s stay valid; removed ids are recycled),
//! and [`CostMatrix::add_queries`] / [`CostMatrix::retire_query`] rotate
//! queries with cell reuse found by [`query_cell_key`] and confirmed by
//! comparing the queries — which is how COLT
//! holds one matrix across epochs and pays only for workload drift, and
//! how CoPhy registers its merge-generated candidates without a rebuild.
//! Cold builds, [`CostMatrix::add_candidates`] and the bulk of
//! [`CostMatrix::add_queries`] distribute queries over workers and are
//! bit-identical to serial builds, since every cell depends on nothing
//! but its own query. The suite proptests random add/remove/retire
//! interleavings against fresh builds and pins serial-vs-parallel
//! equality.
//!
//! Every parallel region — those and the warm-up — is **sized by its
//! work**. It counts its serial work in cells (one access-path costing,
//! 250–450 ns; planning an order combination is worth 11) and runs on
//! the calling thread plus one spawned worker per full 2,048 cells
//! (~1 ms), at most [`build_threads`] in all. `PGDESIGN_THREADS` is that
//! cap, read once per process (default: the machine's available
//! parallelism). An online epoch close, an interactive toggle or a
//! dozen-query recommend spawns no thread: starting one costs more than
//! the work it would take over.
//!
//! The matrix also serves **concurrent readers**: [`CostMatrix::publish`]
//! snapshots the writer's state as an immutable [`MatrixSnapshot`] behind
//! an `Arc`, and any number of [`MatrixReader`] handles
//! ([`CostMatrix::reader`]) cost configurations lock-free against a pinned
//! generation while the writer keeps mutating — the reader hot path
//! touches no lock and no optimizer. Every read method is defined once, on
//! [`MatrixCore`], the owned payload both sides carry: [`CostMatrix`] and
//! [`MatrixSnapshot`] dereference to it, so analysis code that takes a
//! `&MatrixCore` reads the live matrix or a pinned snapshot alike, and a
//! lookup is counted where it is served — on the writer's [`Inum`]
//! ([`Inum::matrix_stats`]) or on the readers' side
//! ([`CostMatrix::reader_lookups`]), never both.
//!
//! The *partition extension* mentioned by the paper lives at **both**
//! levels. At the first level, access costing consults the design's
//! vertical/horizontal partitionings, so cached skeletons serve
//! partitioned configurations through [`Inum::cost`]. At the second
//! level, a [`CostMatrix`] additionally accepts *partition candidates*:
//! vertical fragments ([`CostMatrix::register_fragment`], selected via a
//! [`FragmentBitset`]) carry a precomputed page count, horizontal splits
//! ([`CostMatrix::register_split`], a [`SplitBitset`]) carry precomputed
//! per-(query, slot) surviving fractions, and every candidate index's
//! access paths are kept in target-parameterized form
//! ([`pgdesign_optimizer::access::PathCost`]). Costing a
//! [`JointConfig`] (indexes + fragments + splits) then needs only
//! per-slot arithmetic — no path re-enumeration, no design construction —
//! and [`JointToggle`]-based trial evaluation
//! ([`MatrixCore::joint_workload_cost_with`] /
//! [`MatrixCore::delta_split`]) is what AutoPart's greedy merge search
//! runs on.
//!
//! Every partition-aware lookup reads one path. A configuration plus a
//! toggle is resolved once per costing ([`MatrixCore::resolve_joint`])
//! into a [`ResolvedJoint`]: per table, the selected fragments (in column
//! order when they overlap, the order the replication-aware set cover
//! breaks ties in), whether they are disjoint, and the selected split.
//! Each slot then reads its table's entry without scanning the
//! configuration or allocating ([`MatrixCore::joint_cost_resolved`]).
//! `joint_cost{,_with}`, `joint_workload_cost{,_with}` and the `delta_*`
//! family resolve once per call; callers costing many queries against one
//! configuration resolve it themselves (or use
//! [`MatrixCore::joint_cost_pairs`]). Fragment registration is deduped by
//! `(table, column mask)` in O(1).
//!
//! Nested-loop joins are excluded from the INUM space (their inner cost is
//! design-dependent), as in the original paper; [`Inum::cost`] is therefore
//! an upper bound on the full optimizer's cost, tight whenever the best
//! plan is hash/merge-based.

#![forbid(unsafe_code)]

mod budget;
mod inum;
mod key;
mod matrix;
mod parallel;
mod skeleton_set;
mod snapshot;
mod wire;

pub use budget::{Clock, Deadline, ManualClock, SystemClock, WorkBudget};
pub use inum::{interesting_orders_per_slot, order_combinations, Inum, InumStats};
pub use key::query_key as query_cell_key;
pub use matrix::persist::{
    decode_edit, decode_snapshot, encode_edit, encode_published, restore_matrix, DecodedSnapshot,
    MatrixEdit, PersistError, RestoreReport,
};
pub use matrix::{
    CandidateBitset, CostMatrix, FragmentBitset, JointConfig, JointToggle, MatrixCore, MatrixStats,
    ResolvedJoint, SplitBitset,
};
pub use parallel::build_threads;
#[doc(hidden)]
pub use parallel::spawned_workers;
pub use pgdesign_durability::{ByteReader, ByteWriter, CodecError};
pub use skeleton_set::SkeletonSet;
pub use snapshot::{MatrixReader, MatrixSnapshot};
pub use wire::Wire;
