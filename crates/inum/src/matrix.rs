//! The precomputed access-cost matrix — the second level of INUM's
//! two-level cache.
//!
//! [`crate::Inum::cost`] already amortizes the optimizer's join/sort
//! planning across designs via the skeleton cache, but it still enumerates
//! and costs access paths for *every* `(design, query)` call. The
//! enumeration-heavy advisors (CoPhy's atomic configurations, greedy
//! selection, COLT's epoch profiling, the `2^k`-subset
//! degree-of-interaction sweep) issue thousands of such calls against
//! configurations drawn from one fixed candidate set — so the per-slot,
//! per-candidate access costs can be precomputed once and every
//! configuration cost becomes additions and `min`s over floats:
//!
//! ```text
//! cost(q, C) = min over skeletons k of
//!              internal(k) + Σ_slots min( base(slot, order_k),
//!                                         min_{c ∈ C on slot's table}
//!                                             access(c, slot, order_k) )
//! ```
//!
//! A configuration `C` is a [`CandidateBitset`] over candidate ids;
//! [`MatrixCore::cost`] walks precomputed vectors with zero allocation, no
//! [`PhysicalDesign`] construction and no access-path re-enumeration, and
//! agrees with [`crate::Inum::cost`] exactly (the suite's invariant tests
//! assert this within 1e-6). [`MatrixCore::delta_add`] /
//! [`MatrixCore::delta_remove`] evaluate the cost change of toggling one
//! candidate without materializing the toggled configuration.
//!
//! The matrix additionally serves **concurrent readers**: all cells and
//! registries — and every read method — live in an owned [`MatrixCore`]
//! payload with no borrow of the owning [`Inum`], so the writer-side
//! [`CostMatrix`] can [`CostMatrix::publish`] its state as an
//! immutable [`crate::MatrixSnapshot`] behind an `Arc`. Any number of
//! [`crate::MatrixReader`] handles then cost configurations lock-free
//! against a consistent generation while the writer keeps mutating; query
//! and split payloads are `Arc`-shared between the writer and its
//! snapshots (copy-on-write at the mutation sites), so a publish pays for
//! the epoch's drift, not for the matrix size.

use crate::budget::WorkBudget;
use crate::inum::Inum;
use crate::key::query_key;
use crate::parallel::{fan_out, Workers};
use crate::snapshot::{MatrixReader, PublishSlot};
use pgdesign_catalog::design::{
    HorizontalPartitioning, Index, PhysicalDesign, VerticalPartitioning,
};
use pgdesign_catalog::schema::TableId;
use pgdesign_catalog::sizing;
use pgdesign_optimizer::access::{self, AccessContext, FetchTarget, IndexPathProfile, SlotProfile};
use pgdesign_optimizer::plan::order_satisfies;
use pgdesign_optimizer::CostParams;
use pgdesign_query::ast::{Query, QueryColumn};
use pgdesign_query::Workload;
use std::collections::{HashMap, HashSet};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Durable snapshot/edit-log codec for the matrix. A child module so it
/// can encode the private cell structures directly; the storage framing
/// (CRC, magic headers, stores) lives in `pgdesign-durability`.
#[path = "persist.rs"]
pub mod persist;

use persist::MatrixEdit;

/// Counters for the matrix layer, aggregated on the owning [`Inum`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MatrixStats {
    /// Matrices built from scratch ([`CostMatrix::build`]).
    pub builds: u64,
    /// Precomputed cost cells (one per `(query, slot)` base entry and one
    /// per `(query, slot, candidate)` entry) — the build work, each
    /// roughly one access-path costing. Includes cells computed by the
    /// incremental paths ([`CostMatrix::add_candidate`] /
    /// [`CostMatrix::add_query`]).
    pub cells: u64,
    /// Cells an incremental update *reused* instead of recomputing: when
    /// [`CostMatrix::add_query`] recognises a query already resident (an
    /// equal query) or [`CostMatrix::add_candidate`] an index already
    /// registered, the cells a fresh build would have recomputed for it
    /// count here.
    pub cells_reused: u64,
    /// Wall-clock nanoseconds spent building matrices and applying
    /// incremental updates (cold builds + add/remove work).
    pub build_nanos: u64,
    /// Configuration-cost lookups served from matrices (joint
    /// index+partition lookups included).
    pub lookups: u64,
    /// Precomputed partition cells: per-fragment page counts and
    /// per-`(query, slot, split)` surviving fractions registered on
    /// matrices.
    pub partition_cells: u64,
    /// The subset of `lookups` that costed a configuration with at least
    /// one partition candidate active (the partition-aware cache level).
    pub partition_lookups: u64,
}

impl MatrixStats {
    /// Estimated what-if optimizer calls avoided: every lookup replaces a
    /// per-design cost call, minus the one-off costing work spent filling
    /// the matrix.
    pub fn whatif_calls_avoided(&self) -> u64 {
        self.lookups
            .saturating_sub(self.cells.saturating_add(self.partition_cells))
    }
}

/// A set of candidate ids (positions into the candidate list a
/// [`CostMatrix`] was built over), stored as a bitset so membership tests
/// in the costing hot loop are a single shift-and-mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateBitset {
    words: Vec<u64>,
}

impl CandidateBitset {
    /// Empty set with capacity for `n_candidates` ids.
    pub fn new(n_candidates: usize) -> Self {
        CandidateBitset {
            words: vec![0; n_candidates.div_ceil(64).max(1)],
        }
    }

    /// Empty set with capacity for `n_candidates` ids, filled with `ids`.
    pub fn from_ids<I: IntoIterator<Item = usize>>(n_candidates: usize, ids: I) -> Self {
        let mut s = Self::new(n_candidates);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// Add a candidate (the set grows as needed, so ids allocated after
    /// the set was created — e.g. fragments registered mid-search — can be
    /// inserted too).
    pub fn insert(&mut self, id: usize) {
        if id / 64 >= self.words.len() {
            self.words.resize(id / 64 + 1, 0);
        }
        self.words[id / 64] |= 1 << (id % 64);
    }

    /// Remove a candidate (out-of-range ids are simply absent).
    pub fn remove(&mut self, id: usize) {
        if let Some(w) = self.words.get_mut(id / 64) {
            *w &= !(1 << (id % 64));
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        self.words
            .get(id / 64)
            .is_some_and(|w| w & (1 << (id % 64)) != 0)
    }

    /// Remove every candidate.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of candidates in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no candidate is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The contained candidate ids, ascending (O(set bits), not O(capacity)).
    pub fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rem = w;
            std::iter::from_fn(move || {
                if rem == 0 {
                    None
                } else {
                    let b = rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

/// Generate a distinct bitset newtype per candidate-id space, so fragment
/// ids, split ids and index-candidate ids cannot be mixed up in advisor
/// code.
macro_rules! id_bitset {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct $name(CandidateBitset);

        impl $name {
            /// Empty set with capacity for `n` ids (grows on demand).
            pub fn new(n: usize) -> Self {
                $name(CandidateBitset::new(n))
            }

            /// Empty set filled with `ids`.
            pub fn from_ids<I: IntoIterator<Item = usize>>(n: usize, ids: I) -> Self {
                $name(CandidateBitset::from_ids(n, ids))
            }

            /// Add an id.
            pub fn insert(&mut self, id: usize) {
                self.0.insert(id);
            }

            /// Remove an id.
            pub fn remove(&mut self, id: usize) {
                self.0.remove(id);
            }

            /// Membership test.
            #[inline]
            pub fn contains(&self, id: usize) -> bool {
                self.0.contains(id)
            }

            /// Remove every id.
            pub fn clear(&mut self) {
                self.0.clear();
            }

            /// Number of ids in the set.
            pub fn len(&self) -> usize {
                self.0.len()
            }

            /// True when no id is set.
            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }

            /// The contained ids, ascending.
            pub fn ids(&self) -> impl Iterator<Item = usize> + '_ {
                self.0.ids()
            }
        }
    };
}

id_bitset! {
    /// A set of vertical-fragment candidate ids (positions into the
    /// fragment registry of the [`CostMatrix`] they belong to). Per table,
    /// the selected fragments *are* that table's vertical partitioning.
    FragmentBitset
}

id_bitset! {
    /// A set of horizontal-split candidate ids (positions into the split
    /// registry of the owning [`CostMatrix`]); at most one split per table
    /// may be selected.
    SplitBitset
}

/// Sentinel for "no order required" in the flattened skeleton requirements.
const NO_ORDER: u32 = u32::MAX;

/// Cap on distinct required orders per slot (asserted at build time; real
/// queries have a handful — one per join/grouping/ordering column).
const MAX_SLOT_ORDERS: usize = 16;

/// Stack capacity for per-slot partition state in a joint lookup (spills
/// to a heap Vec for queries joining more tables).
const MAX_STACK_SLOTS: usize = 8;

/// Partition-adjusted per-slot access minima — one joint lookup's scratch.
#[derive(Clone, Copy)]
struct PartSlotMins {
    /// Cheapest access ignoring order.
    unordered: f64,
    /// Cheapest access per required order.
    ordered: [f64; MAX_SLOT_ORDERS],
}

/// `[None; N]` seed for the stack buffer.
const NO_PART_STATE: Option<PartSlotMins> = None;

/// Column-ordinal membership mask (tables are capped at 128 columns).
fn column_mask(cols: &[u16]) -> u128 {
    cols.iter().fold(0u128, |m, &c| {
        debug_assert!(c < 128, "column masks support up to 128 columns");
        m | (1u128 << c)
    })
}

/// A joint index + partition configuration over one matrix: selected
/// candidate indexes, selected vertical fragments (per table, the selected
/// fragments *are* that table's partitioning; no selection = table
/// unpartitioned), and at most one selected horizontal split per table.
#[derive(Debug, Clone, PartialEq)]
pub struct JointConfig {
    /// Selected candidate indexes.
    pub indexes: CandidateBitset,
    /// Selected vertical fragments.
    pub fragments: FragmentBitset,
    /// Selected horizontal splits (≤ 1 per table).
    pub splits: SplitBitset,
}

impl JointConfig {
    /// True when no partition candidate is selected (pure index config).
    pub fn partitions_empty(&self) -> bool {
        self.fragments.is_empty() && self.splits.is_empty()
    }
}

/// Virtual edits applied on top of a [`JointConfig`] for one costing — the
/// joint analogue of [`MatrixCore::cost_plus`]/[`MatrixCore::cost_minus`].
/// AutoPart's merge and split trials cost out through these without ever
/// materializing the edited configuration (or any `PhysicalDesign`). The
/// trial set is `(cfg ∖ removes) ∪ adds`: adding an id wins over removing
/// the same id, so a merge whose result equals one of its inputs (possible
/// once replication has made one group a subset of another) keeps that
/// fragment selected.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct JointToggle {
    /// Fragment to treat as selected.
    pub add_fragment: Option<usize>,
    /// Up to two fragments to treat as deselected (a merge removes two).
    pub remove_fragments: [Option<usize>; 2],
    /// Split to treat as selected.
    pub add_split: Option<usize>,
    /// Split to treat as deselected.
    pub remove_split: Option<usize>,
}

impl JointToggle {
    /// The merge trial: fragments `a` and `b` replaced by `merged`.
    pub fn merge(a: usize, b: usize, merged: usize) -> Self {
        JointToggle {
            add_fragment: Some(merged),
            remove_fragments: [Some(a), Some(b)],
            ..Default::default()
        }
    }

    /// The replacement trial: fragment `old` swapped for `new` (AutoPart's
    /// replication step extends one fragment in place).
    pub fn replace(old: usize, new: usize) -> Self {
        JointToggle {
            add_fragment: Some(new),
            remove_fragments: [Some(old), None],
            ..Default::default()
        }
    }

    /// The split trial: horizontal split `id` applied.
    pub fn split(id: usize) -> Self {
        JointToggle {
            add_split: Some(id),
            ..Default::default()
        }
    }

    pub(crate) fn is_noop(&self) -> bool {
        *self == JointToggle::default()
    }
}

/// A [`JointConfig`] with a [`JointToggle`] applied, resolved once for one
/// costing by [`MatrixCore::resolve_joint`]: per table, the selected
/// fragments, whether they are pairwise disjoint, and the selected split.
/// Every slot of every query costed against it
/// ([`MatrixCore::joint_cost_resolved`]) then reads its table's entry —
/// no scan of the configuration, no allocation. A resolution belongs to
/// the core that made it (fragment and split ids were looked up there) and
/// borrows the configuration's index set.
#[derive(Debug)]
pub struct ResolvedJoint<'c> {
    /// The selected candidate indexes.
    indexes: &'c CandidateBitset,
    /// Some partition candidate is in play — the configuration selects one
    /// or the toggle edits one — so each lookup counts as partition-aware.
    partitioned: bool,
    /// The selected fragments, grouped by table. A table's group is in
    /// column order when its fragments overlap — the order the greedy
    /// cover's tie-breaking follows — and in id order otherwise.
    frags: Vec<PartFrag>,
    /// Per table (`TableId.0`); empty when nothing is partitioned.
    tables: Vec<TableParts>,
}

/// One selected fragment of a [`ResolvedJoint`]: what a slot's fetch
/// target reads of it, copied out of the registry.
#[derive(Debug, Clone, Copy, Default)]
struct PartFrag {
    mask: u128,
    pages: u64,
    id: usize,
}

/// One table's entry of a [`ResolvedJoint`].
#[derive(Debug, Clone, Copy, Default)]
struct TableParts {
    /// `frags[start..end]` are the table's selected fragments.
    start: usize,
    end: usize,
    /// No column is in two of the selected fragments, so a slot's fetch
    /// target is every fragment meeting its needed columns.
    disjoint: bool,
    /// The selected split.
    split: Option<usize>,
}

/// One access path of a candidate index on a slot, kept in its
/// target-parameterized form so partitioned configurations can re-cost it
/// against any fetch target.
#[derive(Clone)]
struct CandPath {
    /// The partition-independent path skeleton.
    profile: IndexPathProfile,
    /// Bit `o` set when the path's native order satisfies required order
    /// `o` of the slot.
    order_ok: u64,
}

/// Precomputed access costs of one candidate index on one slot.
#[derive(Clone)]
struct CandCosts {
    /// Candidate id (position in the matrix's candidate list).
    id: usize,
    /// Cheapest path cost ignoring order (∞ when the index contributes no
    /// path for this slot) — under the *unpartitioned* fetch target.
    unordered: f64,
    /// Cheapest path cost delivering each distinct required order
    /// (∞ when no path of this candidate satisfies it) — under the
    /// unpartitioned fetch target.
    ordered: Vec<f64>,
    /// The paths behind the minima above, for partitioned re-costing.
    paths: Vec<CandPath>,
}

/// Per-slot cost row: the empty-design base plus per-candidate columns.
#[derive(Clone)]
struct SlotCosts {
    /// The slot's table.
    table: TableId,
    /// Needed-column membership mask (fragment touch tests).
    needed_mask: u128,
    /// Base-table rows (seq-scan re-costing input).
    base_rows: f64,
    /// Filter predicates on the slot (seq-scan re-costing input).
    n_filters: usize,
    /// Fetch target of the unpartitioned table.
    base_target: FetchTarget,
    /// Sequential-scan (base) cost, the only path under the empty design.
    base_unordered: f64,
    /// Base cost per required order (∞ unless the order is trivially
    /// satisfied, i.e. every required column is equality-bound).
    base_ordered: Vec<f64>,
    /// The distinct required orders of this slot (column lists), in the
    /// id order `base_ordered` / `CandCosts::ordered` use — kept so
    /// candidates added later cost their order satisfaction against the
    /// same ids.
    slot_orders: Vec<Vec<u16>>,
    /// Candidates on this slot's table that contribute at least one path.
    cands: Vec<CandCosts>,
}

/// Everything needed to cost one query against any candidate subset.
#[derive(Clone)]
struct QueryMatrix {
    /// Workload weight.
    weight: f64,
    /// Cell-identity key of the query ([`crate::key::query_cell_key`]) —
    /// how [`CostMatrix::add_query`] finds a resident candidate, which it
    /// then confirms by comparing the queries.
    key: u64,
    /// False once the query was rotated out ([`CostMatrix::retire_query`]);
    /// the slot is then free for reuse by a later [`CostMatrix::add_query`].
    active: bool,
    /// Internal (design-independent) cost per skeleton.
    internal: Vec<f64>,
    /// Per skeleton, per slot: required-order id or [`NO_ORDER`].
    reqs: Vec<Vec<u32>>,
    /// Per-slot cost rows.
    slots: Vec<SlotCosts>,
}

/// A registered vertical-fragment candidate.
#[derive(Clone)]
struct Fragment {
    /// Fragmented table.
    table: TableId,
    /// Normalised (sorted, deduped) column group.
    columns: Vec<u16>,
    /// Column membership mask.
    mask: u128,
    /// Heap pages of the fragment (8-byte stored row id included), exactly
    /// as the optimizer's fetch-target computation counts them.
    pages: u64,
}

/// A registered horizontal-split candidate.
#[derive(Clone)]
struct Split {
    /// The partitioning.
    hp: HorizontalPartitioning,
    /// Surviving fraction per `(query, slot)` (1.0 off-table).
    frac: Vec<Vec<f64>>,
}

/// The two lookup counters of one side of the reader/writer split. A
/// [`MatrixCore`] counts on the block it carries: the writer's core shares
/// the block its [`Inum`] reports through [`Inum::matrix_stats`], a
/// published core the block of its publish slot
/// ([`CostMatrix::reader_lookups`]). Increments are `Relaxed` — they are
/// statistics, not synchronization — so the lookup hot path stays
/// wait-free.
#[derive(Debug, Default)]
pub(crate) struct LookupCounters {
    pub(crate) lookups: AtomicU64,
    pub(crate) partition_lookups: AtomicU64,
}

/// The precomputed per-(query, candidate) access-cost matrix, extensible
/// with partition candidates (vertical fragments and horizontal splits)
/// for joint index+partition costing — the writer half of the
/// reader/writer split. Every read method lives on [`MatrixCore`], which
/// this type dereferences to; mutations go through the journaling methods
/// here (there is deliberately no `DerefMut`).
///
/// The matrix is *incrementally maintainable*: it owns its queries and
/// candidate list, so a long-lived consumer (COLT's epoch loop) holds one
/// matrix and rotates work in and out instead of rebuilding —
/// [`Self::add_candidate`] / [`Self::remove_candidate`] edit the candidate
/// set with **stable ids** (existing [`CandidateBitset`]s stay valid), and
/// [`Self::add_query`] / [`Self::retire_query`] rotate queries, reusing
/// resident cells when an equal query (found by its cell-identity key,
/// [`crate::key::query_cell_key`]) is already in the matrix. Cold builds
/// and the bulk part of [`Self::add_queries`] run on one worker per ~1 ms
/// of cell work, at most [`build_threads`](crate::build_threads); parallel
/// results are bit-identical to serial ones because cells are computed
/// independently per query and written to disjoint slots.
pub struct CostMatrix<'a> {
    /// A clone of the handle the matrix was built on (the slow-path
    /// oracle, and where build work is counted).
    inum: Inum<'a>,
    /// The owned cell payload — everything a lookup needs, with no borrow
    /// of the INUM instance, so snapshots of it can outlive `'a`.
    core: MatrixCore,
    /// The publication slot this matrix's snapshots rotate through; shared
    /// with every [`MatrixReader`] handed out by [`Self::reader`].
    slot: Arc<PublishSlot>,
    /// When `Some`, every mutation records a [`MatrixEdit`] here — the
    /// source of the durable edit log. `None` (the default) makes
    /// journaling free for non-durable sessions. Must be `None` while a
    /// log is being replayed, or the replay would re-record itself.
    journal: Option<Vec<MatrixEdit>>,
}

impl Deref for CostMatrix<'_> {
    type Target = MatrixCore;
    fn deref(&self) -> &MatrixCore {
        &self.core
    }
}

/// The owned payload of a cost matrix — cells, candidate registry,
/// partition registries and the query mirror — and **the** read API:
/// every configuration lookup is defined here, once, and reached through
/// `Deref` from the writer ([`CostMatrix`]), a published generation
/// ([`crate::MatrixSnapshot`]) and the reader handles on top of it.
/// Nothing is borrowed from the owning [`Inum`], so a core is
/// `Send + Sync + 'static`. Cloning is cheap relative to a rebuild:
/// per-query cell blocks and per-split fraction tables are behind `Arc`s
/// and shared with previous clones (copy-on-write at the writer's mutation
/// sites).
///
/// A published core is stale by contract, so a configuration may have been
/// built against a newer generation than the one costing it. Candidate,
/// fragment and split ids a core does not know are **unselected** — the
/// rule removed candidate ids follow — never an error.
#[derive(Clone)]
pub struct MatrixCore {
    /// Optimizer cost parameters (copied from the INUM's optimizer), so
    /// partition re-costing needs no `Inum` borrow.
    params: CostParams,
    /// Query mirror: entry `i` is query slot `i`'s query (entries of
    /// retired slots are stale until the slot is reused).
    workload: Workload,
    /// Candidate registry; `None` marks a removed id (reusable, never
    /// matched by lookups).
    indexes: Vec<Option<Index>>,
    /// Live candidate id per index — the O(1) dedupe behind
    /// [`Self::candidate_id`]/[`CostMatrix::add_candidate`] (first
    /// registration wins when `build` was handed duplicates).
    id_by_index: HashMap<Index, usize>,
    queries: Vec<Arc<QueryMatrix>>,
    /// Removed candidate ids available for reuse.
    free_candidates: Vec<usize>,
    /// Retired query slots available for reuse.
    free_queries: Vec<usize>,
    /// Bumped whenever the slot-id ↔ query binding changes (a retire or an
    /// install); weight edits and candidate edits do not count. Lets
    /// consumers cache per-slot derived values and revalidate in O(1).
    generation: u64,
    /// Registered vertical-fragment candidates (id = position; never
    /// mutated after registration, so clones share them plainly).
    fragments: Vec<Arc<Fragment>>,
    /// Registered horizontal-split candidates (id = position).
    splits: Vec<Arc<Split>>,
    /// Fragment ids per table (indexed by `TableId.0`), for
    /// `joint_design_of`; its length is the table count a
    /// [`ResolvedJoint`] spans.
    frags_by_table: Vec<Vec<usize>>,
    /// Fragment id per `(table, column mask)` — the O(1) dedupe behind
    /// [`CostMatrix::register_fragment`] (the first registration wins).
    frag_ids: HashMap<(TableId, u128), usize>,
    /// Where this core's lookups are counted: the writer's block, or —
    /// stamped on by [`PublishSlot::publish`] — the readers'.
    pub(crate) counters: Arc<LookupCounters>,
}

/// Compute one query's full matrix row set (skeleton requirements, base
/// cells, and one [`CandCosts`] per contributing candidate). Returns the
/// matrix and the number of cells costed. Pure per-query work — the unit
/// the parallel build distributes.
fn compute_query_matrix(
    inum: &Inum<'_>,
    key: u64,
    q: &Query,
    weight: f64,
    indexes: &[Option<Index>],
) -> (QueryMatrix, u64) {
    let catalog = inum.catalog();
    let params = &inum.optimizer().params;
    let empty = PhysicalDesign::empty();
    let mut cells = 0u64;
    let skeletons = inum.skeletons_keyed(key, q);
    let ctx = AccessContext {
        catalog,
        design: &empty,
        params,
        query: q,
    };
    let n_slots = q.slot_count() as usize;

    // Distinct required orders per slot across the skeleton set, and each
    // skeleton's order id per slot.
    let slot_orders = skeletons.orders();
    let reqs: Vec<Vec<u32>> = (0..skeletons.len())
        .map(|k| {
            (0..n_slots)
                .map(|s| skeletons.order_id(k, s).map_or(NO_ORDER, |id| id as u32))
                .collect()
        })
        .collect();
    let internal: Vec<f64> = (0..skeletons.len())
        .map(|k| skeletons.internal_cost(k))
        .collect();
    debug_assert!(
        internal.iter().all(|c| c.is_finite()),
        "skeleton internal costs must be finite"
    );

    let mut slots = Vec::with_capacity(n_slots);
    for slot in 0..q.slot_count() {
        let s = slot as usize;
        let prof = SlotProfile::build(&ctx, slot, &[]);
        let base_target = access::fetch_target(&ctx, slot, &prof.needed_cols);
        let seq_cost = access::seq_scan_cost(
            params,
            prof.base_rows,
            prof.n_filters,
            base_target,
            prof.h_frac,
        );
        cells += 1;
        let required: Vec<Vec<QueryColumn>> = slot_orders[s]
            .iter()
            .map(|o| o.iter().map(|&c| QueryColumn::new(slot, c)).collect())
            .collect();
        assert!(
            required.len() <= MAX_SLOT_ORDERS,
            "order-satisfaction masks support {MAX_SLOT_ORDERS} required orders per slot"
        );
        let base_ordered: Vec<f64> = required
            .iter()
            .map(|req| {
                if order_satisfies(&[], req, &prof.eq_bound) {
                    seq_cost
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let table = q.table_of(slot);
        let needed_mask = column_mask(&prof.needed_cols);
        let mut cands = Vec::new();
        for (id, idx) in indexes.iter().enumerate() {
            let Some(idx) = idx else { continue };
            if idx.table != table {
                continue;
            }
            if let Some(cc) =
                cost_candidate_on_slot(params, &ctx, &prof, &required, base_target, id, idx)
            {
                cands.push(cc);
            }
            cells += 1;
        }
        slots.push(SlotCosts {
            table,
            needed_mask,
            base_rows: prof.base_rows,
            n_filters: prof.n_filters,
            base_target,
            base_unordered: seq_cost,
            base_ordered,
            slot_orders: slot_orders[s].iter().map(|o| o.to_vec()).collect(),
            cands,
        });
    }
    (
        QueryMatrix {
            weight,
            key,
            active: true,
            internal,
            reqs,
            slots,
        },
        cells,
    )
}

/// Cost one candidate index on one slot: enumerate its path profiles under
/// `base_target` (the slot's unpartitioned fetch target) and reduce them
/// to the per-order minima. `None` when the index contributes no path on
/// the slot. Shared verbatim by the cold build and
/// [`CostMatrix::add_candidate`], so incremental cells are bit-identical
/// to freshly built ones.
fn cost_candidate_on_slot(
    params: &pgdesign_optimizer::CostParams,
    ctx: &AccessContext<'_>,
    prof: &SlotProfile,
    required: &[Vec<QueryColumn>],
    base_target: FetchTarget,
    id: usize,
    idx: &Index,
) -> Option<CandCosts> {
    let profiles = access::index_path_profiles(ctx, prof, idx, false);
    if profiles.is_empty() {
        return None; // contributes nothing on this slot
    }
    let paths: Vec<CandPath> = profiles
        .into_iter()
        .map(|profile| {
            let mut order_ok = 0u64;
            for (o, req) in required.iter().enumerate() {
                if order_satisfies(&profile.order, req, &prof.eq_bound) {
                    order_ok |= 1 << o;
                }
            }
            CandPath { profile, order_ok }
        })
        .collect();
    let costs: Vec<f64> = paths
        .iter()
        .map(|p| p.profile.cost(params, base_target))
        .collect();
    let unordered = costs.iter().copied().fold(f64::INFINITY, f64::min);
    let ordered: Vec<f64> = (0..required.len())
        .map(|o| {
            paths
                .iter()
                .zip(&costs)
                .filter(|(p, _)| p.order_ok & (1 << o) != 0)
                .map(|(_, &c)| c)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    Some(CandCosts {
        id,
        unordered,
        ordered,
        paths,
    })
}

/// Live entries per table, for sizing a region's work.
fn count_per_table(tables: impl Iterator<Item = TableId>) -> HashMap<TableId, usize> {
    let mut on: HashMap<TableId, usize> = HashMap::new();
    for table in tables {
        *on.entry(table).or_insert(0) += 1;
    }
    on
}

/// Compute query matrices for a batch of queries ([`fan_out`]), under a
/// [`WorkBudget`]: each worker pays for a query *before* computing it and
/// stops claiming units once the budget is exhausted — completed entries
/// come back `Some`, skipped ones `None`, aligned with the input.
/// Completed cells are never discarded (the budget is checked **between**
/// per-query cell units, never inside one), which is what lets a
/// deadline-cancelled batch commit its finished work and resume the
/// remainder later. The work is sized as a slot's base cell plus one cell
/// per live candidate on its table, plus the planning of queries the
/// skeleton cache does not hold yet.
fn compute_query_matrices(
    inum: &Inum<'_>,
    entries: &[(u64, &Query, f64)],
    indexes: &[Option<Index>],
    workers: Workers,
    budget: &WorkBudget,
) -> Vec<Option<(QueryMatrix, u64)>> {
    let workers = workers.count(|| {
        let on_table = count_per_table(indexes.iter().flatten().map(|i| i.table));
        let cells: usize = entries
            .iter()
            .flat_map(|&(_, q, _)| (0..q.slot_count()).map(|s| q.table_of(s)))
            .map(|table| 1 + on_table.get(&table).copied().unwrap_or(0))
            .sum();
        cells + inum.planning_work(entries.iter().map(|&(key, q, _)| (key, q)))
    });
    fan_out(entries, workers, |&(key, q, w)| {
        budget
            .try_consume()
            .then(|| compute_query_matrix(inum, key, q, w, indexes))
    })
}

/// Compute the new cells a candidate batch adds to each active query:
/// per query, the `(slot index, CandCosts)` pairs to append (in batch
/// order, so per-slot candidate order matches one-at-a-time registration)
/// plus the number of cells costed. The per-query unit the bulk
/// [`CostMatrix::add_candidates`] distributes over scoped workers — cells
/// are bit-identical to the serial path because each depends on nothing
/// but its own `(query, slot, candidate)` inputs. The work is one cell
/// per active slot and new candidate on its table.
fn compute_candidate_cells(
    inum: &Inum<'_>,
    core: &MatrixCore,
    active: &[usize],
    new: &[(usize, Index)],
    workers: Workers,
) -> Vec<(Vec<(usize, CandCosts)>, u64)> {
    let workers = workers.count(|| {
        let new_on = count_per_table(new.iter().map(|(_, idx)| idx.table));
        active
            .iter()
            .flat_map(|&qi| &core.queries[qi].slots)
            .map(|slot| new_on.get(&slot.table).copied().unwrap_or(0))
            .sum()
    });
    fan_out(active, workers, |&qi| {
        let q = &core.workload.entries[qi].query;
        let qm = &core.queries[qi];
        let catalog = inum.catalog();
        let params = &inum.optimizer().params;
        let empty = PhysicalDesign::empty();
        let ctx = AccessContext {
            catalog,
            design: &empty,
            params,
            query: q,
        };
        let mut out = Vec::new();
        let mut cells = 0u64;
        for (s, slot) in qm.slots.iter().enumerate() {
            if !new.iter().any(|(_, idx)| idx.table == slot.table) {
                continue;
            }
            let slot_u16 = s as u16;
            let prof = SlotProfile::build(&ctx, slot_u16, &[]);
            let required: Vec<Vec<QueryColumn>> = slot
                .slot_orders
                .iter()
                .map(|o| o.iter().map(|&c| QueryColumn::new(slot_u16, c)).collect())
                .collect();
            for (id, idx) in new {
                if idx.table != slot.table {
                    continue;
                }
                cells += 1;
                if let Some(cc) = cost_candidate_on_slot(
                    params,
                    &ctx,
                    &prof,
                    &required,
                    slot.base_target,
                    *id,
                    idx,
                ) {
                    out.push((s, cc));
                }
            }
        }
        (out, cells)
    })
}

impl<'a> CostMatrix<'a> {
    /// Build the matrix: for every query, fetch (or build) its cached
    /// skeletons, then cost the base access and each candidate index's
    /// access once per slot and distinct required order. Queries are
    /// distributed over one worker per ~1 ms of cell work, at most
    /// [`build_threads`](crate::build_threads); the result is
    /// bit-identical to a serial build. The matrix keeps a clone of the
    /// `inum` handle.
    pub fn build(inum: &Inum<'a>, workload: &Workload, indexes: &[Index]) -> Self {
        Self::build_with_workers(inum, workload, indexes, Workers::sized())
    }

    /// [`Self::build`] on exactly `threads` workers (1 = serial, at most
    /// one per query), whatever the work. The suite pins
    /// serial-vs-parallel equality through this entry.
    pub fn build_with_threads(
        inum: &Inum<'a>,
        workload: &Workload,
        indexes: &[Index],
        threads: usize,
    ) -> Self {
        Self::build_with_workers(inum, workload, indexes, Workers::Exactly(threads))
    }

    fn build_with_workers(
        inum: &Inum<'a>,
        workload: &Workload,
        indexes: &[Index],
        workers: Workers,
    ) -> Self {
        let t0 = Instant::now();
        let idx: Vec<Option<Index>> = indexes.iter().cloned().map(Some).collect();
        let entries: Vec<(u64, &Query, f64)> =
            workload.iter().map(|(q, w)| (query_key(q), q, w)).collect();
        let computed =
            compute_query_matrices(inum, &entries, &idx, workers, &WorkBudget::unlimited());
        let mut cells = 0u64;
        let mut queries = Vec::with_capacity(computed.len());
        for done in computed {
            let (qm, c) = done.expect("an unlimited budget admits every query");
            cells += c;
            queries.push(Arc::new(qm));
        }
        inum.note_matrix_build(cells, t0.elapsed().as_nanos() as u64);
        let n_tables = inum.catalog().schema.tables().count();
        let mut id_by_index = HashMap::with_capacity(idx.len());
        for (id, i) in idx.iter().enumerate() {
            if let Some(i) = i {
                id_by_index.entry(i.clone()).or_insert(id);
            }
        }
        let core = MatrixCore {
            params: inum.optimizer().params,
            workload: workload.clone(),
            indexes: idx,
            id_by_index,
            queries,
            free_candidates: Vec::new(),
            free_queries: Vec::new(),
            generation: 0,
            fragments: Vec::new(),
            splits: Vec::new(),
            frags_by_table: vec![Vec::new(); n_tables],
            frag_ids: HashMap::new(),
            counters: inum.lookup_counters(),
        };
        // Generation 0 is published at build time, so readers acquired
        // before the first explicit `publish` still see a complete matrix.
        Self::from_core(inum, core, 0)
    }

    /// Adopt an already-materialized core (counting on `inum`'s block),
    /// published as `generation` — the tail of [`Self::build`] and the
    /// durable-restore entry. Computes nothing and does **not** count as a
    /// matrix build in [`crate::MatrixStats`]: a restored core's cells were
    /// paid for in a previous process and arrive from disk.
    pub(crate) fn from_core(inum: &Inum<'a>, core: MatrixCore, generation: u64) -> Self {
        let slot = Arc::new(PublishSlot::new_at(core.clone(), generation));
        CostMatrix {
            inum: inum.clone(),
            core,
            slot,
            journal: None,
        }
    }

    // ---- Edit journaling (the durable edit-log source) ----

    /// Start recording mutations as [`MatrixEdit`]s (idempotent).
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Vec::new());
        }
    }

    /// Stop recording and drop anything recorded.
    pub fn disable_journal(&mut self) {
        self.journal = None;
    }

    /// Drain the recorded edits (journaling stays enabled). Empty when
    /// journaling is off.
    pub fn take_journal(&mut self) -> Vec<MatrixEdit> {
        match &mut self.journal {
            Some(j) => std::mem::take(j),
            None => Vec::new(),
        }
    }

    fn record<F: FnOnce() -> MatrixEdit>(&mut self, edit: F) {
        if let Some(j) = &mut self.journal {
            j.push(edit());
        }
    }

    /// Re-apply one recorded edit through the same public mutations that
    /// produced it. Given an identical starting state, applying a journal
    /// in order reproduces the original matrix exactly: every mutation is
    /// deterministic in its inputs (dedupe maps, LIFO free-list recycling
    /// and parallel cell computation included). The journal must be
    /// disabled while replaying.
    pub fn apply_edit(&mut self, edit: &MatrixEdit) {
        debug_assert!(self.journal.is_none(), "replaying into an active journal");
        match edit {
            MatrixEdit::AddCandidates(indexes) => {
                self.add_candidates(indexes);
            }
            MatrixEdit::RemoveCandidate(id) => self.remove_candidate(*id),
            MatrixEdit::AddQueries(entries) => {
                self.add_queries(entries.iter().map(|(q, w)| (q, *w)));
            }
            MatrixEdit::RetireQuery(id) => self.retire_query(*id),
            MatrixEdit::SetQueryWeight(id, w) => self.set_query_weight(*id, *w),
            MatrixEdit::RegisterFragment(table, columns) => {
                self.register_fragment(*table, columns);
            }
            MatrixEdit::RegisterSplit(hp) => {
                self.register_split(hp.clone());
            }
            MatrixEdit::Publish => {
                self.publish();
            }
        }
    }

    /// The INUM handle the matrix was built on (the slow-path oracle);
    /// clone it to keep it past the matrix borrow.
    pub fn inum(&self) -> &Inum<'a> {
        &self.inum
    }

    /// The catalog the matrix's costs were computed against. Metadata-only
    /// access (schema, statistics) for sizing and build-time models —
    /// callers that only need this must not take [`CostMatrix::inum`],
    /// which grants what-if costing.
    pub fn catalog(&self) -> &pgdesign_catalog::Catalog {
        self.inum.catalog()
    }

    /// The cost-model constants the matrix's cells were computed with
    /// (scan/sort parameters for build-time estimates). Like
    /// [`CostMatrix::catalog`], this is metadata, not costing.
    pub fn cost_params(&self) -> &CostParams {
        &self.inum.optimizer().params
    }

    /// Overwrite the weight of an active query slot (no-op on retired or
    /// out-of-range ids). [`Self::add_queries`] *adds* weights on reuse —
    /// a rotating consumer that wants per-epoch rather than cumulative
    /// weights resets them with this after each rotation (COLT does).
    pub fn set_query_weight(&mut self, id: usize, weight: f64) {
        self.record(|| MatrixEdit::SetQueryWeight(id, weight));
        if self.core.query_active(id) {
            self.store_query_weight(id, weight);
        }
    }

    // ---- Snapshot publication (the reader/writer split) ----

    /// Publish the current matrix state as a new immutable snapshot
    /// generation and return it. Readers acquired via [`Self::reader`]
    /// keep serving their pinned generation until they
    /// [`MatrixReader::refresh`]; the swap itself is guarded by the
    /// writer-side lock, readers never block. Generations are strictly
    /// monotonic, starting from 0 at build time.
    pub fn publish(&mut self) -> u64 {
        self.record(|| MatrixEdit::Publish);
        self.slot.publish(self.core.clone())
    }

    /// A cheap, `Clone + Send` read handle pinned to the latest published
    /// generation. Lookups through the handle are lock-free (no `Inum`
    /// involvement at all) and internally consistent until the holder
    /// chooses to [`MatrixReader::refresh`].
    pub fn reader(&self) -> MatrixReader {
        MatrixReader::new(self.slot.current(), Arc::clone(&self.slot))
    }

    /// The latest published snapshot generation (0 right after build).
    pub fn published_generation(&self) -> u64 {
        self.slot.published()
    }

    /// Configuration-cost lookups served from published snapshots (all
    /// reader handles combined) — the reader-side analogue of
    /// [`MatrixStats::lookups`].
    pub fn reader_lookups(&self) -> u64 {
        self.slot.reader_lookups()
    }

    /// The subset of [`Self::reader_lookups`] that costed at least one
    /// partition candidate.
    pub fn reader_partition_lookups(&self) -> u64 {
        self.slot.reader_partition_lookups()
    }

    // ---- Incremental maintenance ----

    /// Register a candidate index, computing only its own cells (one per
    /// active query slot on its table). Ids are **stable**: existing
    /// candidates keep their ids (so existing [`CandidateBitset`]s stay
    /// valid) and re-registering an already-present index returns its
    /// existing id with every resident cell counted as reused. Removed ids
    /// are recycled.
    pub fn add_candidate(&mut self, index: &Index) -> usize {
        self.add_candidates(std::slice::from_ref(index))[0]
    }

    /// Bulk [`Self::add_candidate`]: register a batch of candidate indexes
    /// in one pass, fanning the cell work out like the cold build (one
    /// unit per active query, one worker per ~1 ms of cells, at most
    /// [`build_threads`](crate::build_threads)).
    /// Returns the id per input, aligned. Semantics match a one-at-a-time
    /// loop exactly — same dedupe (against residents *and* within the
    /// batch), same LIFO id recycling, same per-slot candidate order, and
    /// bit-identical cells (each cell is a pure function of its own
    /// `(query, slot, candidate)` inputs).
    pub fn add_candidates(&mut self, indexes: &[Index]) -> Vec<usize> {
        self.add_candidates_with_workers(indexes, Workers::sized())
    }

    /// [`Self::add_candidates`] on chosen workers, for the
    /// serial-vs-parallel equality tests.
    fn add_candidates_with_workers(&mut self, indexes: &[Index], workers: Workers) -> Vec<usize> {
        if indexes.is_empty() {
            return Vec::new();
        }
        self.record(|| MatrixEdit::AddCandidates(indexes.to_vec()));
        let t0 = Instant::now();
        let mut ids = Vec::with_capacity(indexes.len());
        let mut reused = 0u64;
        // Registration order matters: ids are handed out (LIFO from the
        // free list, then fresh) in input order, and later duplicates in
        // the batch dedupe against earlier entries, exactly as sequential
        // `add_candidate` calls would.
        let mut new: Vec<(usize, Index)> = Vec::new();
        for index in indexes {
            if let Some(id) = self.core.candidate_id(index) {
                reused += self.core.active_slots_on(index.table);
                ids.push(id);
                continue;
            }
            let id = self.register_candidate(index);
            ids.push(id);
            new.push((id, index.clone()));
        }
        // The whole batch is costed in one fan-out.
        let cells = self.install_candidate_cells(&new, workers);
        self.inum
            .note_matrix_incremental(cells, reused, t0.elapsed().as_nanos() as u64);
        ids
    }

    /// [`Self::add_candidates`] under a [`WorkBudget`]: one budget unit
    /// per *new* candidate (residents and within-batch duplicates dedupe
    /// for free, as always). The budget is checked between candidates and
    /// a candidate is committed whole — all of its cells across every
    /// active query — or not at all, so a bitset can never select a
    /// partially-celled candidate and cost it wrongly. Returns the id per
    /// input, `None` for deferred entries; the journal records exactly the
    /// committed subset, so replaying the edit log reproduces the budgeted
    /// state bit-for-bit.
    pub fn add_candidates_budgeted(
        &mut self,
        indexes: &[Index],
        budget: &WorkBudget,
    ) -> Vec<Option<usize>> {
        self.add_candidates_budgeted_with_workers(indexes, budget, Workers::sized())
    }

    /// [`Self::add_candidates_budgeted`] on chosen workers.
    fn add_candidates_budgeted_with_workers(
        &mut self,
        indexes: &[Index],
        budget: &WorkBudget,
        workers: Workers,
    ) -> Vec<Option<usize>> {
        if indexes.is_empty() {
            return Vec::new();
        }
        let t0 = Instant::now();
        let mut ids: Vec<Option<usize>> = vec![None; indexes.len()];
        let mut committed: Vec<usize> = Vec::new();
        // Deferred uniques, so a later duplicate of a deferred candidate
        // defers too instead of re-attempting (and possibly committing a
        // different subset than the journal records).
        let mut deferred: HashSet<&Index> = HashSet::new();
        let mut reused = 0u64;
        let mut cells = 0u64;
        for (i, index) in indexes.iter().enumerate() {
            if let Some(id) = self.core.candidate_id(index) {
                // Resident — or a duplicate of an earlier committed batch
                // entry, which by now is resident as well.
                reused += self.core.active_slots_on(index.table);
                ids[i] = Some(id);
                committed.push(i);
                continue;
            }
            if deferred.contains(index) {
                continue;
            }
            if !budget.try_consume() {
                deferred.insert(index);
                continue;
            }
            let id = self.register_candidate(index);
            cells += self.install_candidate_cells(&[(id, index.clone())], workers);
            ids[i] = Some(id);
            committed.push(i);
        }
        // Journal exactly what was installed: a replay must reproduce the
        // budgeted state, not the state the full batch would have built.
        if !committed.is_empty() {
            self.record(|| {
                MatrixEdit::AddCandidates(committed.iter().map(|&i| indexes[i].clone()).collect())
            });
        }
        self.inum
            .note_matrix_incremental(cells, reused, t0.elapsed().as_nanos() as u64);
        ids
    }

    /// Give a not-yet-resident index an id (LIFO from the free list, then
    /// fresh) and enter it in the registry. Its cells are the caller's to
    /// install ([`Self::install_candidate_cells`]).
    fn register_candidate(&mut self, index: &Index) -> usize {
        let core = &mut self.core;
        let id = match core.free_candidates.pop() {
            Some(id) => id,
            None => {
                core.indexes.push(None);
                core.indexes.len() - 1
            }
        };
        core.indexes[id] = Some(index.clone());
        core.id_by_index.insert(index.clone(), id);
        id
    }

    /// Cost the just-registered candidates `new` on every active query —
    /// one fan-out — and append the cells
    /// (copy-on-write: only queries that gain a cell are unshared from
    /// published snapshots). Returns the number of cells costed.
    fn install_candidate_cells(&mut self, new: &[(usize, Index)], workers: Workers) -> u64 {
        if new.is_empty() {
            return 0;
        }
        let active: Vec<usize> = self.core.active_query_ids().collect();
        let computed = compute_candidate_cells(&self.inum, &self.core, &active, new, workers);
        let mut cells = 0u64;
        for (&qi, (additions, c)) in active.iter().zip(computed) {
            cells += c;
            if additions.is_empty() {
                continue;
            }
            let qm = Arc::make_mut(&mut self.core.queries[qi]);
            for (s, cc) in additions {
                qm.slots[s].cands.push(cc);
            }
        }
        cells
    }

    /// Remove a candidate: its cells are dropped from every query slot and
    /// its id is recycled for later [`Self::add_candidate`] calls. All
    /// other ids are untouched, so existing bitsets stay valid (a bitset
    /// still holding the removed id simply no longer matches any cell).
    /// No-op for already-removed or out-of-range ids.
    pub fn remove_candidate(&mut self, id: usize) {
        if self.core.indexes.get(id).is_none_or(|i| i.is_none()) {
            return;
        }
        self.record(|| MatrixEdit::RemoveCandidate(id));
        if let Some(idx) = self.core.indexes[id].take() {
            // Only unmap if this id owns the entry (a duplicate handed to
            // `build` maps to its first id) — and if another live duplicate
            // exists, re-point the map so the index stays findable.
            if self.core.id_by_index.get(&idx) == Some(&id) {
                let other = self
                    .core
                    .indexes
                    .iter()
                    .position(|i| i.as_ref() == Some(&idx));
                match other {
                    Some(oid) => {
                        self.core.id_by_index.insert(idx, oid);
                    }
                    None => {
                        self.core.id_by_index.remove(&idx);
                    }
                }
            }
        }
        self.core.free_candidates.push(id);
        for qm in &mut self.core.queries {
            // Copy-on-write: leave queries that never held the candidate
            // shared with published snapshots.
            if qm
                .slots
                .iter()
                .any(|slot| slot.cands.iter().any(|c| c.id == id))
            {
                let qm = Arc::make_mut(qm);
                for slot in &mut qm.slots {
                    if let Some(pos) = slot.cands.iter().position(|c| c.id == id) {
                        slot.cands.remove(pos);
                    }
                }
            }
        }
    }

    /// Add one query (see [`Self::add_queries`]).
    pub fn add_query(&mut self, query: &Query, weight: f64) -> usize {
        self.add_queries([(query, weight)])[0]
    }

    /// Add queries to the matrix, reusing resident cells where possible:
    /// a query equal to an *active* slot's query reuses that slot (weights
    /// add, all its cells count as reused, nothing is even cloned); new
    /// queries have their cells computed — in parallel like the cold
    /// build when there is enough of them — and land in retired slots
    /// first, fresh slots after. Returns the query id per input,
    /// aligned. This is [`Self::add_queries_budgeted`] under a budget that
    /// never exhausts.
    pub fn add_queries<'q, I: IntoIterator<Item = (&'q Query, f64)>>(
        &mut self,
        entries: I,
    ) -> Vec<usize> {
        self.add_queries_budgeted(entries, &WorkBudget::unlimited())
            .into_iter()
            .map(|id| id.expect("an unlimited budget admits every query"))
            .collect()
    }

    /// [`Self::add_queries`] under a [`WorkBudget`]: one budget unit per
    /// query that actually needs its cells computed (reuse of an active
    /// slot and within-batch duplicates stay free). Entries whose cells
    /// completed before exhaustion commit; the rest return `None` and are
    /// the caller's pending remainder. A duplicate of a deferred entry
    /// defers with it. The journal records only the committed subset, so
    /// edit-log replay reproduces the budgeted state bit-for-bit.
    pub fn add_queries_budgeted<'q, I: IntoIterator<Item = (&'q Query, f64)>>(
        &mut self,
        entries: I,
        budget: &WorkBudget,
    ) -> Vec<Option<usize>> {
        self.add_queries_budgeted_with_workers(entries, budget, Workers::sized())
    }

    /// [`Self::add_queries_budgeted`] on chosen workers.
    fn add_queries_budgeted_with_workers<'q, I: IntoIterator<Item = (&'q Query, f64)>>(
        &mut self,
        entries: I,
        budget: &WorkBudget,
        workers: Workers,
    ) -> Vec<Option<usize>> {
        let keyed = entries
            .into_iter()
            .map(|(q, w)| (query_key(q), q, w))
            .collect();
        self.add_keyed_queries(keyed, budget, workers)
    }

    /// The body of [`Self::add_queries_budgeted`] over explicitly keyed
    /// entries — tests force distinct queries onto one key through it. A
    /// key identifies a query only together with the query itself: a key
    /// match against a different query is a miss.
    pub(crate) fn add_keyed_queries(
        &mut self,
        keyed: Vec<(u64, &Query, f64)>,
        budget: &WorkBudget,
        workers: Workers,
    ) -> Vec<Option<usize>> {
        let entries: Vec<(&Query, f64)> = keyed.iter().map(|&(_, q, w)| (q, w)).collect();
        if entries.is_empty() {
            return Vec::new();
        }
        let t0 = Instant::now();
        let mut reused = 0u64;
        let mut computed_cells = 0u64;

        // Resolve each entry: an existing active slot, a duplicate of an
        // earlier batch entry, or a pending computation. Only the Pending
        // entries cost budget units.
        enum Resolved {
            Existing(usize),
            SameAs(usize),
            Pending,
        }
        // One id per key; a key shared by different queries falls back to
        // a scan for the equal one.
        let core = &self.core;
        let resident: HashMap<u64, usize> = core
            .queries
            .iter()
            .enumerate()
            .filter(|(_, qm)| qm.active)
            .map(|(id, qm)| (qm.key, id))
            .collect();
        let resident_query = |id: usize| &core.workload.entries[id].query;
        let mut first_of: HashMap<u64, usize> = HashMap::new();
        let mut resolved: Vec<Resolved> = Vec::with_capacity(entries.len());
        let mut pending: Vec<usize> = Vec::new();
        for (i, &(key, q, _)) in keyed.iter().enumerate() {
            let existing = match resident.get(&key) {
                Some(&id) if resident_query(id) == q => Some(id),
                Some(_) => (0..core.queries.len()).find(|&id| {
                    let qm = &core.queries[id];
                    qm.active && qm.key == key && resident_query(id) == q
                }),
                None => None,
            };
            let earlier = match first_of.get(&key) {
                Some(&j) if keyed[j].1 == q => Some(j),
                Some(_) => pending
                    .iter()
                    .copied()
                    .find(|&j| keyed[j].0 == key && keyed[j].1 == q),
                None => None,
            };
            if let Some(id) = existing {
                resolved.push(Resolved::Existing(id));
            } else if let Some(j) = earlier {
                resolved.push(Resolved::SameAs(j));
            } else {
                first_of.entry(key).or_insert(i);
                pending.push(i);
                resolved.push(Resolved::Pending);
            }
        }

        // Compute the misses (the bulk) in parallel, under the budget;
        // `None` means deferred.
        let refs: Vec<(u64, &Query, f64)> = pending.iter().map(|&i| keyed[i]).collect();
        let computed =
            compute_query_matrices(&self.inum, &refs, &self.core.indexes, workers, budget);

        // Journal exactly the committed subset in input order — an entry
        // commits when it resolved to a resident slot, its own cells
        // completed, or it duplicates a committed entry.
        let mut commits: Vec<bool> = vec![false; entries.len()];
        for (&i, done) in pending.iter().zip(&computed) {
            commits[i] = done.is_some();
        }
        for (i, r) in resolved.iter().enumerate() {
            match *r {
                Resolved::Existing(_) => commits[i] = true,
                Resolved::SameAs(j) => commits[i] = commits[j],
                Resolved::Pending => {}
            }
        }
        if commits.iter().any(|&c| c) {
            self.record(|| {
                MatrixEdit::AddQueries(
                    entries
                        .iter()
                        .zip(&commits)
                        .filter(|(_, &c)| c)
                        .map(|(&(q, w), _)| (q.clone(), w))
                        .collect(),
                )
            });
        }

        // Install completed matrices (retired slots first, in input
        // order), then wire up weights and ids for the entries that share
        // a slot.
        let mut ids: Vec<Option<usize>> = vec![None; entries.len()];
        for (&i, done) in pending.iter().zip(computed) {
            if let Some((qm, cells)) = done {
                computed_cells += cells;
                ids[i] = Some(self.install_query(entries[i].0.clone(), qm));
            }
        }
        // Per-table live candidate counts, shared by the reuse accounting
        // below (a per-query recount would cost a visible fraction of the
        // cell work it is crediting).
        let cands_on = count_per_table(self.core.candidates().map(|(_, idx)| idx.table));
        for (i, r) in resolved.iter().enumerate() {
            let shared = match *r {
                Resolved::Existing(id) => Some(id),
                Resolved::SameAs(j) => ids[j],
                Resolved::Pending => continue,
            };
            // Sharing a slot avoids the cells a fresh build would have
            // costed for this entry separately.
            if let Some(id) = shared {
                let w = self.core.queries[id].weight + entries[i].1;
                self.store_query_weight(id, w);
                reused += self.core.queries[id]
                    .slots
                    .iter()
                    .map(|s| 1 + cands_on.get(&s.table).copied().unwrap_or(0) as u64)
                    .sum::<u64>();
                ids[i] = Some(id);
            }
        }
        self.inum
            .note_matrix_incremental(computed_cells, reused, t0.elapsed().as_nanos() as u64);
        ids
    }

    /// Set a slot's weight in its cells and in the workload mirror.
    fn store_query_weight(&mut self, id: usize, weight: f64) {
        Arc::make_mut(&mut self.core.queries[id]).weight = weight;
        self.core.workload.entries[id].weight = weight;
    }

    /// Retire a query: it stops contributing to workload costs, its cells
    /// are dropped, and its slot is reused by the next [`Self::add_query`].
    /// Costing a retired id yields `∞` (no skeletons). To rotate an epoch
    /// cheaply, *add the new epoch's queries first*, then retire the
    /// leftovers — recurring queries then dedupe against their still-active
    /// slots instead of being recomputed. No-op on inactive ids.
    pub fn retire_query(&mut self, id: usize) {
        if !self.core.query_active(id) {
            return;
        }
        self.record(|| MatrixEdit::RetireQuery(id));
        self.core.generation += 1;
        let qm = Arc::make_mut(&mut self.core.queries[id]);
        qm.active = false;
        qm.key = 0;
        qm.weight = 0.0;
        qm.internal = Vec::new();
        qm.reqs = Vec::new();
        qm.slots = Vec::new();
        self.core.workload.entries[id].weight = 0.0;
        for sp in &mut self.core.splits {
            Arc::make_mut(sp).frac[id] = Vec::new();
        }
        self.core.free_queries.push(id);
    }

    /// Place a computed query matrix in a slot (retired first), keeping
    /// the workload mirror and every split's fraction rows aligned.
    fn install_query(&mut self, query: Query, qm: QueryMatrix) -> usize {
        let core = &mut self.core;
        core.generation += 1;
        let id = match core.free_queries.pop() {
            Some(id) => {
                core.workload.entries[id].query = query;
                id
            }
            None => {
                core.queries.push(Arc::new(QueryMatrix {
                    weight: 0.0,
                    key: 0,
                    active: false,
                    internal: Vec::new(),
                    reqs: Vec::new(),
                    slots: Vec::new(),
                }));
                core.workload.push(query, 0.0);
                for sp in &mut core.splits {
                    Arc::make_mut(sp).frac.push(Vec::new());
                }
                core.queries.len() - 1
            }
        };
        core.workload.entries[id].weight = qm.weight;
        core.queries[id] = Arc::new(qm);
        // Extend every registered split with this query's surviving
        // fractions so joint lookups stay pure.
        let q = &core.workload.entries[id].query;
        let mut cells = 0u64;
        for sp in &mut core.splits {
            let sp = Arc::make_mut(sp);
            let (per_slot, c) = split_fractions(&sp.hp, q);
            cells += c;
            sp.frac[id] = per_slot;
        }
        if cells > 0 {
            self.inum.note_partition_cells(cells);
        }
        id
    }

    // ---- Partition candidates (the partition-aware cache level) ----

    /// Register (or find) a vertical-fragment candidate for `table`.
    /// Columns are normalised (sorted, deduped); registering the same
    /// group twice returns the existing id. The fragment's heap pages are
    /// precomputed here — the one-off cell work of this cache level.
    pub fn register_fragment(&mut self, table: TableId, columns: &[u16]) -> usize {
        self.record(|| MatrixEdit::RegisterFragment(table, columns.to_vec()));
        let catalog = self.inum.catalog();
        let tdef = catalog.schema.table(table);
        assert!(tdef.width() <= 128, "fragment masks support 128 columns");
        let mask = column_mask(columns);
        if let Some(&id) = self.core.frag_ids.get(&(table, mask)) {
            return id;
        }
        let mut cols: Vec<u16> = columns.to_vec();
        cols.sort_unstable();
        cols.dedup();
        let pages = sizing::heap_pages(catalog.row_count(table), tdef.byte_width_of(&cols) + 8);
        let id = self.core.fragments.len();
        self.core.frag_ids.insert((table, mask), id);
        self.core.fragments.push(Arc::new(Fragment {
            table,
            columns: cols,
            mask,
            pages,
        }));
        self.core.frags_by_table[table.0 as usize].push(id);
        self.inum.note_partition_cells(1);
        id
    }

    /// Register (or find) a horizontal-split candidate. The per-(query,
    /// slot) surviving fractions are precomputed once here (and extended
    /// on [`Self::add_query`]), so applying the split in a configuration
    /// is a pure lookup.
    pub fn register_split(&mut self, hp: HorizontalPartitioning) -> usize {
        self.record(|| MatrixEdit::RegisterSplit(hp.clone()));
        if let Some(id) = self.core.splits.iter().position(|s| s.hp == hp) {
            return id;
        }
        let mut frac = Vec::with_capacity(self.core.queries.len());
        let mut cells = 0u64;
        for (qi, entry) in self.core.workload.entries.iter().enumerate() {
            if !self.core.queries[qi].active {
                frac.push(Vec::new()); // retired slot: filled on reuse
                continue;
            }
            let (per_slot, c) = split_fractions(&hp, &entry.query);
            cells += c;
            frac.push(per_slot);
        }
        let id = self.core.splits.len();
        self.core.splits.push(Arc::new(Split { hp, frac }));
        self.inum.note_partition_cells(cells);
        id
    }
}

/// One query's surviving fraction per slot under a horizontal split (1.0
/// off the split's table), plus the number of cells that took computing.
fn split_fractions(hp: &HorizontalPartitioning, q: &Query) -> (Vec<f64>, u64) {
    let mut cells = 0u64;
    let per_slot = (0..q.slot_count())
        .map(|slot| {
            if q.table_of(slot) == hp.table {
                cells += 1;
                let (lo, hi) = access::column_range_restriction(q, slot, hp.column);
                hp.surviving_fraction(lo, hi)
            } else {
                1.0
            }
        })
        .collect();
    (per_slot, cells)
}

impl MatrixCore {
    /// The matrix's queries, aligned with query ids: entry `i` is query
    /// slot `i`. Entries of retired slots are stale (their weight is
    /// zeroed); on a freshly built matrix this is exactly the workload the
    /// matrix was built for.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Number of query slots (active + retired); `cost` accepts any id
    /// below this.
    pub fn n_queries(&self) -> usize {
        self.queries.len()
    }

    /// Number of candidate id slots (live + removed) — the id space
    /// [`CandidateBitset`]s range over.
    pub fn n_candidates(&self) -> usize {
        self.indexes.len()
    }

    /// The live candidates as `(id, index)` pairs, ascending by id.
    pub fn candidates(&self) -> impl Iterator<Item = (usize, &Index)> {
        self.indexes
            .iter()
            .enumerate()
            .filter_map(|(id, idx)| idx.as_ref().map(|i| (id, i)))
    }

    /// The live candidate with id `id` (`None` for removed ids).
    pub fn candidate(&self, id: usize) -> Option<&Index> {
        self.indexes.get(id).and_then(|i| i.as_ref())
    }

    /// The id of the live candidate equal to `index`, if registered
    /// (O(1) hash lookup).
    pub fn candidate_id(&self, index: &Index) -> Option<usize> {
        self.id_by_index.get(index).copied()
    }

    /// The *active* queries as an owned `(query, weight)` snapshot — what
    /// advisors enumerate candidates from. Unlike [`Self::workload`],
    /// retired slots are excluded, so the stale queries of a long-lived
    /// session matrix cannot steer candidate analyses.
    pub fn active_workload(&self) -> Workload {
        let mut w = Workload::new();
        for qid in self.active_query_ids() {
            w.push(self.workload.query(qid).clone(), self.query_weight(qid));
        }
        w
    }

    /// Ids of the active (non-retired) queries, ascending.
    pub fn active_query_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.queries
            .iter()
            .enumerate()
            .filter(|(_, qm)| qm.active)
            .map(|(id, _)| id)
    }

    /// Whether query slot `id` is active (false for retired slots and
    /// out-of-range ids).
    pub fn query_active(&self, id: usize) -> bool {
        self.queries.get(id).is_some_and(|qm| qm.active)
    }

    /// Workload weight of query slot `id` (0 for retired slots).
    pub fn query_weight(&self, id: usize) -> f64 {
        self.queries.get(id).map_or(0.0, |qm| qm.weight)
    }

    /// Ids of the candidates that own at least one cell on query slot
    /// `query_id`, ascending — the only candidates whose presence in a
    /// configuration can change [`Self::cost`] for that query. Removed and
    /// unknown ids never appear. Not a cost lookup: no counter moves.
    pub fn candidates_on(&self, query_id: usize) -> Vec<usize> {
        let mut ids: Vec<usize> = self.queries[query_id]
            .slots
            .iter()
            .flat_map(|slot| slot.cands.iter().map(|c| c.id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The query-rotation generation: changes exactly when some slot id's
    /// bound query changes ([`CostMatrix::retire_query`] or an install by
    /// [`CostMatrix::add_queries`]). Equal generations guarantee every
    /// slot id still denotes the same query, so per-slot caches stay
    /// valid. Distinct from a snapshot's publication generation
    /// ([`crate::MatrixSnapshot::generation`]).
    pub fn rotation_generation(&self) -> u64 {
        self.generation
    }

    /// Cells a fresh build would compute for one candidate on `table`
    /// (one per active slot on the table) — the reuse credit of a
    /// duplicate registration.
    fn active_slots_on(&self, table: TableId) -> u64 {
        self.queries
            .iter()
            .filter(|qm| qm.active)
            .flat_map(|qm| qm.slots.iter())
            .filter(|s| s.table == table)
            .count() as u64
    }

    /// An empty configuration sized for this matrix.
    pub fn empty_config(&self) -> CandidateBitset {
        CandidateBitset::new(self.indexes.len())
    }

    /// A configuration holding exactly `ids`.
    pub fn config_of<I: IntoIterator<Item = usize>>(&self, ids: I) -> CandidateBitset {
        CandidateBitset::from_ids(self.indexes.len(), ids)
    }

    /// The [`PhysicalDesign`] a configuration denotes (slow-path bridge).
    /// Removed and unknown candidate ids in the bitset are skipped,
    /// matching how the cost lookups treat them.
    pub fn design_of(&self, config: &CandidateBitset) -> PhysicalDesign {
        PhysicalDesign::with_indexes(config.ids().filter_map(|id| self.candidate(id).cloned()))
    }

    /// Cost of `query_id` under the configuration — pure lookups against
    /// the resident cells; no lock, no optimizer call.
    pub fn cost(&self, query_id: usize, config: &CandidateBitset) -> f64 {
        self.cost_toggled(query_id, config, usize::MAX, usize::MAX)
    }

    /// Cost under `config ∪ {extra}` without materializing the union.
    pub fn cost_plus(&self, query_id: usize, config: &CandidateBitset, extra: usize) -> f64 {
        self.cost_toggled(query_id, config, extra, usize::MAX)
    }

    /// Cost under `config ∖ {removed}` without materializing the
    /// difference.
    pub fn cost_minus(&self, query_id: usize, config: &CandidateBitset, removed: usize) -> f64 {
        self.cost_toggled(query_id, config, usize::MAX, removed)
    }

    /// Cost change from adding `cand` to the configuration (negative =
    /// improvement).
    pub fn delta_add(&self, query_id: usize, config: &CandidateBitset, cand: usize) -> f64 {
        self.cost_plus(query_id, config, cand) - self.cost(query_id, config)
    }

    /// Cost change from removing `cand` from the configuration (positive =
    /// regression).
    pub fn delta_remove(&self, query_id: usize, config: &CandidateBitset, cand: usize) -> f64 {
        self.cost_minus(query_id, config, cand) - self.cost(query_id, config)
    }

    /// Weighted workload cost under the configuration (active queries
    /// only; retired slots contribute nothing).
    pub fn workload_cost(&self, config: &CandidateBitset) -> f64 {
        self.active_query_ids()
            .map(|qi| self.queries[qi].weight * self.cost(qi, config))
            .sum()
    }

    /// Weighted workload cost under `config ∪ {extra}`.
    pub fn workload_cost_plus(&self, config: &CandidateBitset, extra: usize) -> f64 {
        self.active_query_ids()
            .map(|qi| self.queries[qi].weight * self.cost_plus(qi, config, extra))
            .sum()
    }

    /// Number of registered fragment candidates.
    pub fn n_fragments(&self) -> usize {
        self.fragments.len()
    }

    /// Number of registered split candidates.
    pub fn n_splits(&self) -> usize {
        self.splits.len()
    }

    /// The (normalised) column group of a registered fragment.
    pub fn fragment_columns(&self, id: usize) -> &[u16] {
        &self.fragments[id].columns
    }

    /// The table a registered fragment belongs to.
    pub fn fragment_table(&self, id: usize) -> TableId {
        self.fragments[id].table
    }

    /// A registered fragment's columns as a mask (bit `c` = ordinal `c`).
    pub fn fragment_mask(&self, id: usize) -> u128 {
        self.fragments[id].mask
    }

    /// Per slot of query `query_id`, its table and the mask of the columns
    /// its costing reads (bit `c` = ordinal `c`). A vertical fragment can
    /// change the slot's joint cost only if it meets that mask, or the
    /// mask is empty: the slot's fetch target is built from the selected
    /// fragments that meet its columns alone, and a slot reading no column
    /// fetches one page from any fragmentation. Not a cost lookup.
    pub fn columns_read(&self, query_id: usize) -> impl Iterator<Item = (TableId, u128)> + '_ {
        self.queries[query_id]
            .slots
            .iter()
            .map(|slot| (slot.table, slot.needed_mask))
    }

    /// The partitioning of a registered split candidate.
    pub fn split(&self, id: usize) -> &HorizontalPartitioning {
        &self.splits[id].hp
    }

    /// An empty joint configuration sized for this matrix.
    pub fn empty_joint(&self) -> JointConfig {
        JointConfig {
            indexes: self.empty_config(),
            fragments: FragmentBitset::new(self.fragments.len()),
            splits: SplitBitset::new(self.splits.len()),
        }
    }

    /// The [`PhysicalDesign`] a joint configuration denotes (slow-path
    /// bridge, for validation and for materializing a finished search).
    pub fn joint_design_of(&self, cfg: &JointConfig) -> PhysicalDesign {
        let mut d = self.design_of(&cfg.indexes);
        for (ti, frag_ids) in self.frags_by_table.iter().enumerate() {
            let groups: Vec<Vec<u16>> = frag_ids
                .iter()
                .filter(|&&f| cfg.fragments.contains(f))
                .map(|&f| self.fragments[f].columns.clone())
                .collect();
            if !groups.is_empty() {
                d.set_vertical(VerticalPartitioning::new(TableId(ti as u32), groups));
            }
        }
        for (sid, s) in self.splits.iter().enumerate() {
            if cfg.splits.contains(sid) {
                d.set_horizontal(s.hp.clone());
            }
        }
        d
    }

    /// Cost of `query_id` under a joint configuration — pure lookups plus
    /// per-slot arithmetic re-costing for partition-touched tables.
    pub fn joint_cost(&self, query_id: usize, cfg: &JointConfig) -> f64 {
        self.joint_cost_with(query_id, cfg, &JointToggle::default())
    }

    /// Per active query, in id order, its cost under `before` and under
    /// `after` — a recommendation's per-query report, each configuration
    /// resolved once.
    pub fn joint_cost_pairs(&self, before: &JointConfig, after: &JointConfig) -> Vec<(f64, f64)> {
        let none = JointToggle::default();
        let (before, after) = (
            self.resolve_joint(before, &none),
            self.resolve_joint(after, &none),
        );
        self.active_query_ids()
            .map(|qi| {
                (
                    self.joint_cost_resolved(qi, &before),
                    self.joint_cost_resolved(qi, &after),
                )
            })
            .collect()
    }

    /// Weighted workload cost under a joint configuration (active queries
    /// only).
    pub fn joint_workload_cost(&self, cfg: &JointConfig) -> f64 {
        self.joint_workload_cost_with(cfg, &JointToggle::default())
    }

    /// Weighted workload cost under `cfg` with `toggle`'s virtual edits
    /// applied, resolved once for the whole workload.
    pub fn joint_workload_cost_with(&self, cfg: &JointConfig, toggle: &JointToggle) -> f64 {
        let resolved = self.resolve_joint(cfg, toggle);
        self.active_query_ids()
            .map(|qi| self.queries[qi].weight * self.joint_cost_resolved(qi, &resolved))
            .sum()
    }

    /// Workload-cost change from replacing fragments `a` and `b` with
    /// their (pre-registered) merge `merged` (negative = improvement).
    pub fn delta_merge(&self, cfg: &JointConfig, a: usize, b: usize, merged: usize) -> f64 {
        self.joint_workload_cost_with(cfg, &JointToggle::merge(a, b, merged))
            - self.joint_workload_cost(cfg)
    }

    /// Workload-cost change from applying horizontal split `split` —
    /// the horizontal-pass trial entry point (negative = improvement).
    pub fn delta_split(&self, cfg: &JointConfig, split: usize) -> f64 {
        self.joint_workload_cost_with(cfg, &JointToggle::split(split))
            - self.joint_workload_cost(cfg)
    }

    /// Cost of `query_id` under `cfg` with `toggle` applied (see
    /// [`Self::joint_cost_resolved`]); resolves the configuration for this
    /// one lookup, so callers costing many queries resolve once themselves.
    pub fn joint_cost_with(&self, query_id: usize, cfg: &JointConfig, toggle: &JointToggle) -> f64 {
        self.joint_cost_resolved(query_id, &self.resolve_joint(cfg, toggle))
    }

    /// Resolve `cfg` with `toggle` applied into its per-table partition
    /// state — the one partition-aware read path's setup, paid once per
    /// costing instead of once per slot. The toggled set is
    /// `(cfg ∖ removes) ∪ adds` (an add wins over a remove of the same id),
    /// and fragment and split ids this core does not know are unselected.
    /// Of several splits selected on one table the last one (by id, then
    /// the toggle's add) applies.
    pub fn resolve_joint<'c>(
        &self,
        cfg: &'c JointConfig,
        toggle: &JointToggle,
    ) -> ResolvedJoint<'c> {
        let mut resolved = ResolvedJoint {
            indexes: &cfg.indexes,
            partitioned: !cfg.partitions_empty() || !toggle.is_noop(),
            frags: Vec::new(),
            tables: Vec::new(),
        };
        if !resolved.partitioned {
            return resolved;
        }
        let tables = &mut resolved.tables;
        tables.resize(self.frags_by_table.len(), TableParts::default());

        let split_on = |sid: usize| {
            sid < self.splits.len()
                && (toggle.add_split == Some(sid) || toggle.remove_split != Some(sid))
        };
        let added_split = toggle
            .add_split
            .filter(|&sid| split_on(sid) && !cfg.splits.contains(sid));
        for sid in cfg
            .splits
            .ids()
            .filter(|&sid| split_on(sid))
            .chain(added_split)
        {
            if let Some(parts) = tables.get_mut(self.splits[sid].hp.table.0 as usize) {
                parts.split = Some(sid);
            }
        }

        let frag_on = |fid: usize| {
            fid < self.fragments.len()
                && (toggle.add_fragment == Some(fid)
                    || !toggle.remove_fragments.contains(&Some(fid)))
        };
        let selected = || {
            let added = toggle
                .add_fragment
                .filter(|&fid| frag_on(fid) && !cfg.fragments.contains(fid));
            cfg.fragments
                .ids()
                .filter(|&fid| frag_on(fid))
                .chain(added)
                .map(|fid| (fid, &*self.fragments[fid]))
        };
        // Group by table in two passes (count, then place), no sort: each
        // table's `end` first counts its fragments, then serves as the
        // cursor its fragments are placed at.
        for (_, f) in selected() {
            tables[f.table.0 as usize].end += 1;
        }
        let mut at = 0;
        for parts in tables.iter_mut() {
            let n = parts.end;
            (parts.start, parts.end) = (at, at);
            at += n;
        }
        let frags = &mut resolved.frags;
        frags.resize(at, PartFrag::default());
        for (fid, f) in selected() {
            let parts = &mut tables[f.table.0 as usize];
            frags[parts.end] = PartFrag {
                mask: f.mask,
                pages: f.pages,
                id: fid,
            };
            parts.end += 1;
        }
        for parts in tables.iter_mut() {
            let group = &mut frags[parts.start..parts.end];
            let (union, columns) = group.iter().fold((0u128, 0u32), |(union, n), f| {
                (union | f.mask, n + f.mask.count_ones())
            });
            parts.disjoint = union.count_ones() == columns;
            if !parts.disjoint {
                // `VerticalPartitioning::new` sorts groups by column list;
                // the greedy cover's tie-breaking depends on that order.
                group.sort_unstable_by(|a, b| {
                    self.fragments[a.id]
                        .columns
                        .cmp(&self.fragments[b.id].columns)
                });
            }
        }
        resolved
    }

    /// Cost of `query_id` under a resolved joint configuration. Mirrors
    /// [`Inum::cost`] on the design [`Self::joint_design_of`] would build,
    /// so the two agree on any joint configuration (the suite's invariant
    /// tests assert this within 1e-6). Counts one lookup, and one
    /// partition lookup when any partition candidate is in play.
    pub fn joint_cost_resolved(&self, query_id: usize, resolved: &ResolvedJoint<'_>) -> f64 {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        if resolved.partitioned {
            self.counters
                .partition_lookups
                .fetch_add(1, Ordering::Relaxed);
        }
        let qm = &self.queries[query_id];
        if !resolved.partitioned {
            return self.joint_min_over_skeletons(qm, resolved.indexes, &[]);
        }

        // Per-slot partition-adjusted minima, derived once per query —
        // they do not vary across skeletons, so the skeleton loop stays as
        // cheap as the index-only fast path. Slot counts are tiny (one per
        // table in the query), so the state lives on the stack.
        let mut state_buf = [NO_PART_STATE; MAX_STACK_SLOTS];
        let state_spill: Vec<Option<PartSlotMins>>;
        let slot_state: &[Option<PartSlotMins>] = if qm.slots.len() <= MAX_STACK_SLOTS {
            for (s, slot) in qm.slots.iter().enumerate() {
                state_buf[s] = self.resolved_slot_mins(query_id, s, slot, resolved);
            }
            &state_buf[..qm.slots.len()]
        } else {
            state_spill = qm
                .slots
                .iter()
                .enumerate()
                .map(|(s, slot)| self.resolved_slot_mins(query_id, s, slot, resolved))
                .collect();
            &state_spill
        };
        self.joint_min_over_skeletons(qm, resolved.indexes, slot_state)
    }

    /// The skeleton loop of a joint lookup: per skeleton, internal cost
    /// plus each slot's cheapest access — the precomputed unpartitioned
    /// minima where `slot_state` has no entry, the partition-adjusted ones
    /// where it does.
    #[inline]
    fn joint_min_over_skeletons(
        &self,
        qm: &QueryMatrix,
        indexes: &CandidateBitset,
        slot_state: &[Option<PartSlotMins>],
    ) -> f64 {
        let use_fast = |s: usize| slot_state.get(s).is_none_or(|st| st.is_none());
        let mut best = f64::INFINITY;
        for (internal, reqs) in qm.internal.iter().zip(&qm.reqs) {
            let mut total = *internal;
            for (s, (slot, &req)) in qm.slots.iter().zip(reqs.iter()).enumerate() {
                let m = if use_fast(s) {
                    // Unpartitioned slot: the precomputed fast path.
                    let mut m = if req == NO_ORDER {
                        slot.base_unordered
                    } else {
                        slot.base_ordered[req as usize]
                    };
                    for cand in &slot.cands {
                        if !indexes.contains(cand.id) {
                            continue;
                        }
                        let c = if req == NO_ORDER {
                            cand.unordered
                        } else {
                            cand.ordered[req as usize]
                        };
                        if c < m {
                            m = c;
                        }
                    }
                    m
                } else {
                    // Partition-touched slot: the minima were re-derived
                    // against the configuration's fetch target.
                    let mins = slot_state[s].as_ref().expect("checked by use_fast");
                    if req == NO_ORDER {
                        mins.unordered
                    } else {
                        mins.ordered[req as usize]
                    }
                };
                total += m;
                if total >= best {
                    total = f64::INFINITY;
                    break; // early exit: already worse (or infeasible)
                }
            }
            if total < best {
                best = total;
            }
        }
        debug_assert!(!best.is_nan(), "joint cost accumulation produced NaN");
        best
    }

    /// One slot's partition-adjusted access minima under a resolved
    /// configuration: the fetch target from its table's selected
    /// fragments, the surviving fraction from its table's split, then one
    /// arithmetic re-costing per cached path. `None` = the slot's table
    /// carries no partition candidate, use the precomputed unpartitioned
    /// numbers.
    fn resolved_slot_mins(
        &self,
        query_id: usize,
        slot_idx: usize,
        slot: &SlotCosts,
        resolved: &ResolvedJoint<'_>,
    ) -> Option<PartSlotMins> {
        let parts = resolved.tables.get(slot.table.0 as usize)?;
        let frags = &resolved.frags[parts.start..parts.end];
        let h_frac = match parts.split {
            Some(sid) => self.splits[sid].frac[query_id][slot_idx],
            None if frags.is_empty() => return None,
            None => 1.0,
        };
        let target = if frags.is_empty() {
            slot.base_target
        } else if parts.disjoint {
            // Disjoint fragments: the greedy set cover reduces to "every
            // fragment intersecting the needed columns".
            let (pages, touched) = frags
                .iter()
                .filter(|fr| fr.mask & slot.needed_mask != 0)
                .fold((0u64, 0usize), |(pages, n), fr| (pages + fr.pages, n + 1));
            FetchTarget {
                pages: pages.max(1) as f64,
                fragments: touched.max(1),
            }
        } else {
            Self::overlapping_target(frags, slot.needed_mask)
        };
        Some(self.partition_mins(slot, resolved.indexes, target, h_frac))
    }

    /// Re-derive a slot's per-order access minima against a fetch target
    /// and a surviving fraction: the base scan first, then every cached
    /// path of every selected candidate, each costed exactly once.
    fn partition_mins(
        &self,
        slot: &SlotCosts,
        indexes: &CandidateBitset,
        target: FetchTarget,
        h_frac: f64,
    ) -> PartSlotMins {
        let params = &self.params;
        let base = access::seq_scan_cost(params, slot.base_rows, slot.n_filters, target, h_frac);
        let mut mins = PartSlotMins {
            unordered: base,
            ordered: [f64::INFINITY; MAX_SLOT_ORDERS],
        };
        for (o, c) in slot.base_ordered.iter().enumerate() {
            if c.is_finite() {
                mins.ordered[o] = base;
            }
        }
        for cand in &slot.cands {
            if !indexes.contains(cand.id) {
                continue;
            }
            for path in &cand.paths {
                let c = path.profile.cost(params, target);
                if c < mins.unordered {
                    mins.unordered = c;
                }
                let mut order_bits = path.order_ok;
                while order_bits != 0 {
                    let o = order_bits.trailing_zeros() as usize;
                    order_bits &= order_bits - 1;
                    if c < mins.ordered[o] {
                        mins.ordered[o] = c;
                    }
                }
            }
        }
        mins
    }

    /// Replication-aware fetch target: reproduce
    /// [`VerticalPartitioning::fragments_for`]'s greedy set cover —
    /// including its tie-breaking — over `frags`, one table's selected
    /// fragments in column order, so costs agree with the slow path
    /// exactly.
    fn overlapping_target(frags: &[PartFrag], needed: u128) -> FetchTarget {
        let mut remaining = needed;
        let (mut pages, mut count) = (0u64, 0usize);
        while remaining != 0 {
            // Last maximal coverage wins, as `Iterator::max_by_key` does.
            // A picked fragment covers nothing of `remaining` any more, so
            // it can win again only when nothing covers anything.
            let mut best: Option<(&PartFrag, u32)> = None;
            for g in frags {
                let cov = (g.mask & remaining).count_ones();
                if best.is_none_or(|(_, c)| cov >= c) {
                    best = Some((g, cov));
                }
            }
            match best {
                Some((g, cov)) if cov > 0 => {
                    remaining &= !g.mask;
                    pages += g.pages;
                    count += 1;
                }
                _ => break, // column not covered anywhere: malformed, stop
            }
        }
        FetchTarget {
            pages: pages.max(1) as f64,
            fragments: count.max(1),
        }
    }

    /// The per-lookup resolution [`Self::resolve_joint`] replaced, kept as
    /// its oracle: every slot scans the configuration and the toggle, and
    /// an overlapping table's fragments are collected and sorted per slot.
    #[cfg(test)]
    pub(crate) fn joint_cost_with_oracle(
        &self,
        query_id: usize,
        cfg: &JointConfig,
        toggle: &JointToggle,
    ) -> f64 {
        let partitions_active = !cfg.partitions_empty() || !toggle.is_noop();
        let qm = &self.queries[query_id];
        let slot_state: Vec<Option<PartSlotMins>> = qm
            .slots
            .iter()
            .enumerate()
            .map(|(s, slot)| {
                partitions_active
                    .then(|| self.slot_partition_state(query_id, s, slot, cfg, toggle))
                    .flatten()
            })
            .collect();
        self.joint_min_over_skeletons(qm, &cfg.indexes, &slot_state)
    }

    /// One slot's partition state resolved from the configuration and the
    /// toggle directly (the oracle's per-slot step).
    #[cfg(test)]
    fn slot_partition_state(
        &self,
        query_id: usize,
        slot_idx: usize,
        slot: &SlotCosts,
        cfg: &JointConfig,
        toggle: &JointToggle,
    ) -> Option<PartSlotMins> {
        let mut h_frac = 1.0f64;
        let mut has_split = false;
        let split_on = |sid: usize| {
            self.splits
                .get(sid)
                .is_some_and(|sp| sp.hp.table == slot.table)
                && (toggle.add_split == Some(sid) || toggle.remove_split != Some(sid))
        };
        for sid in cfg.splits.ids().filter(|&sid| split_on(sid)).chain(
            toggle
                .add_split
                .filter(|&sid| split_on(sid) && !cfg.splits.contains(sid)),
        ) {
            h_frac = self.splits[sid].frac[query_id][slot_idx];
            has_split = true;
        }

        let frag_on = |fid: usize| {
            self.fragments
                .get(fid)
                .is_some_and(|fr| fr.table == slot.table)
                && (toggle.add_fragment == Some(fid)
                    || (toggle.remove_fragments[0] != Some(fid)
                        && toggle.remove_fragments[1] != Some(fid)))
        };
        let mut any = false;
        let mut disjoint_pages = 0u64;
        let mut touched = 0usize;
        let mut union_mask = 0u128;
        let mut popcount_sum = 0u32;
        for fid in cfg.fragments.ids().filter(|&fid| frag_on(fid)).chain(
            toggle
                .add_fragment
                .filter(|&fid| frag_on(fid) && !cfg.fragments.contains(fid)),
        ) {
            any = true;
            let fr = &self.fragments[fid];
            union_mask |= fr.mask;
            popcount_sum += fr.mask.count_ones();
            if fr.mask & slot.needed_mask != 0 {
                disjoint_pages += fr.pages;
                touched += 1;
            }
        }
        if !any && !has_split {
            return None;
        }
        let target = if !any {
            slot.base_target
        } else if popcount_sum == union_mask.count_ones() {
            FetchTarget {
                pages: disjoint_pages.max(1) as f64,
                fragments: touched.max(1),
            }
        } else {
            let selected = |fid: usize| {
                toggle.add_fragment == Some(fid)
                    || (cfg.fragments.contains(fid)
                        && toggle.remove_fragments[0] != Some(fid)
                        && toggle.remove_fragments[1] != Some(fid))
            };
            let mut groups: Vec<&Fragment> = self.frags_by_table[slot.table.0 as usize]
                .iter()
                .filter(|&&fid| selected(fid))
                .map(|&fid| &*self.fragments[fid])
                .collect();
            groups.sort_by(|a, b| a.columns.cmp(&b.columns));
            let mut remaining = slot.needed_mask;
            let mut picked = vec![false; groups.len()];
            let mut pages = 0u64;
            let mut count = 0usize;
            while remaining != 0 {
                let mut best: Option<(usize, u32)> = None;
                for (i, g) in groups.iter().enumerate() {
                    if picked[i] {
                        continue;
                    }
                    let cov = (g.mask & remaining).count_ones();
                    if best.is_none_or(|(_, c)| cov >= c) {
                        best = Some((i, cov));
                    }
                }
                match best {
                    Some((i, cov)) if cov > 0 => {
                        remaining &= !groups[i].mask;
                        picked[i] = true;
                        pages += groups[i].pages;
                        count += 1;
                    }
                    _ => break,
                }
            }
            FetchTarget {
                pages: pages.max(1) as f64,
                fragments: count.max(1),
            }
        };
        Some(self.partition_mins(slot, &cfg.indexes, target, h_frac))
    }

    /// The shared hot path: cost with one candidate virtually added
    /// (`add`) and/or removed (`remove`); `usize::MAX` disables a toggle.
    /// Mirrors [`Inum::cost`]'s skeleton loop exactly so the two agree
    /// bit-for-bit on configurations the matrix covers. Counts one lookup.
    fn cost_toggled(
        &self,
        query_id: usize,
        config: &CandidateBitset,
        add: usize,
        remove: usize,
    ) -> f64 {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        let qm = &self.queries[query_id];
        let mut best = f64::INFINITY;
        for (internal, reqs) in qm.internal.iter().zip(&qm.reqs) {
            let mut total = *internal;
            for (slot, &req) in qm.slots.iter().zip(reqs.iter()) {
                let mut m = if req == NO_ORDER {
                    slot.base_unordered
                } else {
                    slot.base_ordered[req as usize]
                };
                for cand in &slot.cands {
                    if (!config.contains(cand.id) && cand.id != add) || cand.id == remove {
                        continue;
                    }
                    let c = if req == NO_ORDER {
                        cand.unordered
                    } else {
                        cand.ordered[req as usize]
                    };
                    if c < m {
                        m = c;
                    }
                }
                total += m;
                if total >= best {
                    total = f64::INFINITY;
                    break; // early exit: already worse (or infeasible)
                }
            }
            if total < best {
                best = total;
            }
        }
        // `INFINITY` is a legitimate "no feasible plan under this
        // skeleton" sentinel, but NaN means a poisoned float reached the
        // accumulation — the catalog edge is supposed to make that
        // impossible.
        debug_assert!(!best.is_nan(), "cost accumulation produced NaN");
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::spawned_workers;
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_catalog::Catalog;
    use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
    use pgdesign_optimizer::Optimizer;
    use pgdesign_query::generators::sdss_workload;

    fn setup() -> (Catalog, Optimizer) {
        (sdss_catalog(0.01), Optimizer::new())
    }

    #[test]
    fn a_shared_key_never_serves_another_querys_cells() {
        let (c, opt) = setup();
        let parse = |sql| pgdesign_query::parse_query(&c.schema, sql).expect("test SQL parses");
        let single = parse("SELECT ra FROM photoobj WHERE objid = 5");
        let join = parse("SELECT p.ra FROM photoobj p, specobj s WHERE p.objid = s.bestobjid");
        let mut w = Workload::new();
        w.push(single.clone(), 1.0);
        w.push(join.clone(), 1.0);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default()).indexes;
        let honest = CostMatrix::build(&Inum::new(&c, &opt), &w, &cands);

        // Two different queries forced onto one key.
        const KEY: u64 = 0x5eed;
        let inum = Inum::new(&c, &opt);
        let mut m = CostMatrix::build(&inum, &Workload::new(), &cands);
        let unlimited = WorkBudget::unlimited();
        let batch = vec![(KEY, &single, 1.0), (KEY, &join, 1.0), (KEY, &single, 1.0)];
        let ids: Vec<usize> = m
            .add_keyed_queries(batch, &unlimited, Workers::Exactly(1))
            .into_iter()
            .map(|id| id.expect("an unlimited budget admits every query"))
            .collect();
        assert_ne!(ids[0], ids[1], "a key match with another query is a miss");
        assert_eq!(ids[2], ids[0], "an equal query shares the slot");
        assert_eq!(
            m.add_keyed_queries(vec![(KEY, &join, 1.0)], &unlimited, Workers::Exactly(1)),
            vec![Some(ids[1])],
            "a later batch finds the resident it equals"
        );
        for cfg in [m.empty_config(), m.config_of(0..cands.len())] {
            for (id, honest_id) in [(ids[0], 0), (ids[1], 1)] {
                assert_eq!(
                    m.cost(id, &cfg).to_bits(),
                    honest.cost(honest_id, &cfg).to_bits()
                );
            }
        }
    }

    #[test]
    fn bitset_insert_remove_contains() {
        let mut s = CandidateBitset::new(130);
        assert!(s.is_empty());
        for id in [0, 63, 64, 129] {
            s.insert(id);
            assert!(s.contains(id));
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.ids().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        s.remove(64);
        assert!(!s.contains(64));
        assert!(!s.contains(500), "out-of-range ids are simply absent");
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn matrix_matches_inum_on_every_singleton_and_pair() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 101);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let matrix = CostMatrix::build(&inum, &w, &cands.indexes);
        for (qi, (q, _)) in w.iter().enumerate() {
            let empty = matrix.empty_config();
            assert_eq!(
                matrix.cost(qi, &empty),
                inum.cost(&PhysicalDesign::empty(), q),
                "empty config must match Q{qi}"
            );
            for a in 0..cands.indexes.len().min(8) {
                let solo = matrix.config_of([a]);
                let d = PhysicalDesign::with_indexes([cands.indexes[a].clone()]);
                assert_eq!(matrix.cost(qi, &solo), inum.cost(&d, q), "solo {a} Q{qi}");
                for b in (a + 1)..cands.indexes.len().min(8) {
                    let pair = matrix.config_of([a, b]);
                    let d = PhysicalDesign::with_indexes([
                        cands.indexes[a].clone(),
                        cands.indexes[b].clone(),
                    ]);
                    assert_eq!(
                        matrix.cost(qi, &pair),
                        inum.cost(&d, q),
                        "pair ({a},{b}) Q{qi}"
                    );
                }
            }
        }
    }

    #[test]
    fn toggled_costs_match_materialized_configs() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 102);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let matrix = CostMatrix::build(&inum, &w, &cands.indexes);
        let base_ids = [0usize, 2];
        let base = matrix.config_of(base_ids);
        for qi in 0..matrix.n_queries() {
            // plus
            let extra = 1usize;
            let mut plus = base.clone();
            plus.insert(extra);
            assert_eq!(
                matrix.cost_plus(qi, &base, extra),
                matrix.cost(qi, &plus),
                "cost_plus must equal materialized union (Q{qi})"
            );
            let delta = matrix.delta_add(qi, &base, extra);
            assert!(
                (delta - (matrix.cost(qi, &plus) - matrix.cost(qi, &base))).abs() < 1e-12,
                "delta_add must equal full re-evaluation (Q{qi})"
            );
            // minus
            let removed = 2usize;
            let mut minus = base.clone();
            minus.remove(removed);
            assert_eq!(
                matrix.cost_minus(qi, &base, removed),
                matrix.cost(qi, &minus),
                "cost_minus must equal materialized difference (Q{qi})"
            );
        }
    }

    #[test]
    fn workload_cost_is_weighted_sum() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let mut w = pgdesign_query::Workload::new();
        let q = pgdesign_query::parse_query(&c.schema, "SELECT ra FROM photoobj WHERE objid = 7")
            .unwrap();
        w.push(q.clone(), 2.0);
        w.push(q, 3.0);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let matrix = CostMatrix::build(&inum, &w, &cands.indexes);
        let cfg = matrix.config_of([0]);
        let manual: f64 = 2.0 * matrix.cost(0, &cfg) + 3.0 * matrix.cost(1, &cfg);
        assert!((matrix.workload_cost(&cfg) - manual).abs() < 1e-9);
    }

    #[test]
    fn joint_cost_matches_inum_on_partitioned_designs() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 104);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let mut matrix = CostMatrix::build(&inum, &w, &cands.indexes);
        let photo = c.schema.table_by_name("photoobj").unwrap().id;

        // Disjoint vertical fragments + a horizontal split + two indexes.
        let f1 = matrix.register_fragment(photo, &[0, 1, 2]);
        let f2 = matrix.register_fragment(photo, &(3..16).collect::<Vec<u16>>());
        let split = matrix.register_split(pgdesign_catalog::design::HorizontalPartitioning::new(
            photo,
            1,
            (1..10).map(|i| i as f64 * 36.0).collect(),
        ));
        let mut cfg = matrix.empty_joint();
        cfg.indexes.insert(0);
        if cands.indexes.len() > 1 {
            cfg.indexes.insert(1);
        }
        cfg.fragments.insert(f1);
        cfg.fragments.insert(f2);
        cfg.splits.insert(split);

        let design = matrix.joint_design_of(&cfg);
        assert!(design.vertical(photo).is_some());
        assert!(design.horizontal(photo).is_some());
        for (qi, (q, _)) in w.iter().enumerate() {
            let fast = matrix.joint_cost(qi, &cfg);
            let oracle = inum.cost(&design, q);
            assert!(
                (fast - oracle).abs() <= 1e-6 * oracle.abs().max(1.0),
                "joint {fast} vs inum {oracle} (Q{qi})"
            );
        }
    }

    #[test]
    fn joint_cost_matches_inum_with_replicated_fragments() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 105);
        let mut matrix = CostMatrix::build(&inum, &w, &[]);
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        // Overlapping groups: column 0 replicated into both fragments —
        // exercises the greedy set-cover reproduction.
        let f1 = matrix.register_fragment(photo, &[0, 1, 2]);
        let f2 = matrix.register_fragment(photo, &(0..16).skip(3).chain([0]).collect::<Vec<u16>>());
        let mut cfg = matrix.empty_joint();
        cfg.fragments.insert(f1);
        cfg.fragments.insert(f2);
        let design = matrix.joint_design_of(&cfg);
        for (qi, (q, _)) in w.iter().enumerate() {
            let fast = matrix.joint_cost(qi, &cfg);
            let oracle = inum.cost(&design, q);
            assert!(
                (fast - oracle).abs() <= 1e-6 * oracle.abs().max(1.0),
                "replicated joint {fast} vs inum {oracle} (Q{qi})"
            );
        }
    }

    #[test]
    fn joint_cost_with_empty_partitions_equals_index_path() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 106);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let matrix = CostMatrix::build(&inum, &w, &cands.indexes);
        let mut cfg = matrix.empty_joint();
        for id in (0..cands.indexes.len()).step_by(2) {
            cfg.indexes.insert(id);
        }
        for qi in 0..matrix.n_queries() {
            assert_eq!(
                matrix.joint_cost(qi, &cfg),
                matrix.cost(qi, &cfg.indexes),
                "no partitions selected: joint must equal the index-only path (Q{qi})"
            );
        }
    }

    #[test]
    fn toggled_joint_costs_match_materialized_configs() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 107);
        let mut matrix = CostMatrix::build(&inum, &w, &[]);
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        let a = matrix.register_fragment(photo, &[0, 1, 2]);
        let b = matrix.register_fragment(photo, &[3, 4, 5]);
        let rest = matrix.register_fragment(photo, &(6..16).collect::<Vec<u16>>());
        let merged = matrix.register_fragment(photo, &[0, 1, 2, 3, 4, 5]);
        let split = matrix.register_split(pgdesign_catalog::design::HorizontalPartitioning::new(
            photo,
            1,
            vec![90.0, 180.0, 270.0],
        ));

        let mut cfg = matrix.empty_joint();
        for f in [a, b, rest] {
            cfg.fragments.insert(f);
        }

        // delta_merge against materialized re-evaluation.
        let mut merged_cfg = matrix.empty_joint();
        merged_cfg.fragments.insert(rest);
        merged_cfg.fragments.insert(merged);
        let full = matrix.joint_workload_cost(&merged_cfg) - matrix.joint_workload_cost(&cfg);
        let delta = matrix.delta_merge(&cfg, a, b, merged);
        assert!(
            (delta - full).abs() < 1e-9,
            "delta_merge {delta} vs full {full}"
        );

        // delta_split against materialized re-evaluation.
        let mut split_cfg = cfg.clone();
        split_cfg.splits.insert(split);
        let full = matrix.joint_workload_cost(&split_cfg) - matrix.joint_workload_cost(&cfg);
        let delta = matrix.delta_split(&cfg, split);
        assert!(
            (delta - full).abs() < 1e-9,
            "delta_split {delta} vs full {full}"
        );
    }

    #[test]
    fn merge_toggle_whose_result_equals_an_input_keeps_it_selected() {
        // After replication, one group can be a subset of another; a merge
        // of (subset, superset) registers to the superset's own id. The
        // trial must then cost `cfg ∖ {subset}` — the add wins over the
        // remove of the same id — not a configuration missing both.
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 110);
        let mut matrix = CostMatrix::build(&inum, &w, &[]);
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        let a = matrix.register_fragment(photo, &[0, 1, 2]);
        let b = matrix.register_fragment(photo, &[0, 1, 2, 3, 4, 5]);
        let rest = matrix.register_fragment(photo, &(6..16).collect::<Vec<u16>>());
        let mut cfg = matrix.empty_joint();
        for f in [a, b, rest] {
            cfg.fragments.insert(f);
        }
        let trial = matrix.joint_workload_cost_with(&cfg, &JointToggle::merge(a, b, b));
        let mut expect_cfg = matrix.empty_joint();
        expect_cfg.fragments.insert(b);
        expect_cfg.fragments.insert(rest);
        let expect = matrix.joint_workload_cost(&expect_cfg);
        assert!(
            (trial - expect).abs() < 1e-9,
            "merge(a, b, b) must cost cfg ∖ {{a}}: {trial} vs {expect}"
        );
    }

    /// The resolved read path ([`MatrixCore::resolve_joint`] once per
    /// costing) and the per-lookup oracle ([`MatrixCore::joint_cost_with_oracle`])
    /// agree bit for bit under random configurations: overlapping random
    /// column groups, splits, index subsets, and toggles that add and
    /// remove one id at once or name ids the matrix does not know.
    fn assert_resolved_path_matches_oracle(catalog: &Catalog, workload: &Workload, seed: u64) {
        use pgdesign_catalog::design::HorizontalPartitioning;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let opt = Optimizer::new();
        let inum = Inum::new(catalog, &opt);
        let cands = workload_candidates(catalog, workload, &CandidateConfig::default()).indexes;
        let mut m = CostMatrix::build(&inum, workload, &cands);
        let mut rng = StdRng::seed_from_u64(seed);
        for t in catalog.schema.tables() {
            let width = t.width();
            for _ in 0..rng.random_range(0..5usize) {
                let group: Vec<u16> = (0..width).filter(|_| rng.random_range(0..3) == 0).collect();
                if !group.is_empty() {
                    m.register_fragment(t.id, &group);
                }
            }
            if rng.random_range(0..2usize) == 0 {
                let col = rng.random_range(0..width);
                let stats = catalog.table_stats(t.id).column(col);
                let bounds = (1..rng.random_range(2..9usize))
                    .map(|i| stats.min + (stats.max - stats.min) * i as f64 / 8.0)
                    .collect();
                m.register_split(HorizontalPartitioning::new(t.id, col, bounds));
            }
        }
        let (n_frags, n_splits) = (m.n_fragments(), m.n_splits());
        // Any registered id, sometimes one past the registry.
        let mut id = |n: usize| rng.random_range(0..n + 2);
        for _ in 0..12 {
            let mut cfg = m.empty_joint();
            for _ in 0..id(cands.len()) {
                cfg.indexes.insert(id(cands.len()));
            }
            for _ in 0..id(n_frags) {
                cfg.fragments.insert(id(n_frags));
            }
            for _ in 0..id(n_splits) % 3 {
                cfg.splits.insert(id(n_splits));
            }
            let add = id(n_frags);
            let toggle = JointToggle {
                add_fragment: (id(3) > 0).then_some(add),
                remove_fragments: [
                    Some(if id(2) == 0 { add } else { id(n_frags) }),
                    (id(2) > 0).then(|| id(n_frags)),
                ],
                add_split: (id(2) == 0).then(|| id(n_splits)),
                remove_split: (id(2) == 0).then(|| id(n_splits)),
            };
            for toggle in [JointToggle::default(), toggle] {
                let resolved = m.resolve_joint(&cfg, &toggle);
                let mut oracle_total = 0.0;
                for qi in m.active_query_ids() {
                    let want = m.joint_cost_with_oracle(qi, &cfg, &toggle);
                    oracle_total += m.query_weight(qi) * want;
                    for got in [
                        m.joint_cost_resolved(qi, &resolved),
                        m.joint_cost_with(qi, &cfg, &toggle),
                    ] {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "Q{qi} {toggle:?}: {got} vs {want}"
                        );
                    }
                }
                let total = m.joint_workload_cost_with(&cfg, &toggle);
                assert_eq!(total.to_bits(), oracle_total.to_bits(), "{toggle:?}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn resolved_read_path_matches_the_oracle_on_sdss(seed in 0u64..10_000, n in 3usize..12) {
            let c = sdss_catalog(0.01);
            assert_resolved_path_matches_oracle(&c, &sdss_workload(&c, n, seed), seed ^ 0x2e5);
        }

        #[test]
        fn resolved_read_path_matches_the_oracle_on_tpch(seed in 0u64..10_000, n in 3usize..10) {
            let c = pgdesign_catalog::samples::tpch_catalog(0.01);
            let w = pgdesign_query::generators::tpch_workload(&c, n, seed);
            assert_resolved_path_matches_oracle(&c, &w, seed ^ 0x7c4);
        }
    }

    #[test]
    fn registration_is_deduplicated() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 3, 108);
        let mut matrix = CostMatrix::build(&inum, &w, &[]);
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        let a = matrix.register_fragment(photo, &[2, 1, 0]);
        let b = matrix.register_fragment(photo, &[0, 1, 2, 2]);
        assert_eq!(a, b, "normalised duplicates collapse to one id");
        assert_eq!(matrix.n_fragments(), 1);
        assert_eq!(matrix.fragment_columns(a), &[0, 1, 2]);
        let hp = pgdesign_catalog::design::HorizontalPartitioning::new(photo, 1, vec![100.0]);
        let s1 = matrix.register_split(hp.clone());
        let s2 = matrix.register_split(hp);
        assert_eq!(s1, s2);
        assert_eq!(matrix.n_splits(), 1);
    }

    #[test]
    fn partition_counters_accumulate() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 3, 109);
        let mut matrix = CostMatrix::build(&inum, &w, &[]);
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        let before = inum.matrix_stats();
        let f = matrix.register_fragment(photo, &[0, 1]);
        let rest = matrix.register_fragment(photo, &(2..16).collect::<Vec<u16>>());
        let after_reg = inum.matrix_stats();
        assert!(after_reg.partition_cells >= before.partition_cells + 2);
        let mut cfg = matrix.empty_joint();
        cfg.fragments.insert(f);
        cfg.fragments.insert(rest);
        let _ = matrix.joint_workload_cost(&cfg);
        let s = inum.matrix_stats();
        assert_eq!(
            s.partition_lookups,
            after_reg.partition_lookups + w.len() as u64
        );
        assert_eq!(s.lookups, after_reg.lookups + w.len() as u64);
    }

    #[test]
    fn add_candidate_matches_fresh_build_and_keeps_ids_stable() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 111);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        assert!(cands.indexes.len() >= 3);
        // Build over a prefix, then add the rest incrementally.
        let split = cands.indexes.len() / 2;
        let mut grown = CostMatrix::build(&inum, &w, &cands.indexes[..split]);
        for idx in &cands.indexes[split..] {
            grown.add_candidate(idx);
        }
        let fresh = CostMatrix::build(&inum, &w, &cands.indexes);
        for qi in 0..w.len() {
            for id in 0..cands.indexes.len() {
                let solo = fresh.config_of([id]);
                assert_eq!(
                    grown.cost(qi, &solo),
                    fresh.cost(qi, &solo),
                    "incremental candidate {id} must cost bit-identically (Q{qi})"
                );
            }
        }
        // Re-registering returns the existing id and counts reuse.
        let before = inum.matrix_stats();
        let id = grown.add_candidate(&cands.indexes[0]);
        assert_eq!(id, 0, "ids are stable");
        let after = inum.matrix_stats();
        assert_eq!(after.cells, before.cells, "no cells recomputed on reuse");
        assert!(after.cells_reused > before.cells_reused);
    }

    #[test]
    fn bulk_add_candidates_matches_one_at_a_time_and_serial() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 115);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        assert!(cands.indexes.len() >= 3);
        let split = cands.indexes.len() / 3;
        let rest = &cands.indexes[split..];

        // Bulk (parallel), bulk (pinned serial), and one-at-a-time growth
        // from the same prefix must produce bit-identical cells and ids.
        let mut bulk = CostMatrix::build(&inum, &w, &cands.indexes[..split]);
        let spawned = spawned_workers();
        let bulk_ids = bulk.add_candidates_with_workers(rest, Workers::Exactly(4));
        assert_eq!(
            spawned_workers() - spawned,
            3,
            "the bulk ran on four workers"
        );
        let mut serial = CostMatrix::build(&inum, &w, &cands.indexes[..split]);
        let serial_ids = serial.add_candidates_with_workers(rest, Workers::Exactly(1));
        let mut single = CostMatrix::build(&inum, &w, &cands.indexes[..split]);
        let single_ids: Vec<usize> = rest.iter().map(|idx| single.add_candidate(idx)).collect();
        assert_eq!(bulk_ids, single_ids, "bulk ids must match one-at-a-time");
        assert_eq!(bulk_ids, serial_ids, "thread count must not affect ids");
        for qi in 0..w.len() {
            for id in 0..cands.indexes.len() {
                let solo = bulk.config_of([id]);
                let cb = bulk.cost(qi, &solo);
                assert_eq!(cb, single.cost(qi, &solo), "bulk vs single {id} Q{qi}");
                assert_eq!(cb, serial.cost(qi, &solo), "bulk vs serial {id} Q{qi}");
            }
            let all = bulk.config_of(0..cands.indexes.len());
            assert_eq!(bulk.cost(qi, &all), single.cost(qi, &all));
        }

        // A batch containing duplicates (resident + within-batch) resolves
        // them to one id without recomputing cells.
        let before = inum.matrix_stats();
        let dup_batch = [rest[0].clone(), cands.indexes[0].clone(), rest[0].clone()];
        let dup_ids = bulk.add_candidates(&dup_batch);
        assert_eq!(dup_ids[0], bulk_ids[0]);
        assert_eq!(dup_ids[1], 0);
        assert_eq!(
            dup_ids[2], dup_ids[0],
            "within-batch duplicate shares the id"
        );
        let after = inum.matrix_stats();
        assert_eq!(after.cells, before.cells, "duplicates recompute nothing");
        assert!(after.cells_reused > before.cells_reused);
    }

    #[test]
    fn remove_candidate_recycles_the_id_and_clears_cells() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 112);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let mut matrix = CostMatrix::build(&inum, &w, &cands.indexes);
        let victim = 1usize.min(cands.indexes.len() - 1);
        let all = matrix.config_of(0..cands.indexes.len());
        matrix.remove_candidate(victim);
        assert!(matrix.candidate(victim).is_none());
        // A bitset still holding the removed id matches nothing: costs
        // equal the configuration without it.
        let mut without = all.clone();
        without.remove(victim);
        for qi in 0..w.len() {
            assert_eq!(matrix.cost(qi, &all), matrix.cost(qi, &without));
        }
        // The freed id is recycled; other ids are untouched.
        let new_idx = Index::new(cands.indexes[0].table, vec![15]);
        if !cands.indexes.contains(&new_idx) {
            assert_eq!(matrix.add_candidate(&new_idx), victim);
            assert_eq!(matrix.candidate(victim), Some(&new_idx));
        }
        matrix.remove_candidate(9999); // out of range: no-op
    }

    #[test]
    fn add_and_retire_queries_rotate_slots() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 6, 113);
        let extra = sdss_workload(&c, 9, 114);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let mut matrix = CostMatrix::build(&inum, &w, &cands.indexes);
        let n0 = matrix.n_queries();

        // Adding a resident query reuses its slot (weights add, no cells).
        let before = inum.matrix_stats();
        let id = matrix.add_query(w.query(2), 2.5);
        assert_eq!(id, 2);
        assert_eq!(matrix.n_queries(), n0, "no new slot for a resident query");
        assert!((matrix.query_weight(2) - 3.5).abs() < 1e-12);
        let after = inum.matrix_stats();
        assert_eq!(after.cells, before.cells);
        assert!(after.cells_reused > before.cells_reused);

        // Retire, then add a new query: the slot is reused.
        matrix.retire_query(2);
        assert!(!matrix.query_active(2));
        assert_eq!(matrix.query_weight(2), 0.0);
        assert!(matrix.cost(2, &matrix.empty_config()).is_infinite());
        let nid = matrix.add_query(extra.query(8), 1.0);
        assert_eq!(nid, 2, "retired slots are reused first");
        assert!(matrix.query_active(2));
        // The reused slot costs like a fresh single-query build.
        let solo = Workload::from_queries([extra.query(8).clone()]);
        let fresh = CostMatrix::build(&inum, &solo, &cands.indexes);
        let cfg = matrix.config_of([0]);
        assert_eq!(matrix.cost(2, &cfg), fresh.cost(0, &cfg));
        // Workload cost counts active slots only.
        let manual: f64 = matrix
            .active_query_ids()
            .map(|qi| matrix.query_weight(qi) * matrix.cost(qi, &cfg))
            .sum();
        assert!((matrix.workload_cost(&cfg) - manual).abs() < 1e-9);
    }

    #[test]
    fn add_query_extends_registered_splits() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 4, 115);
        let extra = sdss_workload(&c, 9, 116);
        let mut matrix = CostMatrix::build(&inum, &w, &[]);
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        let split = matrix.register_split(pgdesign_catalog::design::HorizontalPartitioning::new(
            photo,
            1,
            (1..10).map(|i| i as f64 * 36.0).collect(),
        ));
        // Query added *after* the split registration still costs correctly
        // under it (fractions are extended on install).
        let qid = matrix.add_query(extra.query(0), 1.0);
        let mut cfg = matrix.empty_joint();
        cfg.splits.insert(split);
        let design = matrix.joint_design_of(&cfg);
        let fast = matrix.joint_cost(qid, &cfg);
        let oracle = inum.cost(&design, extra.query(0));
        assert!(
            (fast - oracle).abs() <= 1e-6 * oracle.abs().max(1.0),
            "late-added query under a split: {fast} vs {oracle}"
        );
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 12, 117);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let serial = CostMatrix::build_with_threads(&inum, &w, &cands.indexes, 1);
        let spawned = spawned_workers();
        let parallel = CostMatrix::build_with_threads(&inum, &w, &cands.indexes, 4);
        assert_eq!(
            spawned_workers() - spawned,
            3,
            "the build ran on four workers"
        );
        for qi in 0..w.len() {
            assert_eq!(
                serial.cost(qi, &serial.empty_config()),
                parallel.cost(qi, &parallel.empty_config())
            );
            for id in 0..cands.indexes.len() {
                let cfg = serial.config_of([id]);
                assert_eq!(
                    serial.cost(qi, &cfg),
                    parallel.cost(qi, &cfg),
                    "serial and parallel builds must agree bit-for-bit (Q{qi}, cand {id})"
                );
            }
        }
    }

    #[test]
    fn counters_accumulate_on_the_inum_instance() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 103);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let matrix = CostMatrix::build(&inum, &w, &cands.indexes);
        let after_build = inum.matrix_stats();
        assert_eq!(after_build.builds, 1);
        assert!(after_build.cells > 0);
        let empty = matrix.empty_config();
        for qi in 0..matrix.n_queries() {
            let _ = matrix.cost(qi, &empty);
        }
        let s = inum.matrix_stats();
        assert_eq!(s.lookups, after_build.lookups + w.len() as u64);
    }

    #[test]
    fn budgeted_add_queries_commits_a_prefix_and_resumes_exactly() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 6, 201);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        // Start from an empty workload and feed it in under a 3-unit
        // budget, serially so the committed prefix is deterministic.
        let mut m = CostMatrix::build_with_threads(
            &inum,
            &pgdesign_query::Workload::new(),
            &cands.indexes,
            1,
        );
        let entries: Vec<(&Query, f64)> = w.iter().collect();
        let budget = WorkBudget::with_units(3);
        let ids = m.add_queries_budgeted_with_workers(
            entries.iter().copied(),
            &budget,
            Workers::Exactly(1),
        );
        assert_eq!(ids.len(), 6);
        let committed: Vec<usize> = ids.iter().filter_map(|id| *id).collect();
        assert_eq!(committed.len(), 3, "exactly the budgeted prefix commits");
        assert!(ids[3..].iter().all(|id| id.is_none()));
        // Resume the remainder with an unlimited budget: every deferred
        // entry lands, and the final matrix costs like a fresh build.
        let rest: Vec<(&Query, f64)> = entries[3..].to_vec();
        let more = m.add_queries_budgeted_with_workers(
            rest.iter().copied(),
            &WorkBudget::unlimited(),
            Workers::Exactly(1),
        );
        assert!(more.iter().all(|id| id.is_some()));
        let fresh = CostMatrix::build_with_threads(&inum, &w, &cands.indexes, 1);
        let cfg = m.config_of([0, 1]);
        let cfg_f = fresh.config_of([0, 1]);
        for qi in 0..3 {
            assert_eq!(m.cost(qi, &cfg), fresh.cost(qi, &cfg_f), "Q{qi}");
        }
    }

    #[test]
    fn budgeted_add_candidates_commits_whole_candidates_only() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 5, 202);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        assert!(cands.indexes.len() >= 4);
        let mut m = CostMatrix::build_with_threads(&inum, &w, &[], 1);
        let budget = WorkBudget::with_units(2);
        let ids =
            m.add_candidates_budgeted_with_workers(&cands.indexes, &budget, Workers::Exactly(1));
        let committed: Vec<usize> = ids.iter().filter_map(|id| *id).collect();
        assert_eq!(committed.len(), 2, "one unit per new candidate");
        // Committed candidates cost exactly as in a matrix that only ever
        // saw them — whole-candidate commit, no partial cells.
        let subset: Vec<Index> = committed
            .iter()
            .map(|&id| m.candidate(id).unwrap().clone())
            .collect();
        let fresh = CostMatrix::build_with_threads(&inum, &w, &subset, 1);
        for qi in 0..m.n_queries() {
            let cfg = m.config_of(committed.iter().copied());
            let cfg_f = fresh.config_of(0..subset.len());
            assert_eq!(m.cost(qi, &cfg), fresh.cost(qi, &cfg_f), "Q{qi}");
        }
        // Deferred candidates resume for free-list ids on the next call.
        let again = m.add_candidates_budgeted_with_workers(
            &cands.indexes,
            &WorkBudget::unlimited(),
            Workers::Exactly(1),
        );
        assert!(again.iter().all(|id| id.is_some()));
    }

    #[test]
    fn budgeted_journal_records_only_installed_work() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 6, 203);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let mut live =
            CostMatrix::build_with_threads(&inum, &pgdesign_query::Workload::new(), &[], 1);
        live.enable_journal();
        let entries: Vec<(&Query, f64)> = w.iter().collect();
        let _ = live.add_queries_budgeted_with_workers(
            entries.iter().copied(),
            &WorkBudget::with_units(4),
            Workers::Exactly(1),
        );
        let _ = live.add_candidates_budgeted_with_workers(
            &cands.indexes,
            &WorkBudget::with_units(3),
            Workers::Exactly(1),
        );
        live.publish();
        let edits = live.take_journal();
        // Replay against the same empty base reproduces the budgeted
        // state exactly — the journal described installed work only.
        let mut replayed =
            CostMatrix::build_with_threads(&inum, &pgdesign_query::Workload::new(), &[], 1);
        for e in &edits {
            replayed.apply_edit(e);
        }
        assert_eq!(replayed.n_queries(), live.n_queries());
        let live_cands: Vec<(usize, &Index)> = live.candidates().collect();
        let replay_cands: Vec<(usize, &Index)> = replayed.candidates().collect();
        assert_eq!(live_cands, replay_cands);
        let all: Vec<usize> = live_cands.iter().map(|(id, _)| *id).collect();
        for qi in 0..live.n_queries() {
            let a = live.cost(qi, &live.config_of(all.iter().copied()));
            let b = replayed.cost(qi, &replayed.config_of(all.iter().copied()));
            assert_eq!(a, b, "replayed cost must be bit-identical (Q{qi})");
        }
    }
}
