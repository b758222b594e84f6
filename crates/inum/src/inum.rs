//! The INUM cost model: skeleton cache + per-design fast costing.

use crate::key::query_key;
use crate::matrix::{LookupCounters, MatrixStats};
use crate::parallel::{fan_out_with, Workers, CELLS_PER_COMBO};
use crate::skeleton_set::SkeletonSet;
use crate::wire::Wire;
use parking_lot::RwLock;
use pgdesign_catalog::design::PhysicalDesign;
use pgdesign_catalog::Catalog;
use pgdesign_durability::ByteWriter;
use pgdesign_optimizer::access::{self, AccessContext, SlotProfile};
use pgdesign_optimizer::optimizer::interesting_slot_orders;
use pgdesign_optimizer::plan::order_satisfies;
use pgdesign_optimizer::{JoinPlanner, Optimizer, Skeleton};
use pgdesign_query::ast::Query;
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cap on enumerated interesting-order combinations per query.
const MAX_COMBOS: usize = 64;

/// Cache and call counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InumStats {
    /// `cost()` invocations.
    pub cost_calls: u64,
    /// Skeleton sets served from cache.
    pub cache_hits: u64,
    /// Skeleton sets computed via the optimizer.
    pub cache_misses: u64,
    /// Interesting-order combinations planned by the optimizer — one
    /// skeleton each, whether or not it is kept (see [`Inum::skeletons`]).
    pub skeletons_built: u64,
    /// Skeleton-cache entries resident now, one per cached query. Equal
    /// to `cache_misses` until an entry leaves the cache: a statistics
    /// refresh ([`Inum::invalidate_table`]) or COLT's window sweep
    /// ([`crate::CostMatrix::retain_window_skeletons`]).
    pub resident_entries: u64,
}

/// One skeleton-cache entry: a query's undominated skeletons packed with
/// the query itself in canonical form (its wire bytes — what a key match
/// is confirmed against, at a fraction of a `Query`'s footprint), and the
/// tables it touches (a bitmask over `TableId.0`, [`ALL_TABLES`] when any
/// id overflows the mask), so a statistics refresh on one table can evict
/// only the entries it stales.
struct CacheEntry {
    table_mask: u64,
    skeletons: SkeletonSet,
}

/// The skeleton cache. A key is a 64-bit hash of input the user controls,
/// so two different queries can share one: an entry is served only to the
/// query it was planned for, and a key match with a different query is a
/// miss. The first query cached under a key sits in `first`; a different
/// query arriving under a taken key — a collision — goes to `collided`,
/// which is scanned only when `first` holds another query.
#[derive(Default)]
struct SkeletonCache {
    first: HashMap<u64, CacheEntry>,
    collided: Vec<(u64, CacheEntry)>,
}

impl SkeletonCache {
    /// The skeletons cached for `query` under `key`. The query is encoded
    /// only when the key is taken, into this thread's reused buffer, so a
    /// hit allocates nothing.
    fn get(&self, key: u64, query: &Query) -> Option<&SkeletonSet> {
        if !self.first.contains_key(&key) {
            return None;
        }
        ENCODED.with(|buf| match buf.try_borrow_mut() {
            Ok(mut w) => {
                w.clear();
                query.put(&mut w);
                self.find(key, w.as_bytes())
            }
            Err(_) => self.find(key, &canonical(query)),
        })
    }

    /// The skeletons cached for the query whose canonical bytes are
    /// `query`.
    fn find(&self, key: u64, query: &[u8]) -> Option<&SkeletonSet> {
        let first = self.first.get(&key)?;
        if first.skeletons.is_for(query) {
            return Some(&first.skeletons);
        }
        self.collided
            .iter()
            .find(|(k, e)| *k == key && e.skeletons.is_for(query))
            .map(|(_, e)| &e.skeletons)
    }

    /// Cache `skeletons` for `query` unless it already has an entry (a
    /// concurrent miss planned it first); returns the cached set.
    fn insert(&mut self, key: u64, query: &Query, skeletons: &[Skeleton]) -> SkeletonSet {
        let bytes = canonical(query);
        if let Some(cached) = self.find(key, &bytes) {
            return cached.clone();
        }
        let set = SkeletonSet::pack(&bytes, query.slot_count() as usize, skeletons);
        self.place(
            key,
            CacheEntry {
                table_mask: table_mask(query),
                skeletons: set.clone(),
            },
        );
        set
    }

    fn place(&mut self, key: u64, entry: CacheEntry) {
        match self.first.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(entry);
            }
            Entry::Occupied(_) => self.collided.push((key, entry)),
        }
    }

    fn len(&self) -> usize {
        self.first.len() + self.collided.len()
    }

    /// Keep only the entries whose key and table mask pass `keep`.
    fn retain(&mut self, keep: impl Fn(u64, u64) -> bool) {
        self.first.retain(|&key, e| keep(key, e.table_mask));
        for (key, e) in std::mem::take(&mut self.collided) {
            if keep(key, e.table_mask) {
                self.place(key, e);
            }
        }
    }
}

/// A query's canonical bytes: its wire encoding, equal exactly for equal
/// queries (literals compared by their bits).
fn canonical(query: &Query) -> Vec<u8> {
    crate::wire::to_bytes(query)
}

thread_local! {
    /// The buffer [`SkeletonCache::get`] encodes a query into to confirm a
    /// key match — kept per thread so the hit path does not allocate.
    static ENCODED: RefCell<ByteWriter> = RefCell::new(ByteWriter::new());
}

/// Conservative "touches every table" mask for queries whose table ids
/// don't fit the 64-bit mask.
const ALL_TABLES: u64 = u64::MAX;

/// The tables-touched mask of a query.
fn table_mask(query: &Query) -> u64 {
    let mut mask = 0u64;
    for t in &query.tables {
        if t.table.0 >= 64 {
            return ALL_TABLES;
        }
        mask |= 1 << t.table.0;
    }
    mask
}

/// The INUM cost model over a catalog and optimizer.
///
/// A cheap [`Clone`] handle: clones share one skeleton cache and one
/// counter block (a [`crate::CostMatrix`] holds a clone of the handle it
/// was built on, so its work is reported by every other clone's
/// [`Self::stats`] / [`Self::matrix_stats`]). [`Inum::new`] is what starts
/// a fresh cache and fresh counters.
#[derive(Clone)]
pub struct Inum<'a> {
    catalog: &'a Catalog,
    optimizer: &'a Optimizer,
    shared: Arc<Shared>,
}

/// The cache and counters every clone of one [`Inum`] handle shares.
#[derive(Default)]
struct Shared {
    cache: RwLock<SkeletonCache>,
    cost_calls: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    skeletons_built: AtomicU64,
    // Second-level (cost matrix) counters; bumped by `crate::matrix`.
    matrix_builds: AtomicU64,
    matrix_cells: AtomicU64,
    matrix_cells_reused: AtomicU64,
    matrix_build_nanos: AtomicU64,
    matrix_partition_cells: AtomicU64,
    /// Writer-side lookup counters: the block the cores of this
    /// instance's matrices count on ([`Self::lookup_counters`]).
    matrix_lookups: Arc<LookupCounters>,
    /// Serve every combination's skeleton, dominated ones included: the
    /// unpruned extraction the pruned cache is checked against.
    #[cfg(test)]
    unpruned: bool,
}

impl<'a> Inum<'a> {
    /// New INUM instance with an empty cache and zeroed counters.
    ///
    /// `optimizer.control` must allow hash or merge joins: skeletons are
    /// planned without nested loops, so a multi-table query has no
    /// skeleton, and costing it panics, when neither is allowed.
    pub fn new(catalog: &'a Catalog, optimizer: &'a Optimizer) -> Self {
        Inum {
            catalog,
            optimizer,
            shared: Arc::default(),
        }
    }

    /// An instance whose cache keeps every combination's skeleton — the
    /// oracle of the pruning in [`Self::skeletons`].
    #[cfg(test)]
    pub(crate) fn unpruned(catalog: &'a Catalog, optimizer: &'a Optimizer) -> Self {
        Inum {
            catalog,
            optimizer,
            shared: Arc::new(Shared {
                unpruned: true,
                ..Shared::default()
            }),
        }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }

    /// The underlying optimizer.
    pub fn optimizer(&self) -> &Optimizer {
        self.optimizer
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> InumStats {
        let s = &self.shared;
        InumStats {
            cost_calls: s.cost_calls.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            cache_misses: s.cache_misses.load(Ordering::Relaxed),
            skeletons_built: s.skeletons_built.load(Ordering::Relaxed),
            resident_entries: s.cache.read().len() as u64,
        }
    }

    /// Snapshot of the second-level (cost matrix) counters, aggregated
    /// over every [`crate::CostMatrix`] built on this instance.
    pub fn matrix_stats(&self) -> MatrixStats {
        let s = &self.shared;
        MatrixStats {
            builds: s.matrix_builds.load(Ordering::Relaxed),
            cells: s.matrix_cells.load(Ordering::Relaxed),
            cells_reused: s.matrix_cells_reused.load(Ordering::Relaxed),
            build_nanos: s.matrix_build_nanos.load(Ordering::Relaxed),
            lookups: s.matrix_lookups.lookups.load(Ordering::Relaxed),
            partition_cells: s.matrix_partition_cells.load(Ordering::Relaxed),
            partition_lookups: s.matrix_lookups.partition_lookups.load(Ordering::Relaxed),
        }
    }

    /// The counter block a writer-side [`crate::MatrixCore`] counts its
    /// lookups on, so they surface in [`Self::matrix_stats`].
    pub(crate) fn lookup_counters(&self) -> Arc<LookupCounters> {
        Arc::clone(&self.shared.matrix_lookups)
    }

    pub(crate) fn note_matrix_build(&self, cells: u64, nanos: u64) {
        let s = &self.shared;
        s.matrix_builds.fetch_add(1, Ordering::Relaxed);
        s.matrix_cells.fetch_add(cells, Ordering::Relaxed);
        s.matrix_build_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    pub(crate) fn note_matrix_incremental(&self, computed: u64, reused: u64, nanos: u64) {
        let s = &self.shared;
        s.matrix_cells.fetch_add(computed, Ordering::Relaxed);
        s.matrix_cells_reused.fetch_add(reused, Ordering::Relaxed);
        s.matrix_build_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    pub(crate) fn note_partition_cells(&self, cells: u64) {
        self.shared
            .matrix_partition_cells
            .fetch_add(cells, Ordering::Relaxed);
    }

    /// Warm the cache for every query of a workload: the distinct
    /// uncached queries are planned on one worker per ~1 ms of planning,
    /// at most [`build_threads`](crate::build_threads) — so a small batch
    /// stays on the calling thread — and cached in input order. Hits,
    /// misses and skeletons built are counted as
    /// [`Self::skeletons`] on each query in turn would count them, so the
    /// cache and every counter are the same at any thread count.
    pub fn prepare_workload(&self, workload: &pgdesign_query::Workload) {
        let keyed = workload.iter().map(|(q, _)| (query_key(q), q)).collect();
        self.prepare_keyed(keyed, Workers::sized());
    }

    /// [`Self::prepare_workload`] over explicitly keyed queries on chosen
    /// workers (tests force distinct queries onto one key, and the
    /// planning onto several workers, through it).
    pub(crate) fn prepare_keyed(&self, entries: Vec<(u64, &Query)>, workers: Workers) {
        let shared = &self.shared;
        let mut misses: Vec<(u64, &Query)> = Vec::new();
        {
            let cache = shared.cache.read();
            // First miss per key; a key shared by different queries falls
            // back to a scan of the misses.
            let mut first_miss: HashMap<u64, usize> = HashMap::new();
            let mut hits = 0u64;
            for (key, q) in entries {
                let pending = match first_miss.get(&key) {
                    Some(&i) if misses[i].1 == q => true,
                    Some(_) => misses.iter().any(|&(k, m)| k == key && m == q),
                    None => false,
                };
                if pending || cache.get(key, q).is_some() {
                    hits += 1;
                } else {
                    first_miss.entry(key).or_insert(misses.len());
                    misses.push((key, q));
                }
            }
            shared.cache_hits.fetch_add(hits, Ordering::Relaxed);
        }
        shared
            .cache_misses
            .fetch_add(misses.len() as u64, Ordering::Relaxed);
        let workers = workers.count(|| {
            let combos: usize = misses.iter().map(|&(_, q)| combination_count(q)).sum();
            combos * CELLS_PER_COMBO
        });
        let planned = fan_out_with(
            &misses,
            workers,
            JoinPlanner::default,
            |planner, &(_, q)| self.plan_skeletons(planner, q),
        );
        let mut cache = shared.cache.write();
        for ((key, q), skeletons) in misses.into_iter().zip(planned) {
            cache.insert(key, q, &skeletons);
        }
    }

    /// INUM cost of `query` under `design` — the reference path the
    /// agreement tests hold every level-2 read to, bit for bit.
    ///
    /// Access paths are enumerated *once per slot* and shared across all
    /// cached skeletons; each skeleton then reduces to a table lookup plus
    /// an addition, which is where the order-of-magnitude speedup over
    /// re-optimization comes from. It serves any design, partitions
    /// included; the production paths read level-2 cells instead
    /// ([`crate::CostMatrix`], and [`Self::price`] for one statement).
    pub fn cost(&self, design: &PhysicalDesign, query: &Query) -> f64 {
        self.shared.cost_calls.fetch_add(1, Ordering::Relaxed);
        let skeletons = self.skeletons(query);
        let ctx = AccessContext {
            catalog: self.catalog,
            design,
            params: &self.optimizer.params,
            query,
        };

        // One enumeration per slot: all candidate paths + equality-bound
        // columns (for order satisfaction) + the unordered minimum.
        struct PathLite {
            cost: f64,
            order: Vec<pgdesign_query::ast::QueryColumn>,
        }
        let n_slots = query.slot_count() as usize;
        let mut slot_paths: Vec<Vec<PathLite>> = Vec::with_capacity(n_slots);
        let mut slot_unordered: Vec<f64> = Vec::with_capacity(n_slots);
        let mut slot_eq_bound: Vec<Vec<pgdesign_query::ast::QueryColumn>> =
            Vec::with_capacity(n_slots);
        for slot in 0..query.slot_count() {
            let prof = SlotProfile::build(&ctx, slot, &[]);
            let paths: Vec<PathLite> = access::access_paths(&ctx, slot, &[])
                .into_iter()
                .map(|p| PathLite {
                    cost: p.cost,
                    order: p.order,
                })
                .collect();
            let unordered = paths.iter().map(|p| p.cost).fold(f64::INFINITY, f64::min);
            slot_paths.push(paths);
            slot_unordered.push(unordered);
            slot_eq_bound.push(prof.eq_bound);
        }

        // Per-slot memo of native-order minima, indexed by order id.
        let orders = skeletons.orders();
        let mut order_memo: Vec<Vec<Option<Option<f64>>>> =
            orders.iter().map(|o| vec![None; o.len()]).collect();

        let mut best = f64::INFINITY;
        for k in 0..skeletons.len() {
            let mut total = skeletons.internal_cost(k);
            let mut feasible = true;
            for slot in 0..query.slot_count() {
                let s = slot as usize;
                match skeletons.order_id(k, s) {
                    None => total += slot_unordered[s],
                    Some(id) => {
                        let min = *order_memo[s][id].get_or_insert_with(|| {
                            let required: Vec<pgdesign_query::ast::QueryColumn> = orders[s][id]
                                .iter()
                                .map(|&c| pgdesign_query::ast::QueryColumn::new(slot, c))
                                .collect();
                            slot_paths[s]
                                .iter()
                                .filter(|p| order_satisfies(&p.order, &required, &slot_eq_bound[s]))
                                .map(|p| p.cost)
                                .min_by(f64::total_cmp)
                        });
                        match min {
                            Some(c) => total += c,
                            None => {
                                feasible = false;
                                break;
                            }
                        }
                    }
                }
                if total >= best {
                    feasible = false;
                    break; // early exit: already worse
                }
            }
            if feasible && total < best {
                best = total;
            }
        }
        best
    }

    /// Full optimizer cost (no INUM reuse) for calibration/comparison.
    pub fn exact_cost(&self, design: &PhysicalDesign, query: &Query) -> f64 {
        self.optimizer.cost(self.catalog, design, query)
    }

    /// Weighted workload cost via the fast path.
    pub fn workload_cost(
        &self,
        design: &PhysicalDesign,
        workload: &pgdesign_query::Workload,
    ) -> f64 {
        workload.iter().map(|(q, w)| w * self.cost(design, q)).sum()
    }

    /// The skeleton set for a query (cached): of the skeletons of every
    /// interesting-order combination ([`order_combinations`], planned in
    /// one [`Optimizer::optimize_skeletons`] call), only those no other
    /// skeleton dominates (see [`Skeleton`]), in combination order, the
    /// all-`None` one always among them, packed into one [`SkeletonSet`].
    /// Every cost served from them is the one the full set gives, bit for
    /// bit.
    pub fn skeletons(&self, query: &Query) -> SkeletonSet {
        self.skeletons_keyed(query_key(query), query)
    }

    /// [`Self::skeletons`] under an explicit cache key — the matrix passes
    /// the key it already derived, and tests force distinct queries onto
    /// one key through it.
    pub(crate) fn skeletons_keyed(&self, key: u64, query: &Query) -> SkeletonSet {
        let shared = &self.shared;
        if let Some(found) = shared.cache.read().get(key, query) {
            shared.cache_hits.fetch_add(1, Ordering::Relaxed);
            return found.clone();
        }
        shared.cache_misses.fetch_add(1, Ordering::Relaxed);
        let planned = self.plan_skeletons(&mut JoinPlanner::default(), query);
        shared.cache.write().insert(key, query, &planned)
    }

    /// What planning the queries the cache holds no entry for is worth,
    /// in cells: the sizing of a parallel region that plans them on a
    /// miss. The key alone decides, so a collision only misjudges the
    /// size.
    pub(crate) fn planning_work<'q>(
        &self,
        entries: impl Iterator<Item = (u64, &'q Query)>,
    ) -> usize {
        let cache = self.shared.cache.read();
        let combos: usize = entries
            .filter(|(key, _)| !cache.first.contains_key(key))
            .map(|(_, q)| combination_count(q))
            .sum();
        combos * CELLS_PER_COMBO
    }

    /// Plan every interesting-order combination of `query` (counted in
    /// [`InumStats::skeletons_built`]) on `planner` and keep the
    /// undominated skeletons.
    fn plan_skeletons(&self, planner: &mut JoinPlanner, query: &Query) -> Vec<Skeleton> {
        let combos = order_combinations(query);
        self.shared
            .skeletons_built
            .fetch_add(combos.len() as u64, Ordering::Relaxed);
        let all = self
            .optimizer
            .optimize_skeletons(planner, self.catalog, query, combos);
        #[cfg(test)]
        if self.shared.unpruned {
            return all;
        }
        undominated(all)
    }

    /// Drop only the cached skeletons of queries touching `table` — the
    /// common "one table's statistics changed" case. Queries over other
    /// tables keep their skeletons (their cardinalities are unaffected).
    /// Entries whose table set overflowed the tracking mask are evicted
    /// conservatively; for a multi-table refresh, call this per table.
    pub fn invalidate_table(&self, table: pgdesign_catalog::schema::TableId) {
        if table.0 >= 64 {
            // Outside the tracked id range: only the conservative entries
            // (ALL_TABLES) could involve it.
            self.shared
                .cache
                .write()
                .retain(|_, mask| mask != ALL_TABLES);
            return;
        }
        let bit = 1u64 << table.0;
        self.shared.cache.write().retain(|_, mask| mask & bit == 0);
    }

    /// Drop the cached skeletons of every query whose cache key `keep`
    /// rejects. Entries under a kept key all stay, collisions included.
    pub(crate) fn retain_skeletons(&self, keep: impl Fn(u64) -> bool) {
        self.shared.cache.write().retain(|key, _| keep(key));
    }
}

/// The skeletons no other skeleton of the same query dominates. `a`
/// dominates `b` when `a.internal_cost <= b.internal_cost` and, slot by
/// slot, `a` needs no order or the order `b` needs; of two skeletons that
/// dominate each other the earlier is kept, so the all-`None` skeleton —
/// dominated by nothing else — always survives.
///
/// Dropping a dominated skeleton never changes a cost: under any design a
/// slot's cheapest unordered access ranges over a superset of the paths
/// its cheapest ordered access does, so it is no dearer, and IEEE addition
/// is monotone, so `a`'s total is no dearer than `b`'s — the `min` over
/// skeletons that [`Inum::cost`] and every matrix lookup take is the same
/// float either way.
fn undominated(all: Vec<Skeleton>) -> Vec<Skeleton> {
    let dominates = |a: &Skeleton, b: &Skeleton| {
        a.internal_cost <= b.internal_cost
            && a.slot_orders
                .iter()
                .zip(&b.slot_orders)
                .all(|(x, y)| x.is_none() || x == y)
    };
    let kept: Vec<bool> = (0..all.len())
        .map(|i| {
            !(0..all.len()).any(|j| {
                j != i && dominates(&all[j], &all[i]) && (j < i || !dominates(&all[i], &all[j]))
            })
        })
        .collect();
    all.into_iter()
        .zip(kept)
        .filter_map(|(sk, keep)| keep.then_some(sk))
        .collect()
}

/// The interesting orders of every slot, computed in one pass over the
/// query (the hoisted form of calling
/// [`interesting_slot_orders`] per consumer).
pub fn interesting_orders_per_slot(query: &Query) -> Vec<Vec<Vec<u16>>> {
    (0..query.slot_count())
        .map(|s| interesting_slot_orders(query, s))
        .collect()
}

/// How many combinations [`order_combinations`] enumerates for `query`.
fn combination_count(query: &Query) -> usize {
    interesting_orders_per_slot(query)
        .iter()
        .fold(1, |n, orders| (n * (orders.len() + 1)).min(MAX_COMBOS))
}

/// Enumerate interesting-order combinations: the cartesian product of
/// `None ∪ interesting_orders(slot)` over slots, capped at `MAX_COMBOS`
/// (the all-`None` combination always included first).
pub fn order_combinations(query: &Query) -> Vec<Vec<Option<Vec<u16>>>> {
    let mut out: Vec<Vec<Option<Vec<u16>>>> = vec![Vec::new()];
    for slot_orders in &interesting_orders_per_slot(query) {
        let mut next = Vec::with_capacity(out.len() * (slot_orders.len() + 1));
        for prefix in &out {
            for opt in std::iter::once(None).chain(slot_orders.iter().map(|o| Some(o.clone()))) {
                let mut combo = prefix.clone();
                combo.push(opt);
                next.push(combo);
                if next.len() >= MAX_COMBOS {
                    break;
                }
            }
            if next.len() >= MAX_COMBOS {
                break;
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::spawned_workers;
    use pgdesign_catalog::design::Index;
    use pgdesign_catalog::samples::{sdss_catalog, tpch_catalog};
    use pgdesign_optimizer::JoinControl;
    use pgdesign_query::generators::{sdss_workload, tpch_workload};
    use pgdesign_query::parse_query;

    fn setup() -> (Catalog, Optimizer) {
        (sdss_catalog(0.02), Optimizer::new())
    }

    #[test]
    fn combinations_include_all_none() {
        let c = sdss_catalog(0.01);
        let q = parse_query(
            &c.schema,
            "SELECT p.ra FROM photoobj p, specobj s WHERE p.objid = s.bestobjid",
        )
        .unwrap();
        let combos = order_combinations(&q);
        assert!(combos.contains(&vec![None, None]));
        // Join columns appear as orders.
        assert!(combos.iter().any(|c| c[0] == Some(vec![0])));
        assert!(combos.len() <= MAX_COMBOS);
    }

    #[test]
    fn inum_matches_exact_for_single_table_queries() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        let sqls = [
            "SELECT ra FROM photoobj WHERE objid = 777",
            "SELECT objid FROM photoobj WHERE type = 3 AND r < 18",
            "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 100 AND 102",
        ];
        for design in [
            PhysicalDesign::empty(),
            PhysicalDesign::with_indexes([Index::new(photo, vec![0])]),
            PhysicalDesign::with_indexes([
                Index::new(photo, vec![3, 6]),
                Index::new(photo, vec![1, 2]),
            ]),
        ] {
            for sql in sqls {
                let q = parse_query(&c.schema, sql).unwrap();
                let fast = inum.cost(&design, &q);
                let exact = inum.exact_cost(&design, &q);
                // Single-table: no NLJ issue; should agree tightly.
                assert!(
                    (fast - exact).abs() / exact < 0.01,
                    "{sql}: inum {fast} vs exact {exact}"
                );
            }
        }
    }

    /// `n` seeded designs of 1–8 distinct candidates of `w`.
    fn seeded_designs(c: &Catalog, w: &pgdesign_query::Workload, n: usize) -> Vec<PhysicalDesign> {
        use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let pool = workload_candidates(c, w, &CandidateConfig::default()).indexes;
        let mut rng = StdRng::seed_from_u64(0x5EED);
        (0..n)
            .map(|_| {
                let want = rng.random_range(1..9usize).min(pool.len());
                let mut picked: Vec<usize> = Vec::with_capacity(want);
                while picked.len() < want {
                    let i = rng.random_range(0..pool.len());
                    if !picked.contains(&i) {
                        picked.push(i);
                    }
                }
                PhysicalDesign::with_indexes(picked.into_iter().map(|i| pool[i].clone()))
            })
            .collect()
    }

    /// INUM prices a design exactly as the optimizer does once nested
    /// loops are off — on SDSS and TPC-H, over the empty design and 40
    /// seeded designs of 1–8 candidates, to 1e-12 relative.
    #[test]
    fn inum_is_close_to_exact_without_nestloop() {
        let opt = Optimizer::new().with_control(JoinControl {
            nestloop: false,
            ..Default::default()
        });
        let sdss = sdss_catalog(0.01);
        let tpch = tpch_catalog(0.01);
        let cases = [
            (&sdss, sdss_workload(&sdss, 40, 5)),
            (&tpch, tpch_workload(&tpch, 36, 5)),
        ];
        for (c, w) in &cases {
            let inum = Inum::new(c, &opt);
            let mut designs = seeded_designs(c, w, 40);
            designs.push(PhysicalDesign::empty());
            for design in &designs {
                for (q, _) in w.iter() {
                    let fast = inum.cost(design, q);
                    let exact = inum.exact_cost(design, q);
                    assert!(
                        (fast - exact).abs() <= 1e-12 * exact.abs(),
                        "INUM {fast} vs the optimizer's {exact} on {design:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn cache_hits_accumulate() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let q = parse_query(&c.schema, "SELECT ra FROM photoobj WHERE type = 1").unwrap();
        let d = PhysicalDesign::empty();
        let _ = inum.cost(&d, &q);
        let s1 = inum.stats();
        assert_eq!(s1.cache_misses, 1);
        for _ in 0..5 {
            let _ = inum.cost(&d, &q);
        }
        let s2 = inum.stats();
        assert_eq!(s2.cache_misses, 1);
        assert_eq!(s2.cache_hits, 5);
        assert_eq!(inum.stats().resident_entries, 1);
    }

    #[test]
    fn different_literals_are_different_cache_entries() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let d = PhysicalDesign::empty();
        let q1 = parse_query(&c.schema, "SELECT ra FROM photoobj WHERE ra < 10").unwrap();
        let q2 = parse_query(&c.schema, "SELECT ra FROM photoobj WHERE ra < 300").unwrap();
        let _ = inum.cost(&d, &q1);
        let _ = inum.cost(&d, &q2);
        assert_eq!(inum.stats().resident_entries, 2);
    }

    #[test]
    fn invalidate_clears_cache() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let q = parse_query(&c.schema, "SELECT ra FROM photoobj WHERE type = 1").unwrap();
        let _ = inum.cost(&PhysicalDesign::empty(), &q);
        for t in c.schema.tables() {
            inum.invalidate_table(t.id);
        }
        assert_eq!(inum.stats().resident_entries, 0);
    }

    #[test]
    fn invalidate_table_evicts_only_touching_queries() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let d = PhysicalDesign::empty();
        let photo_q = parse_query(&c.schema, "SELECT ra FROM photoobj WHERE type = 1").unwrap();
        let spec_q = parse_query(
            &c.schema,
            "SELECT zredshift FROM specobj WHERE zredshift < 0.1",
        )
        .unwrap();
        let join_q = parse_query(
            &c.schema,
            "SELECT p.ra FROM photoobj p, specobj s WHERE p.objid = s.bestobjid",
        )
        .unwrap();
        for q in [&photo_q, &spec_q, &join_q] {
            let _ = inum.cost(&d, q);
        }
        assert_eq!(inum.stats().resident_entries, 3);

        // Photoobj's stats changed: the pure-specobj query survives, the
        // photoobj query and the join are evicted.
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        inum.invalidate_table(photo);
        assert_eq!(inum.stats().resident_entries, 1);
        let misses_before = inum.stats().cache_misses;
        let _ = inum.cost(&d, &spec_q);
        assert_eq!(
            inum.stats().cache_misses,
            misses_before,
            "the untouched query must still be served from cache"
        );
        let _ = inum.cost(&d, &photo_q);
        assert_eq!(
            inum.stats().cache_misses,
            misses_before + 1,
            "the evicted query recomputes"
        );
    }

    #[test]
    fn design_changes_do_not_recompute_skeletons() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let q = parse_query(
            &c.schema,
            "SELECT p.ra FROM photoobj p, specobj s WHERE p.objid = s.bestobjid AND p.r < 18",
        )
        .unwrap();
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        let _ = inum.cost(&PhysicalDesign::empty(), &q);
        let built_before = inum.stats().skeletons_built;
        for cols in [vec![0u16], vec![6], vec![0, 6], vec![1, 2]] {
            let d = PhysicalDesign::with_indexes([Index::new(photo, cols)]);
            let _ = inum.cost(&d, &q);
        }
        assert_eq!(
            inum.stats().skeletons_built,
            built_before,
            "re-costing designs must reuse cached skeletons"
        );
    }

    #[test]
    fn index_benefit_visible_through_inum() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let q = parse_query(&c.schema, "SELECT ra FROM photoobj WHERE objid = 5").unwrap();
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        let base = inum.cost(&PhysicalDesign::empty(), &q);
        let tuned = inum.cost(
            &PhysicalDesign::with_indexes([Index::new(photo, vec![0])]),
            &q,
        );
        assert!(tuned < base / 100.0);
    }

    #[test]
    fn workload_cost_accumulates() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 3);
        let d = PhysicalDesign::empty();
        let total = inum.workload_cost(&d, &w);
        let sum: f64 = w.iter().map(|(q, wt)| wt * inum.cost(&d, q)).sum();
        assert!((total - sum).abs() < 1e-9);
    }

    #[test]
    fn prepare_workload_prewarms() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 3);
        inum.prepare_workload(&w);
        let misses_after_prepare = inum.stats().cache_misses;
        let _ = inum.workload_cost(&PhysicalDesign::empty(), &w);
        assert_eq!(inum.stats().cache_misses, misses_after_prepare);
    }

    #[test]
    fn partitioned_designs_reuse_skeletons() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let q = parse_query(&c.schema, "SELECT ra, dec FROM photoobj WHERE ra < 10").unwrap();
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        let base = inum.cost(&PhysicalDesign::empty(), &q);
        let built = inum.stats().skeletons_built;
        let mut d = PhysicalDesign::empty();
        d.set_vertical(pgdesign_catalog::design::VerticalPartitioning::new(
            photo,
            vec![vec![0, 1, 2], (3..16).collect()],
        ));
        let part = inum.cost(&d, &q);
        assert_eq!(
            inum.stats().skeletons_built,
            built,
            "partition extension reuses cache"
        );
        assert!(
            part < base,
            "narrow fragment should be cheaper: {part} vs {base}"
        );
    }

    fn parse(catalog: &Catalog, sql: &str) -> Query {
        parse_query(&catalog.schema, sql).expect("test SQL parses")
    }

    #[test]
    fn a_shared_key_never_serves_another_querys_skeletons() {
        let (c, opt) = setup();
        let single = parse(&c, "SELECT ra FROM photoobj WHERE objid = 5");
        let join = parse(
            &c,
            "SELECT p.ra FROM photoobj p, specobj s WHERE p.objid = s.bestobjid",
        );
        let honest = Inum::new(&c, &opt);
        let counts = |i: &Inum<'_>| (i.stats().cache_hits, i.stats().cache_misses);
        // Two different queries forced onto one key.
        const KEY: u64 = 0x5eed;
        let inum = Inum::new(&c, &opt);
        assert_eq!(
            inum.skeletons_keyed(KEY, &single),
            honest.skeletons(&single)
        );
        assert_eq!(inum.skeletons_keyed(KEY, &join), honest.skeletons(&join));
        assert_eq!(
            counts(&inum),
            (0, 2),
            "a key match with another query is a miss"
        );
        assert_eq!(
            inum.skeletons_keyed(KEY, &single),
            honest.skeletons(&single)
        );
        assert_eq!(inum.skeletons_keyed(KEY, &join), honest.skeletons(&join));
        assert_eq!(counts(&inum), (2, 2), "both stay cached under the one key");
        assert_eq!(inum.stats().resident_entries, 2);

        // Evicting the first entry under the key leaves the others served.
        let spec = parse(&c, "SELECT zredshift FROM specobj WHERE zredshift < 0.1");
        assert_eq!(inum.skeletons_keyed(KEY, &spec), honest.skeletons(&spec));
        inum.invalidate_table(c.schema.table_by_name("photoobj").unwrap().id);
        assert_eq!(inum.stats().resident_entries, 1);
        assert_eq!(inum.skeletons_keyed(KEY, &spec), honest.skeletons(&spec));
        assert_eq!(counts(&inum), (3, 3), "the surviving entry is a hit");

        // The warm-up resolves a shared key the same way.
        let warm = Inum::new(&c, &opt);
        warm.prepare_keyed(
            vec![(KEY, &single), (KEY, &join), (KEY, &single)],
            Workers::Exactly(2),
        );
        assert_eq!(counts(&warm), (1, 2));
        assert_eq!(warm.skeletons_keyed(KEY, &join), honest.skeletons(&join));
        assert_eq!(
            warm.skeletons_keyed(KEY, &single),
            honest.skeletons(&single)
        );
    }

    #[test]
    fn prepare_workload_is_the_same_at_any_thread_count() {
        let c = tpch_catalog(0.01);
        let opt = Optimizer::new();
        // Enough order combinations for two sized workers.
        let mut w = tpch_workload(&c, 90, 3);
        // Verbatim repeats: hits inside the batch, not cache lookups.
        for i in [2, 5, 2] {
            let q = w.query(i).clone();
            w.push(q, 1.0);
        }
        // What planning the queries one by one caches and counts.
        let one_by_one = Inum::new(&c, &opt);
        for (q, _) in w.iter() {
            let _ = one_by_one.skeletons(q);
        }
        let expected = one_by_one.stats();
        assert_eq!((expected.cache_hits, expected.cache_misses), (3, 90));
        let work = expected.skeletons_built as usize * CELLS_PER_COMBO;
        assert_eq!(Workers::UpTo(4).count(|| work), 2, "{work} cells");
        let (one, two, four) = (
            Workers::Exactly(1),
            Workers::Exactly(2),
            Workers::Exactly(4),
        );
        for workers in [one, two, four, Workers::UpTo(4)] {
            let inum = Inum::new(&c, &opt);
            let keyed = w.iter().map(|(q, _)| (query_key(q), q)).collect();
            let spawned = spawned_workers();
            inum.prepare_keyed(keyed, workers);
            let ran = 1 + (spawned_workers() - spawned) as usize;
            assert_eq!(ran, workers.count(|| work), "{workers:?}");
            assert_eq!(inum.stats(), expected, "{workers:?}");
            assert_eq!(
                inum.stats().resident_entries,
                one_by_one.stats().resident_entries
            );
            for (q, _) in w.iter() {
                assert_eq!(inum.skeletons(q), one_by_one.skeletons(q));
            }
        }
    }

    /// The fixed corpus of `crates/optimizer/tests/pinned_plans.rs`.
    fn corpus() -> Vec<(Catalog, pgdesign_query::Workload)> {
        let sdss = sdss_catalog(0.01);
        let tpch = tpch_catalog(0.01);
        let ws = sdss_workload(&sdss, 12, 5);
        let wt = tpch_workload(&tpch, 12, 5);
        vec![(sdss, ws), (tpch, wt)]
    }

    #[test]
    fn kept_skeletons_are_the_oracles_and_keep_the_all_none_one() {
        let opt = Optimizer::new();
        for (c, w) in corpus() {
            let pruned = Inum::new(&c, &opt);
            let full = Inum::unpruned(&c, &opt);
            let (mut kept, mut all) = (0, 0);
            for (q, _) in w.iter() {
                let k = pruned.skeletons(q).to_skeletons();
                let f = full.skeletons(q).to_skeletons();
                let in_oracle_order: Vec<&Skeleton> = f.iter().filter(|s| k.contains(s)).collect();
                assert_eq!(in_oracle_order, k.iter().collect::<Vec<_>>(), "{q:?}");
                assert!(
                    k.iter().any(|s| s.slot_orders.iter().all(Option::is_none)),
                    "the all-None skeleton is kept: {q:?}"
                );
                kept += k.len();
                all += f.len();
            }
            assert!(
                kept < all,
                "the corpus must prune something ({kept} of {all})"
            );
            assert_eq!(pruned.stats().skeletons_built, full.stats().skeletons_built);
        }
    }

    /// The pruned cache and the unpruned oracle cost `workload`
    /// bit-identically through `Inum::cost`, a matrix's index-only lookup
    /// and its joint lookup, under random index subsets, vertical
    /// fragmentations and horizontal splits drawn from `seed`.
    fn assert_pruning_is_exact(catalog: &Catalog, workload: &pgdesign_query::Workload, seed: u64) {
        use crate::CostMatrix;
        use pgdesign_catalog::design::HorizontalPartitioning;
        use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let opt = Optimizer::new();
        let pruned = Inum::new(catalog, &opt);
        let full = Inum::unpruned(catalog, &opt);
        let cands = workload_candidates(catalog, workload, &CandidateConfig::default()).indexes;
        let mut m_pruned = CostMatrix::build(&pruned, workload, &cands);
        let mut m_full = CostMatrix::build(&full, workload, &cands);
        let mut rng = StdRng::seed_from_u64(seed);
        let tables: Vec<_> = catalog.schema.tables().map(|t| (t.id, t.width())).collect();
        for _ in 0..3 {
            let mut cfg = m_pruned.empty_joint();
            if !cands.is_empty() {
                for _ in 0..rng.random_range(0..6usize) {
                    cfg.indexes.insert(rng.random_range(0..cands.len()));
                }
            }
            for &(t, width) in &tables {
                if width >= 2 && rng.random_range(0..3usize) == 0 {
                    let n_groups = rng.random_range(2..5usize).min(width as usize);
                    let mut groups: Vec<Vec<u16>> = vec![Vec::new(); n_groups];
                    for col in 0..width {
                        groups[rng.random_range(0..n_groups)].push(col);
                    }
                    for g in groups.iter().filter(|g| !g.is_empty()) {
                        let id = m_pruned.register_fragment(t, g);
                        assert_eq!(id, m_full.register_fragment(t, g));
                        cfg.fragments.insert(id);
                    }
                }
                if rng.random_range(0..3usize) == 0 {
                    let col = rng.random_range(0..width);
                    let stats = catalog.table_stats(t).column(col);
                    if stats.max > stats.min {
                        let parts = rng.random_range(2..9usize);
                        let bounds = (1..parts)
                            .map(|i| stats.min + (stats.max - stats.min) * i as f64 / parts as f64)
                            .collect();
                        let hp = HorizontalPartitioning::new(t, col, bounds);
                        if hp.partitions() >= 2 {
                            let id = m_pruned.register_split(hp.clone());
                            assert_eq!(id, m_full.register_split(hp));
                            cfg.splits.insert(id);
                        }
                    }
                }
            }
            let joint = m_pruned.joint_design_of(&cfg);
            let indexes = m_pruned.design_of(&cfg.indexes);
            for (qi, (q, _)) in workload.iter().enumerate() {
                let same = |what: &str, a: f64, b: f64| {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{what}, Q{qi}: pruned {a} vs all {b}"
                    );
                };
                same(
                    "Inum::cost (joint)",
                    pruned.cost(&joint, q),
                    full.cost(&joint, q),
                );
                same(
                    "Inum::cost (indexes)",
                    pruned.cost(&indexes, q),
                    full.cost(&indexes, q),
                );
                same(
                    "matrix cost",
                    m_pruned.cost(qi, &cfg.indexes),
                    m_full.cost(qi, &cfg.indexes),
                );
                same(
                    "joint lookup",
                    m_pruned.joint_cost(qi, &cfg),
                    m_full.joint_cost(qi, &cfg),
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn pruned_skeletons_cost_like_every_combination_on_sdss(
            seed in 0u64..10_000,
            n in 4usize..13,
        ) {
            let c = sdss_catalog(0.01);
            let w = sdss_workload(&c, n, seed);
            assert_pruning_is_exact(&c, &w, seed ^ 0x9a7e);
        }

        #[test]
        fn pruned_skeletons_cost_like_every_combination_on_tpch(
            seed in 0u64..10_000,
            n in 3usize..10,
        ) {
            let c = tpch_catalog(0.01);
            let w = tpch_workload(&c, n, seed);
            assert_pruning_is_exact(&c, &w, seed ^ 0x7c4);
        }
    }
}
