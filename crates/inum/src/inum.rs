//! The INUM cost model: skeleton cache + per-design fast costing.

use crate::key::query_key;
use crate::matrix::{LookupCounters, MatrixStats};
use parking_lot::RwLock;
use pgdesign_catalog::design::PhysicalDesign;
use pgdesign_catalog::Catalog;
use pgdesign_optimizer::access::{self, AccessContext, SlotProfile};
use pgdesign_optimizer::optimizer::interesting_slot_orders;
use pgdesign_optimizer::plan::order_satisfies;
use pgdesign_optimizer::{Optimizer, Skeleton};
use pgdesign_query::ast::Query;
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
    /// Individual skeletons computed (order combinations).
    pub skeletons_built: u64,
}

/// One skeleton-cache entry: the skeleton set plus the tables the query
/// touches (a bitmask over `TableId.0`, [`ALL_TABLES`] when any id
/// overflows the mask), so a statistics refresh on one table can evict
/// only the entries it stales.
struct CacheEntry {
    skeletons: Arc<Vec<Skeleton>>,
    table_mask: u64,
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
    cache: RwLock<HashMap<u64, CacheEntry>>,
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
}

impl<'a> Inum<'a> {
    /// New INUM instance with an empty cache and zeroed counters.
    pub fn new(catalog: &'a Catalog, optimizer: &'a Optimizer) -> Self {
        Inum {
            catalog,
            optimizer,
            shared: Arc::default(),
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

    /// Warm the cache for every query of a workload.
    pub fn prepare_workload(&self, workload: &pgdesign_query::Workload) {
        for (q, _) in workload.iter() {
            let _ = self.skeletons(q);
        }
    }

    /// INUM cost of `query` under `design` — the fast path.
    ///
    /// Access paths are enumerated *once per slot* and shared across all
    /// cached skeletons; each skeleton then reduces to a table lookup plus
    /// an addition, which is where the order-of-magnitude speedup over
    /// re-optimization comes from.
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

        // Per-slot memo of native-order minima, keyed by the order vector
        // (orders borrow from the cached skeletons, so keys are slices).
        let mut order_memo: Vec<HashMap<&[u16], Option<f64>>> = vec![HashMap::new(); n_slots];

        let mut best = f64::INFINITY;
        for sk in skeletons.iter() {
            let mut total = sk.internal_cost;
            let mut feasible = true;
            for slot in 0..query.slot_count() {
                let s = slot as usize;
                match &sk.slot_orders[s] {
                    None => total += slot_unordered[s],
                    Some(order) => {
                        let min = match order_memo[s].get(order.as_slice()) {
                            Some(&cached) => cached,
                            None => {
                                let required: Vec<pgdesign_query::ast::QueryColumn> = order
                                    .iter()
                                    .map(|&c| pgdesign_query::ast::QueryColumn::new(slot, c))
                                    .collect();
                                let m = slot_paths[s]
                                    .iter()
                                    .filter(|p| {
                                        order_satisfies(&p.order, &required, &slot_eq_bound[s])
                                    })
                                    .map(|p| p.cost)
                                    .min_by(f64::total_cmp);
                                order_memo[s].insert(order.as_slice(), m);
                                m
                            }
                        };
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

    /// The skeleton set for a query (cached).
    ///
    /// On a miss, the interesting orders are computed *once* per query
    /// ([`interesting_orders_per_slot`]) and reused both for combination
    /// enumeration and, via [`Optimizer::optimize_skeletons`], across the
    /// per-combination skeleton builds (which also share one cardinality
    /// estimation).
    pub fn skeletons(&self, query: &Query) -> Arc<Vec<Skeleton>> {
        let key = query_key(query);
        let shared = &self.shared;
        if let Some(found) = shared.cache.read().get(&key) {
            shared.cache_hits.fetch_add(1, Ordering::Relaxed);
            return found.skeletons.clone();
        }
        shared.cache_misses.fetch_add(1, Ordering::Relaxed);
        let per_slot = interesting_orders_per_slot(query);
        let combos = combinations_from_orders(&per_slot);
        let skeletons = self
            .optimizer
            .optimize_skeletons(self.catalog, query, combos);
        shared
            .skeletons_built
            .fetch_add(skeletons.len() as u64, Ordering::Relaxed);
        let arc = Arc::new(skeletons);
        shared.cache.write().insert(
            key,
            CacheEntry {
                skeletons: arc.clone(),
                table_mask: table_mask(query),
            },
        );
        arc
    }

    /// Number of cached queries.
    pub fn cached_queries(&self) -> usize {
        self.shared.cache.read().len()
    }

    /// Drop all cached skeletons (e.g. after a full statistics refresh).
    pub fn invalidate(&self) {
        self.shared.cache.write().clear();
    }

    /// Drop only the cached skeletons of queries touching `table` — the
    /// common "one table's statistics changed" case. Queries over other
    /// tables keep their skeletons (their cardinalities are unaffected).
    /// Entries whose table set overflowed the tracking mask are evicted
    /// conservatively; for a multi-table refresh, call this per table or
    /// fall back to [`Self::invalidate`].
    pub fn invalidate_table(&self, table: pgdesign_catalog::schema::TableId) {
        if table.0 >= 64 {
            // Outside the tracked id range: only the conservative entries
            // (ALL_TABLES) could involve it.
            self.shared
                .cache
                .write()
                .retain(|_, e| e.table_mask != ALL_TABLES);
            return;
        }
        let bit = 1u64 << table.0;
        self.shared
            .cache
            .write()
            .retain(|_, e| e.table_mask & bit == 0);
    }
}

/// The interesting orders of every slot, computed in one pass over the
/// query (the hoisted form of calling
/// [`interesting_slot_orders`] per consumer).
pub fn interesting_orders_per_slot(query: &Query) -> Vec<Vec<Vec<u16>>> {
    (0..query.slot_count())
        .map(|s| interesting_slot_orders(query, s))
        .collect()
}

/// Enumerate interesting-order combinations: the cartesian product of
/// `None ∪ interesting_orders(slot)` over slots, capped at `MAX_COMBOS`
/// (the all-`None` combination always included first).
pub fn order_combinations(query: &Query) -> Vec<Vec<Option<Vec<u16>>>> {
    combinations_from_orders(&interesting_orders_per_slot(query))
}

fn combinations_from_orders(per_slot: &[Vec<Vec<u16>>]) -> Vec<Vec<Option<Vec<u16>>>> {
    let mut out: Vec<Vec<Option<Vec<u16>>>> = vec![Vec::new()];
    for slot_orders in per_slot {
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
    use pgdesign_catalog::design::Index;
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_optimizer::JoinControl;
    use pgdesign_query::generators::sdss_workload;
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

    #[test]
    fn inum_is_close_to_exact_without_nestloop() {
        let (c, _) = setup();
        let opt = Optimizer::new().with_control(JoinControl {
            nestloop: false,
            ..Default::default()
        });
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 18, 11);
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        let spec = c.schema.table_by_name("specobj").unwrap().id;
        let designs = [
            PhysicalDesign::empty(),
            PhysicalDesign::with_indexes([
                Index::new(photo, vec![0]),
                Index::new(spec, vec![1]),
                Index::new(photo, vec![6]),
            ]),
        ];
        for design in &designs {
            for (q, _) in w.iter() {
                let fast = inum.cost(design, q);
                let exact = inum.exact_cost(design, q);
                assert!(
                    fast >= exact * 0.95,
                    "INUM must not undercut the optimizer: {fast} vs {exact}"
                );
                assert!(
                    fast <= exact * 1.30,
                    "INUM should stay close: {fast} vs {exact}"
                );
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
        assert_eq!(inum.cached_queries(), 1);
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
        assert_eq!(inum.cached_queries(), 2);
    }

    #[test]
    fn invalidate_clears_cache() {
        let (c, opt) = setup();
        let inum = Inum::new(&c, &opt);
        let q = parse_query(&c.schema, "SELECT ra FROM photoobj WHERE type = 1").unwrap();
        let _ = inum.cost(&PhysicalDesign::empty(), &q);
        inum.invalidate();
        assert_eq!(inum.cached_queries(), 0);
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
        assert_eq!(inum.cached_queries(), 3);

        // Photoobj's stats changed: the pure-specobj query survives, the
        // photoobj query and the join are evicted.
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        inum.invalidate_table(photo);
        assert_eq!(inum.cached_queries(), 1);
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
}
