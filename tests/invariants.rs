//! Cross-crate property-based tests on system-level invariants.

use pgdesign_catalog::design::{Index, PhysicalDesign};
use pgdesign_catalog::samples::{sdss_catalog, tpch_catalog};
use pgdesign_catalog::Catalog;
use pgdesign_inum::{CostMatrix, Inum, JointToggle};
use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
use pgdesign_optimizer::Optimizer;
use pgdesign_query::generators::{
    sdss_template, sdss_workload, tpch_workload, SDSS_TEMPLATE_COUNT,
};
use pgdesign_query::Workload;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The suite's one tolerance policy: two kinds of agreement, two bounds,
/// both relative to `max(|expected|, 1)`.
mod tolerance {
    /// Both sides run the same float operations in the same order —
    /// incremental vs fresh cells, restored vs live, a pinned reader vs a
    /// serial rebuild, parallel vs serial build. In practice they agree
    /// bit for bit; the bound leaves room for nothing but that.
    pub const EXACT_ORDER: f64 = 1e-12;

    /// The two sides add the same terms in a different order or grouping
    /// — a matrix lookup vs the per-design `Inum::cost` slow path, a
    /// delta vs the difference of two totals, a weighted sum vs its
    /// hand-expanded form.
    pub const REORDERED_SUM: f64 = 1e-9;

    pub fn within(actual: f64, expected: f64, bound: f64) -> bool {
        (actual - expected).abs() <= bound * expected.abs().max(1.0)
    }
}

fn catalog() -> &'static Catalog {
    use std::sync::OnceLock;
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| sdss_catalog(0.01))
}

fn optimizer() -> Optimizer {
    Optimizer::new()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Monotonicity: adding an index never increases the estimated cost of
    /// any query (our model charges no index maintenance for read-only
    /// workloads, so more access paths can only help or tie).
    #[test]
    fn adding_an_index_never_hurts(template in 0..SDSS_TEMPLATE_COUNT, seed in 0u64..500, col in 0u16..16) {
        let c = catalog();
        let mut rng = StdRng::seed_from_u64(seed);
        let q = sdss_template(c, template, &mut rng);
        let opt = optimizer();
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        let base = opt.cost(c, &PhysicalDesign::empty(), &q);
        let with = opt.cost(
            c,
            &PhysicalDesign::with_indexes([Index::new(photo, vec![col])]),
            &q,
        );
        prop_assert!(with <= base * 1.0001, "index regressed query: {with} vs {base}");
    }

    /// Costs are finite, positive, and deterministic.
    #[test]
    fn costs_are_finite_and_deterministic(template in 0..SDSS_TEMPLATE_COUNT, seed in 0u64..500) {
        let c = catalog();
        let mut rng = StdRng::seed_from_u64(seed);
        let q = sdss_template(c, template, &mut rng);
        let opt = optimizer();
        let d = PhysicalDesign::empty();
        let a = opt.cost(c, &d, &q);
        let b = opt.cost(c, &d, &q);
        prop_assert!(a.is_finite() && a > 0.0);
        prop_assert_eq!(a, b);
    }

    /// Plan cardinalities are design-independent (the INUM invariant).
    #[test]
    fn cardinality_is_design_independent(template in 0..SDSS_TEMPLATE_COUNT, seed in 0u64..500, col in 0u16..16) {
        let c = catalog();
        let mut rng = StdRng::seed_from_u64(seed);
        let q = sdss_template(c, template, &mut rng);
        let opt = optimizer();
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        let p1 = opt.optimize(c, &PhysicalDesign::empty(), &q);
        let p2 = opt.optimize(
            c,
            &PhysicalDesign::with_indexes([Index::new(photo, vec![col])]),
            &q,
        );
        prop_assert!(
            tolerance::within(p2.rows, p1.rows, tolerance::REORDERED_SUM),
            "rows changed with design: {} vs {}", p1.rows, p2.rows
        );
    }

    /// The what-if size model matches the catalog's size model exactly —
    /// hypothetical and real structures share one ruler.
    #[test]
    fn whatif_sizes_match_catalog_sizes(cols in proptest::collection::vec(0u16..16, 1..4)) {
        let c = catalog();
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        let mut unique = cols.clone();
        unique.dedup();
        let idx = Index::new(photo, unique);
        let via_design = PhysicalDesign::with_indexes([idx.clone()]).index_bytes(&c.schema, &c.stats);
        let direct = idx.size_bytes(&c.schema, c.table_stats(photo));
        prop_assert_eq!(via_design, direct);
        prop_assert!(direct > 0, "no zero-size what-if indexes");
    }
}

/// The two INUM cache levels agree: for any subset of a candidate set,
/// the precomputed [`CostMatrix`] returns the same cost as the per-design
/// [`Inum::cost`] slow path, to within the reordered-sum bound — on both
/// sample catalogs.
fn assert_matrix_matches_inum(catalog: &Catalog, workload: &Workload, subset_seed: u64) {
    use rand::Rng;
    let opt = optimizer();
    let inum = Inum::new(catalog, &opt);
    let cands = workload_candidates(catalog, workload, &CandidateConfig::default());
    let matrix = CostMatrix::build(&inum, workload, &cands.indexes);
    let mut rng = StdRng::seed_from_u64(subset_seed);
    for _ in 0..12 {
        let k = rng.random_range(0..5usize).min(cands.indexes.len());
        let mut ids: Vec<usize> = (0..k)
            .map(|_| rng.random_range(0..cands.indexes.len()))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let config = matrix.config_of(ids.iter().copied());
        let design = PhysicalDesign::with_indexes(ids.iter().map(|&i| cands.indexes[i].clone()));
        for (qi, (q, _)) in workload.iter().enumerate() {
            let fast = matrix.cost(qi, &config);
            // analyzer:allow(cost-purity): parity oracle — this harness
            // exists to compare matrix lookups against the optimizer.
            let oracle = inum.cost(&design, q);
            assert!(
                tolerance::within(fast, oracle, tolerance::REORDERED_SUM),
                "matrix {fast} vs inum {oracle} for Q{qi} under {ids:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// SDSS: random candidate subsets cost identically through both levels.
    #[test]
    fn cost_matrix_matches_inum_on_sdss(seed in 0u64..1000, n_queries in 3usize..10) {
        let c = catalog();
        let w = sdss_workload(c, n_queries, seed);
        assert_matrix_matches_inum(c, &w, seed ^ 0xACCE55);
    }

    /// TPC-H: the same invariant on the other sample catalog (the
    /// portability claim — nothing in the matrix is SDSS-specific).
    #[test]
    fn cost_matrix_matches_inum_on_tpch(seed in 0u64..1000, n_queries in 3usize..8) {
        use std::sync::OnceLock;
        static TPCH: OnceLock<Catalog> = OnceLock::new();
        let c = TPCH.get_or_init(|| tpch_catalog(0.01));
        let w = tpch_workload(c, n_queries, seed);
        assert_matrix_matches_inum(c, &w, seed ^ 0x7C0B);
    }
}

/// Delta evaluation equals full re-evaluation: adding (removing) one
/// candidate through [`pgdesign_inum::MatrixCore::cost_plus`] / `cost_minus`
/// matches the cost difference of the materialized configurations.
#[test]
fn matrix_delta_matches_full_reevaluation() {
    let c = catalog();
    let opt = optimizer();
    let inum = Inum::new(c, &opt);
    let w = sdss_workload(c, 9, 404);
    let cands = workload_candidates(c, &w, &CandidateConfig::default());
    let matrix = CostMatrix::build(&inum, &w, &cands.indexes);
    let n = cands.indexes.len();
    let base_ids: Vec<usize> = (0..n).step_by(3).collect();
    let base = matrix.config_of(base_ids.iter().copied());
    for qi in 0..matrix.n_queries() {
        for cand in 0..n {
            if !base.contains(cand) {
                let mut plus = base.clone();
                plus.insert(cand);
                let full = matrix.cost(qi, &plus) - matrix.cost(qi, &base);
                let delta = matrix.cost_plus(qi, &base, cand) - matrix.cost(qi, &base);
                assert!(
                    tolerance::within(delta, full, tolerance::REORDERED_SUM),
                    "cost_plus delta {delta} vs full {full} (Q{qi}, cand {cand})"
                );
            } else {
                let mut minus = base.clone();
                minus.remove(cand);
                let full = matrix.cost(qi, &minus) - matrix.cost(qi, &base);
                let delta = matrix.cost_minus(qi, &base, cand) - matrix.cost(qi, &base);
                assert!(
                    tolerance::within(delta, full, tolerance::REORDERED_SUM),
                    "cost_minus delta {delta} vs full {full} (Q{qi}, cand {cand})"
                );
            }
        }
    }
}

/// The partition-aware matrix level agrees with [`Inum::cost`]: random
/// joint configurations — vertical fragmentations (occasionally with a
/// replicated column), horizontal range splits, and index subsets — cost
/// identically through pure matrix lookups and the per-design slow path,
/// to within the reordered-sum bound.
fn assert_joint_matrix_matches_inum(catalog: &Catalog, workload: &Workload, seed: u64) {
    use pgdesign_catalog::design::HorizontalPartitioning;
    use rand::Rng;
    let opt = optimizer();
    let inum = Inum::new(catalog, &opt);
    let cands = workload_candidates(catalog, workload, &CandidateConfig::default());
    let mut matrix = CostMatrix::build(&inum, workload, &cands.indexes);
    let mut rng = StdRng::seed_from_u64(seed);
    let tables: Vec<(pgdesign_catalog::schema::TableId, u16)> =
        catalog.schema.tables().map(|t| (t.id, t.width())).collect();
    for _ in 0..4 {
        let mut cfg = matrix.empty_joint();
        if !cands.indexes.is_empty() {
            for _ in 0..rng.random_range(0..4usize) {
                cfg.indexes.insert(rng.random_range(0..cands.indexes.len()));
            }
        }
        for &(t, width) in &tables {
            if width < 2 || rng.random_range(0..2usize) == 0 {
                continue;
            }
            let n_groups = rng.random_range(2..5usize).min(width as usize);
            let mut groups: Vec<Vec<u16>> = vec![Vec::new(); n_groups];
            for c in 0..width {
                groups[rng.random_range(0..n_groups)].push(c);
            }
            if rng.random_range(0..3usize) == 0 {
                // Replicate one column into another group: exercises the
                // overlapping-fragment set-cover path.
                groups[rng.random_range(0..n_groups)].push(rng.random_range(0..width));
            }
            for g in groups.iter().filter(|g| !g.is_empty()) {
                let id = matrix.register_fragment(t, g);
                cfg.fragments.insert(id);
            }
            if rng.random_range(0..2usize) == 0 {
                let col = rng.random_range(0..width);
                let stats = catalog.table_stats(t).column(col);
                if stats.max > stats.min {
                    let parts = rng.random_range(2..9usize);
                    let bounds: Vec<f64> = (1..parts)
                        .map(|i| stats.min + (stats.max - stats.min) * i as f64 / parts as f64)
                        .collect();
                    let hp = HorizontalPartitioning::new(t, col, bounds);
                    if hp.partitions() >= 2 {
                        let sid = matrix.register_split(hp);
                        cfg.splits.insert(sid);
                    }
                }
            }
        }
        let design = matrix.joint_design_of(&cfg);
        for (qi, (q, _)) in workload.iter().enumerate() {
            let fast = matrix.joint_cost(qi, &cfg);
            // analyzer:allow(cost-purity): parity oracle — this harness
            // exists to compare matrix lookups against the optimizer.
            let oracle = inum.cost(&design, q);
            assert!(
                tolerance::within(fast, oracle, tolerance::REORDERED_SUM),
                "joint matrix {fast} vs inum {oracle} for Q{qi} (design {design:?})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// SDSS: random vertical+horizontal designs cost identically through
    /// the partition-aware matrix and the per-design slow path.
    #[test]
    fn partition_matrix_matches_inum_on_sdss(seed in 0u64..1000, n_queries in 3usize..9) {
        let c = catalog();
        let w = sdss_workload(c, n_queries, seed);
        assert_joint_matrix_matches_inum(c, &w, seed ^ 0xF2A6);
    }

    /// TPC-H: the same partition invariant on the other sample catalog.
    #[test]
    fn partition_matrix_matches_inum_on_tpch(seed in 0u64..1000, n_queries in 3usize..7) {
        use std::sync::OnceLock;
        static TPCH: OnceLock<Catalog> = OnceLock::new();
        let c = TPCH.get_or_init(|| tpch_catalog(0.01));
        let w = tpch_workload(c, n_queries, seed);
        assert_joint_matrix_matches_inum(c, &w, seed ^ 0x5B117);
    }
}

/// Delta evaluation equals full re-evaluation on the partition level:
/// a merge toggle ([`pgdesign_inum::MatrixCore::joint_workload_cost_with`])
/// and [`pgdesign_inum::MatrixCore::delta_split`] match the
/// workload-cost difference of the materialized edited configurations.
#[test]
fn joint_delta_matches_full_reevaluation() {
    let c = catalog();
    let opt = optimizer();
    let inum = Inum::new(c, &opt);
    let w = sdss_workload(c, 9, 505);
    let mut matrix = CostMatrix::build(&inum, &w, &[]);
    let photo = c.schema.table_by_name("photoobj").unwrap().id;
    let frag_ids: Vec<usize> = [
        vec![0u16, 1, 2],
        vec![3, 4, 5, 6],
        (7..16).collect::<Vec<u16>>(),
    ]
    .iter()
    .map(|g| matrix.register_fragment(photo, g))
    .collect();
    let merged = matrix.register_fragment(photo, &[0, 1, 2, 3, 4, 5, 6]);
    let split = matrix.register_split(pgdesign_catalog::design::HorizontalPartitioning::new(
        photo,
        1,
        (1..12).map(|i| i as f64 * 30.0).collect(),
    ));

    let mut cfg = matrix.empty_joint();
    for &f in &frag_ids {
        cfg.fragments.insert(f);
    }

    let mut merged_cfg = matrix.empty_joint();
    merged_cfg.fragments.insert(frag_ids[2]);
    merged_cfg.fragments.insert(merged);
    let full = matrix.joint_workload_cost(&merged_cfg) - matrix.joint_workload_cost(&cfg);
    let delta = matrix
        .joint_workload_cost_with(&cfg, &JointToggle::merge(frag_ids[0], frag_ids[1], merged))
        - matrix.joint_workload_cost(&cfg);
    assert!(
        tolerance::within(delta, full, tolerance::REORDERED_SUM),
        "merge delta {delta} vs full {full}"
    );
    // The merged configuration still agrees with the slow-path oracle.
    let design = matrix.joint_design_of(&merged_cfg);
    let oracle = inum.workload_cost(&design, &w);
    let direct = matrix.joint_workload_cost(&merged_cfg);
    assert!(tolerance::within(direct, oracle, tolerance::REORDERED_SUM));

    let mut split_cfg = cfg.clone();
    split_cfg.splits.insert(split);
    let full = matrix.joint_workload_cost(&split_cfg) - matrix.joint_workload_cost(&cfg);
    let delta = matrix.delta_split(&cfg, split);
    assert!(
        tolerance::within(delta, full, tolerance::REORDERED_SUM),
        "delta_split {delta} vs full {full}"
    );
}

/// Incremental maintenance equals a fresh build: starting from a random
/// initial matrix, apply a random interleaving of
/// `add_candidate`/`remove_candidate`/`add_queries`/`retire_query`, then
/// rebuild a matrix from scratch over the *final* state (live candidates,
/// active queries) and require every configuration cost to agree within
/// 1e-12 (in practice bit-identically — incremental cells run the same
/// code as the cold build).
fn assert_incremental_matches_fresh(
    catalog: &Catalog,
    pool: &Workload,
    cand_pool: &[Index],
    seed: u64,
) {
    use rand::Rng;
    let opt = optimizer();
    let inum = Inum::new(catalog, &opt);
    let mut rng = StdRng::seed_from_u64(seed);

    let nq0 = rng.random_range(1..pool.len().max(2)).min(pool.len());
    let nc0 = rng.random_range(0..cand_pool.len().max(1));
    let init_w = Workload::from_queries((0..nq0).map(|i| pool.query(i).clone()));
    let mut matrix = CostMatrix::build(&inum, &init_w, &cand_pool[..nc0]);

    for _ in 0..14 {
        match rng.random_range(0..4usize) {
            0 if !cand_pool.is_empty() => {
                let idx = &cand_pool[rng.random_range(0..cand_pool.len())];
                matrix.add_candidate(idx);
            }
            1 => {
                let live: Vec<usize> = matrix.candidates().map(|(id, _)| id).collect();
                if !live.is_empty() {
                    matrix.remove_candidate(live[rng.random_range(0..live.len())]);
                }
            }
            2 => {
                let q = pool.query(rng.random_range(0..pool.len()));
                matrix.add_queries([(q, 1.0)]);
            }
            _ => {
                let active: Vec<usize> = matrix.active_query_ids().collect();
                if active.len() > 1 {
                    matrix.retire_query(active[rng.random_range(0..active.len())]);
                }
            }
        }
    }

    // Fresh build of the final state.
    let live: Vec<(usize, Index)> = matrix
        .candidates()
        .map(|(id, idx)| (id, idx.clone()))
        .collect();
    let active: Vec<usize> = matrix.active_query_ids().collect();
    let mut final_w = Workload::new();
    for &qid in &active {
        final_w.push(
            matrix.workload().query(qid).clone(),
            matrix.query_weight(qid),
        );
    }
    let fresh_cands: Vec<Index> = live.iter().map(|(_, idx)| idx.clone()).collect();
    let fresh = CostMatrix::build(&inum, &final_w, &fresh_cands);

    for _ in 0..6 {
        // A random subset of the live candidates, expressed in both id
        // spaces (the incremental matrix's stable ids vs the fresh
        // matrix's positions).
        let mut inc_cfg = matrix.empty_config();
        let mut fresh_cfg = fresh.empty_config();
        for (pos, (id, _)) in live.iter().enumerate() {
            if rng.random_range(0..2usize) == 1 {
                inc_cfg.insert(*id);
                fresh_cfg.insert(pos);
            }
        }
        for (pos, &qid) in active.iter().enumerate() {
            let a = matrix.cost(qid, &inc_cfg);
            let b = fresh.cost(pos, &fresh_cfg);
            assert!(
                tolerance::within(a, b, tolerance::EXACT_ORDER),
                "incremental {a} vs fresh {b} (qid {qid}, cfg {:?})",
                inc_cfg.ids().collect::<Vec<_>>()
            );
        }
        let wa = matrix.workload_cost(&inc_cfg);
        let wb = fresh.workload_cost(&fresh_cfg);
        assert!(
            tolerance::within(wa, wb, tolerance::EXACT_ORDER),
            "workload cost: incremental {wa} vs fresh {wb}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// SDSS: any interleaving of candidate add/remove and query add/retire
    /// produces a matrix that agrees with a fresh build of the final state.
    #[test]
    fn incremental_matrix_matches_fresh_build_on_sdss(seed in 0u64..1000, n_queries in 4usize..10) {
        let c = catalog();
        let pool = sdss_workload(c, n_queries, seed);
        let cands = workload_candidates(c, &pool, &CandidateConfig::default());
        assert_incremental_matches_fresh(c, &pool, &cands.indexes, seed ^ 0x1AC);
    }

    /// TPC-H: the same incremental-vs-fresh invariant on the other sample
    /// catalog.
    #[test]
    fn incremental_matrix_matches_fresh_build_on_tpch(seed in 0u64..1000, n_queries in 4usize..8) {
        use std::sync::OnceLock;
        static TPCH: OnceLock<Catalog> = OnceLock::new();
        let c = TPCH.get_or_init(|| tpch_catalog(0.01));
        let pool = tpch_workload(c, n_queries, seed);
        let cands = workload_candidates(c, &pool, &CandidateConfig::default());
        assert_incremental_matches_fresh(c, &pool, &cands.indexes, seed ^ 0x7D1F);
    }
}

/// A parallel cold build is bit-identical to a serial one: cells are
/// computed independently per query and written to disjoint slots, so
/// thread count cannot change a single bit of any cost.
#[test]
fn parallel_build_matches_serial_exactly() {
    let c = catalog();
    let opt = optimizer();
    let inum = Inum::new(c, &opt);
    let w = sdss_workload(c, 18, 808);
    let cands = workload_candidates(c, &w, &CandidateConfig::default());
    let serial = CostMatrix::build_with_threads(&inum, &w, &cands.indexes, 1);
    for threads in [2, 4, 7] {
        let spawned = pgdesign_inum::spawned_workers();
        let parallel = CostMatrix::build_with_threads(&inum, &w, &cands.indexes, threads);
        assert_eq!(
            pgdesign_inum::spawned_workers() - spawned,
            threads as u64 - 1,
            "the build ran on {threads} workers"
        );
        let mut rng = StdRng::seed_from_u64(threads as u64);
        for _ in 0..8 {
            use rand::Rng;
            let ids: Vec<usize> = (0..cands.indexes.len())
                .filter(|_| rng.random_range(0..3usize) == 0)
                .collect();
            let cfg = serial.config_of(ids.iter().copied());
            for qi in 0..w.len() {
                assert_eq!(
                    serial.cost(qi, &cfg),
                    parallel.cost(qi, &cfg),
                    "{threads}-thread build must be bit-identical (Q{qi}, {ids:?})"
                );
            }
        }
    }
}

/// Workload cost decomposes linearly over queries and weights.
#[test]
fn workload_cost_is_linear() {
    let c = catalog();
    let opt = optimizer();
    let mut rng = StdRng::seed_from_u64(1);
    let q1 = sdss_template(c, 0, &mut rng);
    let q2 = sdss_template(c, 1, &mut rng);
    let d = PhysicalDesign::empty();
    let mut w = pgdesign_query::Workload::new();
    w.push(q1.clone(), 2.0);
    w.push(q2.clone(), 3.0);
    let total = opt.workload_cost(c, &d, &w);
    let manual = 2.0 * opt.cost(c, &d, &q1) + 3.0 * opt.cost(c, &d, &q2);
    assert!(tolerance::within(total, manual, tolerance::REORDERED_SUM));
}

/// The matrix-backed interactive session agrees with the per-design
/// [`Inum::cost`] slow path over random add/remove-index and
/// set-partitioning interleavings: after every edit, each query's
/// `evaluate()` cost must match costing the session's derived design
/// through a fresh INUM oracle to within 1e-9 relative — the
/// `TuningSession` redesign swaps the evaluation path, not the answer.
fn assert_interactive_matches_inum(catalog: &Catalog, workload: &Workload, seed: u64) {
    use pgdesign::Designer;
    use pgdesign_catalog::design::{HorizontalPartitioning, VerticalPartitioning};
    use pgdesign_catalog::schema::TableId;
    use rand::Rng;
    let designer = Designer::new(catalog.clone());
    let mut session = designer.session(workload.clone());
    let opt = optimizer();
    let oracle = Inum::new(catalog, &opt);
    let cands = workload_candidates(catalog, workload, &CandidateConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let tables: Vec<(TableId, u16)> = catalog.schema.tables().map(|t| (t.id, t.width())).collect();

    for _ in 0..12 {
        match rng.random_range(0..6usize) {
            0 | 1 if !cands.indexes.is_empty() => {
                let idx = cands.indexes[rng.random_range(0..cands.indexes.len())].clone();
                session.add_index(idx);
            }
            2 if !cands.indexes.is_empty() => {
                let idx = &cands.indexes[rng.random_range(0..cands.indexes.len())];
                session.remove_index(idx);
            }
            3 | 4 => {
                let (t, width) = tables[rng.random_range(0..tables.len())];
                if width >= 2 {
                    let n_groups = rng.random_range(2..5usize).min(width as usize);
                    let mut groups: Vec<Vec<u16>> = vec![Vec::new(); n_groups];
                    for c in 0..width {
                        groups[rng.random_range(0..n_groups)].push(c);
                    }
                    if rng.random_range(0..3usize) == 0 {
                        // Replicate one column into another group.
                        groups[rng.random_range(0..n_groups)].push(rng.random_range(0..width));
                    }
                    groups.retain(|g| !g.is_empty());
                    session.set_vertical(VerticalPartitioning::new(t, groups));
                }
            }
            _ => {
                let (t, width) = tables[rng.random_range(0..tables.len())];
                let col = rng.random_range(0..width);
                let stats = catalog.table_stats(t).column(col);
                if stats.max > stats.min {
                    let parts = rng.random_range(2..9usize);
                    let bounds: Vec<f64> = (1..parts)
                        .map(|i| stats.min + (stats.max - stats.min) * i as f64 / parts as f64)
                        .collect();
                    let hp = HorizontalPartitioning::new(t, col, bounds);
                    if hp.partitions() >= 2 {
                        session.set_horizontal(hp);
                    }
                }
            }
        }
        let eval = session.evaluate();
        let design = session.design();
        for ((q, _), qb) in workload.iter().zip(&eval.per_query) {
            let slow = oracle.cost(&design, q);
            assert!(
                tolerance::within(qb.whatif_cost, slow, tolerance::REORDERED_SUM),
                "interactive {} vs inum {slow} (design {design:?})",
                qb.whatif_cost
            );
        }
    }
    // And the whole exploration issued zero per-design cost calls on the
    // session's own INUM.
    assert_eq!(
        session.tuning_stats().inum.cost_calls,
        0,
        "interactive evaluation must stay on matrix lookups"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// SDSS: random interactive explorations cost identically through the
    /// session matrix and the per-design slow path.
    #[test]
    fn interactive_session_matches_inum_on_sdss(seed in 0u64..1000, n_queries in 3usize..8) {
        let c = catalog();
        let w = sdss_workload(c, n_queries, seed);
        assert_interactive_matches_inum(c, &w, seed ^ 0x5E55);
    }

    /// TPC-H: the same interactive invariant on the other sample catalog.
    #[test]
    fn interactive_session_matches_inum_on_tpch(seed in 0u64..1000, n_queries in 3usize..6) {
        use std::sync::OnceLock;
        static TPCH: OnceLock<Catalog> = OnceLock::new();
        let c = TPCH.get_or_init(|| tpch_catalog(0.01));
        let w = tpch_workload(c, n_queries, seed);
        assert_interactive_matches_inum(c, &w, seed ^ 0x1E55);
    }
}

/// One session serves the stream *and* the advisors: an offline
/// recommendation requested right after an online run reuses the warm
/// matrix instead of rebuilding (`cells_reused` grows, `builds` does not).
#[test]
fn offline_recommendation_after_online_run_reuses_cells() {
    use pgdesign::{Designer, IndexAdvisor};
    use pgdesign_colt::ColtConfig;
    let c = catalog();
    let designer = Designer::new(c.clone());
    let mut session = designer.online_session(ColtConfig {
        epoch_length: 10,
        ..Default::default()
    });
    let q =
        pgdesign_query::parse_query(&c.schema, "SELECT ra FROM photoobj WHERE objid = 42").unwrap();
    session.observe_all(std::iter::repeat_with(|| q.clone()).take(30));
    let before = session.tuning_stats();
    let rec = session.advise(&mut IndexAdvisor::default());
    let after = session.tuning_stats();
    assert_eq!(after.matrix.builds, before.matrix.builds, "no rebuild");
    assert!(
        after.matrix.cells_reused > before.matrix.cells_reused,
        "warm cells must be reused: {:?} -> {:?}",
        before.matrix,
        after.matrix
    );
    assert!(
        rec.cost <= rec.base_cost
            || tolerance::within(rec.cost, rec.base_cost, tolerance::REORDERED_SUM)
    );
}

/// Scenario 2's one design fits its one storage budget, on a seeded grid
/// of both catalogs, three workload sizes and four budgets: index bytes
/// plus replicated fragment bytes stay within the budget; partitions never
/// cost more than the indexes alone, nor the indexes more than no design;
/// and the reported cost is what the per-design slow path says for the
/// adopted design. SDSS `builtin:40` (seed 42) at half the data size is
/// the CLI's README instance.
#[test]
fn offline_design_fits_its_budget() {
    use pgdesign::Designer;
    let mut violations = Vec::new();
    for tpch in [false, true] {
        let d = Designer::new(if tpch {
            tpch_catalog(0.01)
        } else {
            catalog().clone()
        });
        let (schema, stats) = (&d.catalog.schema, &d.catalog.stats);
        let inum = Inum::new(&d.catalog, &d.optimizer);
        for (n, seed) in [12, 36, 40].into_iter().flat_map(|n| [(n, 5), (n, 42)]) {
            let w = if tpch {
                tpch_workload(&d.catalog, n, seed)
            } else {
                sdss_workload(&d.catalog, n, seed)
            };
            for frac in [0.5, 0.1, 0.02, 0.005] {
                let budget = (d.catalog.data_bytes() as f64 * frac) as u64;
                let name = if tpch { "TPC-H" } else { "SDSS" };
                let at = format!("{name} builtin:{n}, seed {seed}, budget {frac}");
                let r = d.recommend(&w, budget);
                let bytes = r.design.index_bytes(schema, stats);
                let replicated = r.design.replication_bytes(schema, stats);
                if bytes + replicated > budget {
                    violations.push(format!(
                        "{at}: {bytes} index + {replicated} replicated bytes over {budget}"
                    ));
                }
                if !(r.combined_cost <= r.indexes.cost && r.indexes.cost <= r.base_cost) {
                    violations.push(format!(
                        "{at}: adopted {} vs indexes alone {} vs base {}",
                        r.combined_cost, r.indexes.cost, r.base_cost
                    ));
                }
                let slow = inum.workload_cost(&r.design, &w);
                if !tolerance::within(r.combined_cost, slow, tolerance::REORDERED_SUM) {
                    violations.push(format!(
                        "{at}: reported {} vs slow path {slow}",
                        r.combined_cost
                    ));
                }
            }
        }
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

/// Duplicate candidates handed to `build` stay findable through
/// `candidate_id` even after the map-owning copy is removed (the O(1)
/// dedupe map re-points to a surviving live duplicate).
#[test]
fn duplicate_candidates_stay_findable_after_removal() {
    let c = catalog();
    let opt = optimizer();
    let inum = Inum::new(c, &opt);
    let w = sdss_workload(c, 3, 909);
    let photo = c.schema.table_by_name("photoobj").unwrap().id;
    let x = Index::new(photo, vec![0]);
    let mut m = CostMatrix::build(&inum, &w, &[x.clone(), x.clone()]);
    assert_eq!(m.candidate_id(&x), Some(0), "first registration wins");
    m.remove_candidate(0);
    assert_eq!(
        m.candidate_id(&x),
        Some(1),
        "the surviving duplicate must stay findable"
    );
    let id = m.add_candidate(&x);
    assert_eq!(
        id, 1,
        "re-adding must reuse the live duplicate, not recompute"
    );
    m.remove_candidate(1);
    assert_eq!(m.candidate_id(&x), None);
}

/// Lock-free reader snapshots agree with serial rebuilds under live
/// rotation: N reader threads take snapshots through [`MatrixReader`] and
/// issue random `cost`/`joint_cost` lookups while the writer interleaves
/// `add_candidates`/`remove_candidate`/`add_queries`/`retire_query` and
/// publishes a new generation per round. The writer records the exact
/// (active queries, live candidates) state behind every generation; after
/// the threads join, each reader-observed (generation, lookup) pair must
/// agree within 1e-12 with a fresh serial build of that generation's
/// recorded state. Finally, a burst of snapshot lookups is pinned to zero
/// [`Inum::cost`] traffic — the reader hot path is matrix-only.
fn assert_concurrent_readers_match_serial(
    catalog: &Catalog,
    pool: &Workload,
    cand_pool: &[Index],
    seed: u64,
) {
    use rand::Rng;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};

    let opt = optimizer();
    let inum = Inum::new(catalog, &opt);
    let mut rng = StdRng::seed_from_u64(seed);

    let nq0 = rng.random_range(1..pool.len().max(2)).min(pool.len());
    let nc0 = rng.random_range(0..cand_pool.len().max(1));
    let init_w = Workload::from_queries((0..nq0).map(|i| pool.query(i).clone()));
    let mut matrix = CostMatrix::build(&inum, &init_w, &cand_pool[..nc0]);

    // Everything needed to rebuild a generation serially: the ordered
    // active (qid, query, weight) list and the ordered live (cand id,
    // index) list at publish time. Generation g lives at `states[g]`.
    type GenState = (
        Vec<(usize, pgdesign_query::Query, f64)>,
        Vec<(usize, Index)>,
    );
    fn record(m: &CostMatrix<'_>) -> GenState {
        let actives = m
            .active_query_ids()
            .map(|qid| (qid, m.workload().query(qid).clone(), m.query_weight(qid)))
            .collect();
        let live = m.candidates().map(|(id, idx)| (id, idx.clone())).collect();
        (actives, live)
    }
    let mut states: Vec<GenState> = vec![record(&matrix)];

    // Each observation is (generation, qid, live cand ids, joint?, cost).
    type Observation = (u64, usize, Vec<usize>, bool, f64);

    let done = AtomicBool::new(false);
    let reader0 = matrix.reader();

    let observations: Vec<Observation> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3u64)
            .map(|t| {
                let mut reader = reader0.clone();
                let done = &done;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (0xBEEF + t));
                    let mut obs: Vec<Observation> = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        reader.refresh();
                        let snap = reader.snapshot();
                        let generation = snap.generation();
                        let actives: Vec<usize> = snap.active_query_ids().collect();
                        let live: Vec<usize> = snap.candidates().map(|(id, _)| id).collect();
                        if actives.is_empty() {
                            continue;
                        }
                        let qid = actives[rng.random_range(0..actives.len())];
                        let ids: Vec<usize> = live
                            .iter()
                            .copied()
                            .filter(|_| rng.random_range(0..2usize) == 1)
                            .collect();
                        let joint = rng.random_range(0..2usize) == 1;
                        let cost = if joint {
                            let mut cfg = snap.empty_joint();
                            for &id in &ids {
                                cfg.indexes.insert(id);
                            }
                            snap.joint_cost(qid, &cfg)
                        } else {
                            snap.cost(qid, &snap.config_of(ids.iter().copied()))
                        };
                        if obs.len() < 160 {
                            obs.push((generation, qid, ids, joint, cost));
                        }
                    }
                    obs
                })
            })
            .collect();

        // The writer rotates the live state and publishes one generation
        // per round, on this thread, while the readers hammer snapshots.
        for _round in 0..5 {
            for _ in 0..3 {
                match rng.random_range(0..4usize) {
                    0 if !cand_pool.is_empty() => {
                        let idx = cand_pool[rng.random_range(0..cand_pool.len())].clone();
                        matrix.add_candidates(&[idx]);
                    }
                    1 => {
                        let live: Vec<usize> = matrix.candidates().map(|(id, _)| id).collect();
                        if !live.is_empty() {
                            matrix.remove_candidate(live[rng.random_range(0..live.len())]);
                        }
                    }
                    2 => {
                        let q = pool.query(rng.random_range(0..pool.len()));
                        matrix.add_queries([(q, 1.0)]);
                    }
                    _ => {
                        let active: Vec<usize> = matrix.active_query_ids().collect();
                        if active.len() > 1 {
                            matrix.retire_query(active[rng.random_range(0..active.len())]);
                        }
                    }
                }
            }
            states.push(record(&matrix));
            let generation = matrix.publish();
            assert_eq!(
                generation as usize,
                states.len() - 1,
                "publish must advance the generation by exactly one"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        done.store(true, Ordering::Release);
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    assert!(
        !observations.is_empty(),
        "readers must record at least one lookup"
    );

    // Reader hot-path pin: snapshot lookups are pure matrix arithmetic —
    // no Inum::cost calls, no writer-side matrix-lookup counters, only
    // the dedicated reader counter moves.
    let stats_before = inum.stats();
    let matrix_before = inum.matrix_stats();
    let reader_before = matrix.reader_lookups();
    let mut pin_reader = matrix.reader();
    pin_reader.refresh();
    let snap = pin_reader.snapshot();
    let actives: Vec<usize> = snap.active_query_ids().collect();
    let cfg = snap.empty_config();
    for &qid in &actives {
        let _ = snap.cost(qid, &cfg);
    }
    assert_eq!(
        inum.stats(),
        stats_before,
        "snapshot lookups must issue zero Inum::cost calls"
    );
    assert_eq!(
        inum.matrix_stats().lookups,
        matrix_before.lookups,
        "snapshot lookups must not move the writer-side lookup counter"
    );
    assert_eq!(
        matrix.reader_lookups(),
        reader_before + actives.len() as u64,
        "every snapshot lookup lands on the reader counter"
    );

    // Verify every observed generation against a fresh serial build of
    // its recorded state (ids translated through position maps, as in
    // the incremental-vs-fresh invariant).
    let mut by_gen: std::collections::BTreeMap<u64, Vec<&Observation>> =
        std::collections::BTreeMap::new();
    for o in &observations {
        by_gen.entry(o.0).or_default().push(o);
    }
    for (&generation, obs) in &by_gen {
        let (actives, live) = &states[generation as usize];
        let mut fresh_w = Workload::new();
        for (_, q, wt) in actives {
            fresh_w.push(q.clone(), *wt);
        }
        let fresh_cands: Vec<Index> = live.iter().map(|(_, idx)| idx.clone()).collect();
        let fresh = CostMatrix::build_with_threads(&inum, &fresh_w, &fresh_cands, 1);
        let qpos: HashMap<usize, usize> = actives
            .iter()
            .enumerate()
            .map(|(p, (qid, _, _))| (*qid, p))
            .collect();
        let cpos: HashMap<usize, usize> = live
            .iter()
            .enumerate()
            .map(|(p, (cid, _))| (*cid, p))
            .collect();
        for (_, qid, ids, joint, cost) in obs {
            let pos_ids: Vec<usize> = ids.iter().map(|id| cpos[id]).collect();
            let qp = qpos[qid];
            let serial = if *joint {
                let mut jcfg = fresh.empty_joint();
                for &p in &pos_ids {
                    jcfg.indexes.insert(p);
                }
                fresh.joint_cost(qp, &jcfg)
            } else {
                fresh.cost(qp, &fresh.config_of(pos_ids.iter().copied()))
            };
            assert!(
                tolerance::within(*cost, serial, tolerance::EXACT_ORDER),
                "reader saw {cost} at generation {generation}, serial rebuild says {serial} \
                 (qid {qid}, cands {ids:?}, joint {joint})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// SDSS: concurrent snapshot readers agree with serial rebuilds of
    /// every published generation, under live epoch rotation.
    #[test]
    fn concurrent_readers_match_serial_on_sdss(seed in 0u64..1000, n_queries in 4usize..9) {
        let c = catalog();
        let pool = sdss_workload(c, n_queries, seed);
        let cands = workload_candidates(c, &pool, &CandidateConfig::default());
        assert_concurrent_readers_match_serial(c, &pool, &cands.indexes, seed ^ 0xC0C0);
    }

    /// TPC-H: the same concurrent-agreement invariant on the other sample
    /// catalog.
    #[test]
    fn concurrent_readers_match_serial_on_tpch(seed in 0u64..1000, n_queries in 4usize..7) {
        use std::sync::OnceLock;
        static TPCH: OnceLock<Catalog> = OnceLock::new();
        let c = TPCH.get_or_init(|| tpch_catalog(0.01));
        let pool = tpch_workload(c, n_queries, seed);
        let cands = workload_candidates(c, &pool, &CandidateConfig::default());
        assert_concurrent_readers_match_serial(c, &pool, &cands.indexes, seed ^ 0x1EAD);
    }
}

// ---------------------------------------------------------------------------
// Durability: snapshot + edit-log round trips, crash and corruption recovery
// ---------------------------------------------------------------------------

use pgdesign::{ColdStart, Designer, TuningSession};
use pgdesign_catalog::design::HorizontalPartitioning;
use pgdesign_catalog::TableId;
use pgdesign_durability::{
    log_append_retrying, log_open, log_reset, read_snapshot, write_snapshot, DurableStore,
    Failpoint, LogState, MemStore, SharedMemStore,
};
use pgdesign_inum::{decode_edit, decode_snapshot, encode_edit, encode_published, restore_matrix};

/// Every cost the two matrices can produce agrees within 1e-12 (in
/// practice bit-identically — replayed edits and restored cells run the
/// same arithmetic as the live mutations did).
fn assert_matrices_agree(live: &CostMatrix, restored: &CostMatrix, seed: u64) {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let close = |a: f64, b: f64, what: &str| {
        assert!(
            tolerance::within(a, b, tolerance::EXACT_ORDER),
            "{what}: live {a} vs restored {b}"
        );
    };
    assert_eq!(live.n_queries(), restored.n_queries());
    assert_eq!(live.n_candidates(), restored.n_candidates());
    let live_ids: Vec<usize> = live.candidates().map(|(id, _)| id).collect();
    let restored_ids: Vec<usize> = restored.candidates().map(|(id, _)| id).collect();
    assert_eq!(live_ids, restored_ids, "stable candidate ids must survive");
    for _ in 0..6 {
        let picked: Vec<usize> = live_ids
            .iter()
            .copied()
            .filter(|_| rng.random_range(0..2usize) == 1)
            .collect();
        let cfg = live.config_of(picked.iter().copied());
        for qid in live.active_query_ids() {
            assert!(restored.query_active(qid));
            close(live.cost(qid, &cfg), restored.cost(qid, &cfg), "cost");
        }
        close(
            live.workload_cost(&cfg),
            restored.workload_cost(&cfg),
            "workload cost",
        );
    }
    if live.n_fragments() > 0 || live.n_splits() > 0 {
        let mut joint = live.empty_joint();
        for f in 0..live.n_fragments() {
            joint.fragments.insert(f);
        }
        for s in 0..live.n_splits() {
            joint.splits.insert(s);
        }
        close(
            live.joint_workload_cost(&joint),
            restored.joint_workload_cost(&joint),
            "joint workload cost",
        );
    }
}

/// The durable round trip as the session performs it, at a random cut: a
/// live matrix absorbs a random op interleaving (journaled); somewhere in
/// the middle a checkpoint folds the state into a fresh snapshot; the
/// remaining edits land in the log. Decoding the snapshot and replaying
/// the log on a *second* INUM must agree with the live matrix on every
/// cost, within 1e-12.
fn assert_durable_roundtrip_matches_live(
    catalog: &Catalog,
    pool: &Workload,
    cand_pool: &[Index],
    seed: u64,
) {
    use rand::Rng;
    let opt = optimizer();
    let inum = Inum::new(catalog, &opt);
    let mut rng = StdRng::seed_from_u64(seed);

    let nq0 = rng.random_range(1..pool.len().max(2)).min(pool.len());
    let init_w = Workload::from_queries((0..nq0).map(|i| pool.query(i).clone()));
    let nc0 = rng.random_range(0..cand_pool.len().max(1));
    let mut live = CostMatrix::build(&inum, &init_w, &cand_pool[..nc0]);
    live.publish();

    let mut store = MemStore::new();
    let mut crc = write_snapshot(&mut store, "m.pgds", &encode_published(&live)).unwrap();
    log_reset(&mut store, "m.pgdl", crc).unwrap();
    live.enable_journal();

    let n_ops = 14;
    let cut = rng.random_range(0..n_ops);
    for i in 0..n_ops {
        match rng.random_range(0..7usize) {
            0 if !cand_pool.is_empty() => {
                live.add_candidate(&cand_pool[rng.random_range(0..cand_pool.len())]);
            }
            1 => {
                let ids: Vec<usize> = live.candidates().map(|(id, _)| id).collect();
                if !ids.is_empty() {
                    live.remove_candidate(ids[rng.random_range(0..ids.len())]);
                }
            }
            2 => {
                let q = pool.query(rng.random_range(0..pool.len()));
                live.add_queries([(q, 1.0 + rng.random_range(0..3) as f64)]);
            }
            3 => {
                let active: Vec<usize> = live.active_query_ids().collect();
                if active.len() > 1 {
                    live.retire_query(active[rng.random_range(0..active.len())]);
                }
            }
            4 => {
                live.register_fragment(TableId(0), &[0, 1]);
            }
            5 => {
                live.register_split(HorizontalPartitioning {
                    table: TableId(0),
                    column: 0,
                    bounds: vec![0.25, 0.5],
                });
            }
            _ => {
                live.publish();
            }
        }
        if i == cut {
            // Checkpoint exactly as the session does: publish, fold the
            // published state into a fresh snapshot, truncate the log.
            live.publish();
            let _ = live.take_journal();
            crc = write_snapshot(&mut store, "m.pgds", &encode_published(&live)).unwrap();
            log_reset(&mut store, "m.pgdl", crc).unwrap();
        }
    }
    live.publish();
    let records: Vec<Vec<u8>> = live.take_journal().iter().map(encode_edit).collect();
    log_append_retrying(&mut store, "m.pgdl", &records, 0, |_| {}).unwrap();

    // Recover on a second INUM over the same catalog.
    let opt2 = optimizer();
    let inum2 = Inum::new(catalog, &opt2);
    let file = read_snapshot(&mut store, "m.pgds").unwrap();
    let decoded = decode_snapshot(&file.records).unwrap();
    let (mut restored, _) = restore_matrix(&inum2, decoded).unwrap();
    match log_open(&mut store, "m.pgdl", file.body_crc).unwrap() {
        LogState::Replay(scan) => {
            assert_eq!(scan.dropped_records, 0, "clean log has no torn tail");
            for rec in &scan.records {
                restored.apply_edit(&decode_edit(rec).unwrap());
            }
        }
        other => panic!("expected a replayable log, got {other:?}"),
    }
    assert_eq!(inum2.matrix_stats().builds, 0, "restore must not build");
    assert_eq!(
        live.published_generation(),
        restored.published_generation(),
        "publication numbering continues across the round trip"
    );
    assert_matrices_agree(&live, &restored, seed ^ 0xD17A);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// SDSS: durable snapshot + replayed edit log equals the live matrix.
    #[test]
    fn durable_roundtrip_matches_live_on_sdss(seed in 0u64..1000, n_queries in 3usize..8) {
        let c = catalog();
        let w = sdss_workload(c, n_queries, seed);
        let cands = workload_candidates(c, &w, &CandidateConfig::default());
        assert_durable_roundtrip_matches_live(c, &w, &cands.indexes, seed ^ 0x5EED);
    }

    /// TPC-H: same invariant on the other catalog family.
    #[test]
    fn durable_roundtrip_matches_live_on_tpch(seed in 0u64..1000, n_queries in 3usize..6) {
        use std::sync::OnceLock;
        static TPCH: OnceLock<Catalog> = OnceLock::new();
        let c = TPCH.get_or_init(|| tpch_catalog(0.01));
        let w = tpch_workload(c, n_queries, seed);
        let cands = workload_candidates(c, &w, &CandidateConfig::default());
        assert_durable_roundtrip_matches_live(c, &w, &cands.indexes, seed ^ 0x7C4);
    }
}

/// A restored session's costs must equal a cold build over whatever state
/// it recovered — the "never a wrong cost" half of the recovery contract.
/// (Which prefix of the edits survived the crash is allowed to vary; a
/// matrix inconsistent with *any* committed state is not.)
fn assert_restored_is_consistent(session: &mut TuningSession, seed: u64) {
    use rand::Rng;
    let matrix = session.matrix_mut();
    let opt = optimizer();
    let inum = Inum::new(catalog(), &opt);
    let live: Vec<(usize, Index)> = matrix
        .candidates()
        .map(|(id, idx)| (id, idx.clone()))
        .collect();
    let active: Vec<usize> = matrix.active_query_ids().collect();
    let mut w = Workload::new();
    for &qid in &active {
        w.push(
            matrix.workload().query(qid).clone(),
            matrix.query_weight(qid),
        );
    }
    let fresh_cands: Vec<Index> = live.iter().map(|(_, idx)| idx.clone()).collect();
    let fresh = CostMatrix::build(&inum, &w, &fresh_cands);

    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..6 {
        let mut rec_cfg = matrix.empty_config();
        let mut fresh_cfg = fresh.empty_config();
        for (pos, (id, _)) in live.iter().enumerate() {
            if rng.random_range(0..2usize) == 1 {
                rec_cfg.insert(*id);
                fresh_cfg.insert(pos);
            }
        }
        for (pos, &qid) in active.iter().enumerate() {
            let a = matrix.cost(qid, &rec_cfg);
            let b = fresh.cost(pos, &fresh_cfg);
            assert!(
                tolerance::within(a, b, tolerance::EXACT_ORDER),
                "restored {a} vs cold {b} (qid {qid})"
            );
        }
        let wa = matrix.workload_cost(&rec_cfg);
        let wb = fresh.workload_cost(&fresh_cfg);
        assert!(
            tolerance::within(wa, wb, tolerance::EXACT_ORDER),
            "workload: restored {wa} vs cold {wb}"
        );
    }
}

/// Crash mid-append at many byte offsets: whatever prefix of the log
/// survives, the reopened session is internally consistent — its costs
/// equal a cold build over the state it recovered. No failpoint may ever
/// produce a *wrong* cost.
#[test]
fn crash_mid_append_never_yields_a_wrong_cost() {
    let c = catalog();
    let designer = Designer::new(c.clone());
    let w = sdss_workload(c, 5, 4242);
    let cands = workload_candidates(c, &w, &CandidateConfig::default());

    for (round, crash_after) in [3usize, 9, 17, 40, 90, 400].into_iter().enumerate() {
        let disk = SharedMemStore::new();
        {
            let mut s =
                TuningSession::open_or_create_on(&designer, w.clone(), Box::new(disk.clone()))
                    .expect("first open");
            disk.lock()
                .arm(Failpoint::CrashAfterBytes { n: crash_after });
            // Mutations after arming: the log append crashes partway
            // through one of these records. The session degrades and keeps
            // running in memory; we then drop it — the kill.
            let m = s.matrix_mut();
            for idx in cands.indexes.iter().take(3) {
                m.add_candidate(idx);
            }
            m.register_fragment(TableId(0), &[0, 1]);
            s.publish();
        }
        // Restart: an arbitrary prefix of the un-fsync'd tail made it out.
        disk.lock().power_cut(round % 3);
        let mut s =
            TuningSession::open_or_create_on(&designer, Workload::new(), Box::new(disk.clone()))
                .expect("reopen after crash");
        let stats = s.stats();
        let recovery = stats.recovery.expect("durable session");
        assert_eq!(recovery.cold_start, None, "snapshot survived the crash");
        assert_restored_is_consistent(&mut s, 0xC0FE ^ crash_after as u64);
    }
}

/// What a reader sees of a matrix, as bits: candidate ids, active query
/// slots, the workload cost of every candidate prefix, and the joint cost
/// with every fragment — weights, cells and registries all show.
fn probe_bits(m: &pgdesign_inum::MatrixCore) -> Vec<u64> {
    let ids: Vec<usize> = m.candidates().map(|(id, _)| id).collect();
    let mut bits: Vec<u64> = ids.iter().map(|&id| id as u64).collect();
    bits.extend(m.active_query_ids().map(|q| q as u64));
    for n in 0..=ids.len() {
        let cfg = m.config_of(ids[..n].iter().copied());
        bits.push(m.workload_cost(&cfg).to_bits());
    }
    let mut joint = m.empty_joint();
    for f in 0..m.n_fragments() {
        joint.fragments.insert(f);
    }
    bits.push(m.joint_workload_cost(&joint).to_bits());
    bits
}

/// The durable unit is a published generation. A crash inside the append
/// of the last generation — at every frame boundary of its bytes and one
/// byte either side, with up to two unsynced bytes surviving the power
/// cut — reopens at exactly the previous published generation; once the
/// whole generation is written, at exactly the last one. The generation
/// number and the cost bits of the reader and of the writer must match.
#[test]
fn crash_mid_append_reopens_at_a_published_generation_exactly() {
    let c = catalog();
    let designer = Designer::new(c.clone());
    let w = sdss_workload(c, 5, 4242);
    let cands = workload_candidates(c, &w, &CandidateConfig::default());
    let log_len = |disk: &SharedMemStore| disk.lock().read("matrix.pgdl").unwrap().unwrap().len();

    // Two generations after the open: the first synced cleanly, the
    // second appended under `crash`. Returns what each one published and
    // the log length between them.
    let run = |disk: &SharedMemStore, crash: Option<usize>| {
        let mut s = TuningSession::open_or_create_on(&designer, w.clone(), Box::new(disk.clone()))
            .expect("first open");
        for idx in cands.indexes.iter().take(2) {
            s.matrix_mut().add_candidate(idx);
        }
        s.publish();
        let prev = (s.stats().published_generation, probe_bits(&s.reader()));
        let start = log_len(disk);
        if let Some(n) = crash {
            disk.lock().arm(Failpoint::CrashAfterBytes { n });
        }
        let m = s.matrix_mut();
        for idx in cands.indexes.iter().skip(2).take(3) {
            m.add_candidate(idx);
        }
        m.register_fragment(TableId(0), &[0, 1]);
        m.retire_query(1);
        s.publish();
        let last = (s.stats().published_generation, probe_bits(&s.reader()));
        (prev, last, start)
    };

    // A clean run measures the last generation's frames.
    let disk = SharedMemStore::new();
    let (prev, last, start) = run(&disk, None);
    assert_ne!(prev, last, "the last generation changes what readers see");
    let log = disk.lock().read("matrix.pgdl").unwrap().unwrap();
    let mut boundaries = vec![0];
    let mut pos = start;
    while pos < log.len() {
        let len = u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
        boundaries.push(pos - start);
    }
    let total = log.len() - start;
    assert_eq!(pos, log.len());
    assert!(
        boundaries.len() > 3,
        "the last generation spans several frames"
    );

    for &b in &boundaries {
        for n in b.saturating_sub(1)..=b + 1 {
            for keep in 0..=2 {
                let disk = SharedMemStore::new();
                drop(run(&disk, Some(n)));
                disk.lock().power_cut(keep);
                let s = TuningSession::open_or_create_on(
                    &designer,
                    Workload::new(),
                    Box::new(disk.clone()),
                )
                .expect("reopen after crash");
                let recovery = s.stats().recovery.expect("durable session");
                assert_eq!(recovery.cold_start, None, "snapshot survived the crash");
                let (generation, bits) = if n < total { &prev } else { &last };
                let what = format!("crash after {n} of {total} bytes, {keep} unsynced kept");
                assert_eq!(s.stats().published_generation, *generation, "{what}");
                assert_eq!(probe_bits(&s.reader()), *bits, "reader: {what}");
                assert_eq!(probe_bits(s.matrix()), *bits, "writer: {what}");
            }
        }
    }
}

/// A checkpoint after a direct `CostMatrix::publish` folds that generation
/// into the snapshot, so its edits must not also reach the fresh log: the
/// next restart would replay them on a base that already holds them.
#[test]
fn checkpoint_after_a_direct_publish_replays_nothing_twice() {
    let c = catalog();
    let designer = Designer::new(c.clone());
    let w = sdss_workload(c, 6, 4343);
    let first = Workload::from_queries((0..4).map(|i| w.query(i).clone()));
    let disk = SharedMemStore::new();
    let before = {
        let mut s = TuningSession::open_or_create_on(&designer, first, Box::new(disk.clone()))
            .expect("first open");
        s.matrix_mut()
            .add_queries((4..6).map(|i| (w.query(i), w.entries[i].weight)));
        s.matrix_mut().publish();
        s.checkpoint().expect("checkpoint");
        s.publish();
        probe_bits(&s.reader())
    }; // the kill
    disk.lock().power_cut(0);
    let s = TuningSession::open_or_create_on(&designer, Workload::new(), Box::new(disk.clone()))
        .expect("reopen");
    assert_eq!(s.stats().recovery.expect("durable").cold_start, None);
    assert_eq!(probe_bits(&s.reader()), before);
    assert_eq!(probe_bits(s.matrix()), before);
}

/// A flipped byte in the log's tail record: the per-record CRC catches it,
/// the tail is dropped, and recovery lands on the last good record.
#[test]
fn flipped_byte_in_log_tail_is_dropped_at_last_good_record() {
    let c = catalog();
    let designer = Designer::new(c.clone());
    let w = sdss_workload(c, 4, 777);
    let disk = SharedMemStore::new();
    {
        let mut s = TuningSession::open_or_create_on(&designer, w.clone(), Box::new(disk.clone()))
            .expect("first open");
        let m = s.matrix_mut();
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        m.add_candidate(&Index::new(photo, vec![0]));
        s.publish();
        s.matrix_mut().add_candidate(&Index::new(photo, vec![1]));
        s.publish();
    }
    // Flip a byte inside the last appended record.
    let len = disk.lock().read("matrix.pgdl").unwrap().unwrap().len();
    disk.lock().corrupt("matrix.pgdl", len - 2);

    let mut s =
        TuningSession::open_or_create_on(&designer, Workload::new(), Box::new(disk.clone()))
            .expect("reopen");
    let stats = s.stats();
    let recovery = stats.recovery.expect("durable session");
    assert_eq!(recovery.cold_start, None);
    assert!(
        recovery.log_records_dropped > 0,
        "the corrupt tail record must be counted as dropped"
    );
    assert_restored_is_consistent(&mut s, 0xBADC);
}

/// A flipped byte in the snapshot body: the whole-body CRC rejects it and
/// the session degrades to a cold build — with the reason on record —
/// rather than costing from corrupt cells.
#[test]
fn flipped_byte_in_snapshot_degrades_to_cold_build() {
    let c = catalog();
    let designer = Designer::new(c.clone());
    let w = sdss_workload(c, 4, 778);
    let disk = SharedMemStore::new();
    {
        let _s = TuningSession::open_or_create_on(&designer, w.clone(), Box::new(disk.clone()))
            .expect("first open");
    }
    let len = disk.lock().read("matrix.pgds").unwrap().unwrap().len();
    disk.lock().corrupt("matrix.pgds", len / 2);

    let mut s = TuningSession::open_or_create_on(&designer, w.clone(), Box::new(disk.clone()))
        .expect("reopen never fails on corruption");
    let stats = s.stats();
    assert_eq!(
        stats.recovery.and_then(|r| r.cold_start),
        Some(ColdStart::SnapshotCorrupt)
    );
    assert_eq!(stats.matrix.builds, 1, "cold build replaces the bad state");
    assert_restored_is_consistent(&mut s, 0xC01D);
}

/// A snapshot from a future (or past) format version is refused up front —
/// cold build with `VersionSkew` on record, never a misdecoded matrix.
#[test]
fn version_skewed_snapshot_degrades_to_cold_build() {
    let c = catalog();
    let designer = Designer::new(c.clone());
    let w = sdss_workload(c, 4, 779);
    let disk = SharedMemStore::new();
    {
        let _s = TuningSession::open_or_create_on(&designer, w.clone(), Box::new(disk.clone()))
            .expect("first open");
    }
    // The format version is the u32 after the 4-byte magic; rewrite it.
    let mut bytes = disk.lock().read("matrix.pgds").unwrap().unwrap();
    bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    disk.lock().write_atomic("matrix.pgds", &bytes).unwrap();

    let s = TuningSession::open_or_create_on(&designer, w.clone(), Box::new(disk.clone()))
        .expect("reopen never fails on skew");
    assert_eq!(
        s.stats().recovery.and_then(|r| r.cold_start),
        Some(ColdStart::VersionSkew)
    );
}

/// State written under one optimizer configuration and reopened under
/// another — other cost parameters, or another join control — cold-starts
/// with the reason on record, and then costs exactly what a cold build
/// under the reader's optimizer costs, never the writer's cells.
#[test]
fn changed_optimizer_configuration_degrades_to_cold_build() {
    use pgdesign_optimizer::{CostParams, JoinControl};
    let c = catalog();
    let w = sdss_workload(c, 20, 101);
    let cands = workload_candidates(c, &w, &CandidateConfig::default()).indexes;
    let cheap_random = Optimizer {
        params: CostParams {
            random_page_cost: 1.1,
            ..CostParams::default()
        },
        ..Optimizer::new()
    };
    let mut hash_only = Designer::new(c.clone());
    hash_only
        .set_join_control(JoinControl {
            hash: true,
            merge: false,
            nestloop: true,
        })
        .expect("hash joins alone are supported");
    let pairs = [
        (
            Designer::with_optimizer(c.clone(), cheap_random).expect("supported"),
            Designer::new(c.clone()),
        ),
        (Designer::new(c.clone()), hash_only),
    ];
    for (writer, reader) in &pairs {
        let disk = SharedMemStore::new();
        {
            let mut s = TuningSession::open_or_create_on(writer, w.clone(), Box::new(disk.clone()))
                .expect("first open");
            s.matrix_mut().add_candidates(&cands);
            s.publish();
        }
        let mut reopened =
            TuningSession::open_or_create_on(reader, w.clone(), Box::new(disk.clone()))
                .expect("reopen never fails on a changed optimizer");
        assert_eq!(
            reopened.stats().recovery.and_then(|r| r.cold_start),
            Some(ColdStart::OptimizerChanged)
        );
        reopened.matrix_mut().add_candidates(&cands);
        let mut cold = reader.tuning_session(w.clone());
        cold.matrix_mut().add_candidates(&cands);
        let (m, f) = (reopened.matrix(), cold.matrix());
        for cfg in [m.empty_config(), m.config_of(0..cands.len())] {
            for q in 0..w.len() {
                assert_eq!(m.cost(q, &cfg).to_bits(), f.cost(q, &cfg).to_bits(), "Q{q}");
            }
        }
    }
}

/// A clock that advances `step` nanoseconds on every read, so a deadline
/// of `n` steps admits a fixed number of reads and the rung an epoch
/// closes on depends on the schedule alone, never on the machine.
struct SteppingClock {
    nanos: std::sync::atomic::AtomicU64,
    step: u64,
}

impl pgdesign::health::Clock for SteppingClock {
    fn now_nanos(&self) -> u64 {
        self.nanos
            .fetch_add(self.step, std::sync::atomic::Ordering::SeqCst)
    }
}

/// What one windowed stream left behind: the most skeleton-cache entries
/// resident after any epoch close, the largest bound an epoch close
/// allowed, the misses (each one an entry inserted), and the rung every
/// epoch closed on.
struct WindowRun {
    peak_resident: u64,
    peak_bound: u64,
    misses: u64,
    modes: Vec<pgdesign_colt::EpochMode>,
}

/// Statements of one drift cycle: four phases of two epochs each.
const WINDOW_EPOCH: usize = 10;
const WINDOW: usize = 4 * 2 * WINDOW_EPOCH;

/// Stream `windows` drift cycles through an in-memory online session,
/// closing epoch `e` under `deadlines[e % len]` (none when empty), and
/// check after every close that the resident skeleton-cache entries stay
/// within the active matrix slots, the pending queue and one epoch.
fn stream_windows(windows: usize, deadlines: &[Option<std::time::Duration>]) -> WindowRun {
    use pgdesign::Designer;
    use pgdesign_colt::ColtConfig;
    use pgdesign_query::generators::DriftingStream;
    let designer = Designer::new(catalog().clone());
    let mut session = designer.online_session(ColtConfig {
        epoch_length: WINDOW_EPOCH,
        ..Default::default()
    });
    session.set_clock(std::sync::Arc::new(SteppingClock {
        nanos: 0.into(),
        step: 1_000_000,
    }));
    let mut stream = DriftingStream::sdss_default(catalog().clone(), 2 * WINDOW_EPOCH, 17);
    let mut run = WindowRun {
        peak_resident: 0,
        peak_bound: 0,
        misses: 0,
        modes: Vec::new(),
    };
    for (i, q) in stream.batch(windows * WINDOW).into_iter().enumerate() {
        if i % WINDOW_EPOCH == 0 && !deadlines.is_empty() {
            session.set_epoch_deadline(deadlines[i / WINDOW_EPOCH % deadlines.len()]);
        }
        let Some(report) = session.observe(q) else {
            continue;
        };
        let (mode, pending) = (report.mode, report.deferred_queries as u64);
        let active = session.session().matrix().active_query_ids().count() as u64;
        let inum = session.tuning_stats().inum;
        let bound = active + pending + WINDOW_EPOCH as u64;
        assert!(
            inum.resident_entries <= bound,
            "after epoch {} ({mode:?}): {} resident, {active} active, {pending} pending",
            run.modes.len(),
            inum.resident_entries
        );
        run.peak_resident = run.peak_resident.max(inum.resident_entries);
        run.peak_bound = run.peak_bound.max(bound);
        run.misses = inum.cache_misses;
        run.modes.push(mode);
    }
    run
}

/// COLT's skeleton cache is a materialisation of its live window: at
/// every epoch close, on every rung of the degradation ladder, the
/// resident entries are at most the active matrix slots, the pending
/// queue and one epoch, whether the stream is one drift cycle long or
/// ten. Without the retraction the cache keeps every distinct statement
/// the stream brought, several times the bound at ten cycles.
#[test]
fn online_state_is_bounded_by_its_window() {
    use pgdesign_colt::EpochMode;
    use std::time::Duration;
    // Full, Stale (out of time before any work), and a few clock reads:
    // enough to start the rotation, not to register candidates.
    let ladder = [
        None,
        Some(Duration::ZERO),
        Some(Duration::from_millis(3)),
        None,
        Some(Duration::from_millis(4)),
    ];
    for deadlines in [&[][..], &ladder[..]] {
        let one = stream_windows(1, deadlines);
        let ten = stream_windows(10, deadlines);
        assert_eq!(ten.peak_bound, one.peak_bound, "the bound does not grow");
        assert!(ten.peak_resident <= one.peak_bound);
        assert!(
            ten.misses > 4 * ten.peak_bound,
            "ten cycles must outgrow the bound without retraction: {} misses",
            ten.misses
        );
        if !deadlines.is_empty() {
            for mode in [
                EpochMode::Full,
                EpochMode::IncrementalOnly,
                EpochMode::Stale,
            ] {
                assert!(
                    ten.modes.contains(&mode),
                    "no {mode:?} close: {:?}",
                    ten.modes
                );
            }
        }
    }
}
