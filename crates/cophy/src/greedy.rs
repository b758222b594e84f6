//! Greedy index selection — the baseline the paper's introduction argues
//! against ("greedy heuristics ... often suggest locally optimal solutions
//! instead of the globally optimal one"), reproduced here both as the
//! comparison point CoPhy is tested against and as CoPhy's warm start.
//!
//! Selection runs entirely on the precomputed [`CostMatrix`]: every trial
//! index is evaluated against the current configuration by looking up the
//! queries it can change ([`pgdesign_inum::MatrixCore::cost_plus`]), so
//! one greedy round is pure lookups — no design construction, no
//! access-path re-enumeration.

use pgdesign_inum::CostMatrix;
use std::cmp::Reverse;

/// Result of the greedy search.
#[derive(Debug, Clone)]
pub struct GreedyResult {
    /// Chosen candidate ids (into the matrix's candidate list).
    pub chosen: Vec<usize>,
    /// Workload cost under the chosen design (INUM estimate).
    pub cost: f64,
    /// Number of configuration cost evaluations performed.
    pub evaluations: usize,
}

/// Classic greedy: repeatedly add the candidate with the best
/// benefit-per-byte until the budget is exhausted or nothing improves,
/// then drop, largest first, every pick a later one made worthless.
///
/// Each active query's weighted cost under the current configuration is
/// kept, so a trial of candidate `c` looks up only the queries `c` owns a
/// cell on ([`pgdesign_inum::MatrixCore::candidates_on`]) — on any other
/// query adding `c` changes no lookup. The trial's total is still the sum
/// over every active query in id order, the sum
/// [`pgdesign_inum::MatrixCore::workload_cost_plus`] takes, so every
/// choice and the final cost are bit for bit those of re-costing the
/// whole workload per trial.
pub fn greedy_select(matrix: &CostMatrix<'_>, storage_budget_bytes: u64) -> GreedyResult {
    let sizes = candidate_sizes(matrix);
    let active: Vec<usize> = matrix.active_query_ids().collect();
    // The active queries (positions into `active`) each candidate owns a
    // cell on.
    let mut touched: Vec<Vec<usize>> = vec![Vec::new(); matrix.n_candidates()];
    for (pos, &qi) in active.iter().enumerate() {
        for id in matrix.candidates_on(qi) {
            touched[id].push(pos);
        }
    }

    let mut chosen: Vec<usize> = Vec::new();
    let mut config = matrix.empty_config();
    let mut costs: Vec<f64> = active
        .iter()
        .map(|&qi| matrix.query_weight(qi) * matrix.cost(qi, &config))
        .collect();
    let mut current: f64 = costs.iter().sum();
    let mut budget_left = storage_budget_bytes as i128;
    let mut evaluations = 1usize;
    let (mut trial, mut best_costs) = (costs.clone(), costs.clone());

    loop {
        let mut best: Option<(usize, f64, f64)> = None; // (id, new_cost, score)
        for id in 0..matrix.n_candidates() {
            if config.contains(id) || sizes[id] as i128 > budget_left {
                continue;
            }
            trial.copy_from_slice(&costs);
            for &pos in &touched[id] {
                let qi = active[pos];
                trial[pos] = matrix.query_weight(qi) * matrix.cost_plus(qi, &config, id);
            }
            let cost: f64 = trial.iter().sum();
            evaluations += 1;
            let benefit = current - cost;
            if benefit <= 1e-9 {
                continue;
            }
            let score = benefit / sizes[id] as f64;
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((id, cost, score));
                best_costs.copy_from_slice(&trial);
            }
        }
        match best {
            Some((id, cost, _)) => {
                config.insert(id);
                chosen.push(id);
                budget_left -= sizes[id] as i128;
                current = cost;
                std::mem::swap(&mut costs, &mut best_costs);
            }
            None => break,
        }
    }
    // An early pick can be made worthless by a later, wider one.
    let (mut chosen, cost) = drop_worthless(matrix, chosen, current, |ids| {
        evaluations += 1;
        matrix.workload_cost(&matrix.config_of(ids.iter().copied()))
    });
    chosen.sort_unstable();
    GreedyResult {
        chosen,
        cost,
        evaluations,
    }
}

/// Among designs of equal cost, the one with fewer bytes: drop from
/// `chosen` (whose cost is `total`), largest first, every candidate whose
/// removal does not raise `cost_of`. Returns what is left, in `chosen`'s
/// order, and its cost. INUM costs never fall as indexes are added, so
/// under a cost without upkeep only candidates worth nothing go.
pub(crate) fn drop_worthless(
    matrix: &CostMatrix<'_>,
    mut chosen: Vec<usize>,
    mut total: f64,
    mut cost_of: impl FnMut(&[usize]) -> f64,
) -> (Vec<usize>, f64) {
    let catalog = matrix.catalog();
    let mut largest_first = chosen.clone();
    largest_first.sort_by_cached_key(|&id| {
        let bytes = matrix.candidate(id).map_or(0, |i| {
            i.size_bytes(&catalog.schema, catalog.table_stats(i.table))
        });
        (Reverse(bytes), id)
    });
    for id in largest_first {
        let without: Vec<usize> = chosen.iter().copied().filter(|&c| c != id).collect();
        let cost = cost_of(&without);
        if cost <= total {
            (chosen, total) = (without, cost);
        }
    }
    (chosen, total)
}

/// Sizes per candidate id; removed ids get `u64::MAX` so the budget
/// check skips them.
fn candidate_sizes(matrix: &CostMatrix<'_>) -> Vec<u64> {
    let catalog = matrix.catalog();
    (0..matrix.n_candidates())
        .map(|id| {
            matrix.candidate(id).map_or(u64::MAX, |i| {
                i.size_bytes(&catalog.schema, catalog.table_stats(i.table))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::design::PhysicalDesign;
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_catalog::samples::tpch_catalog;
    use pgdesign_catalog::Catalog;
    use pgdesign_inum::Inum;
    use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
    use pgdesign_optimizer::Optimizer;
    use pgdesign_query::generators::{sdss_workload, tpch_workload};
    use pgdesign_query::Workload;

    /// The search [`greedy_select`] replaced: every trial re-costs the
    /// whole workload ([`pgdesign_inum::MatrixCore::workload_cost_plus`]).
    fn greedy_select_oracle(matrix: &CostMatrix<'_>, storage_budget_bytes: u64) -> GreedyResult {
        let sizes = candidate_sizes(matrix);
        let mut chosen: Vec<usize> = Vec::new();
        let mut config = matrix.empty_config();
        let mut current = matrix.workload_cost(&config);
        let mut budget_left = storage_budget_bytes as i128;
        let mut evaluations = 1usize;
        loop {
            let mut best: Option<(usize, f64, f64)> = None; // (id, new_cost, score)
            for id in 0..matrix.n_candidates() {
                if config.contains(id) || sizes[id] as i128 > budget_left {
                    continue;
                }
                let cost = matrix.workload_cost_plus(&config, id);
                evaluations += 1;
                let benefit = current - cost;
                if benefit <= 1e-9 {
                    continue;
                }
                let score = benefit / sizes[id] as f64;
                if best.is_none_or(|(_, _, s)| score > s) {
                    best = Some((id, cost, score));
                }
            }
            match best {
                Some((id, cost, _)) => {
                    config.insert(id);
                    chosen.push(id);
                    budget_left -= sizes[id] as i128;
                    current = cost;
                }
                None => break,
            }
        }
        let (mut chosen, cost) = drop_worthless(matrix, chosen, current, |ids| {
            evaluations += 1;
            matrix.workload_cost(&matrix.config_of(ids.iter().copied()))
        });
        chosen.sort_unstable();
        GreedyResult {
            chosen,
            cost,
            evaluations,
        }
    }

    /// The search and its oracle choose the same ids at the same cost
    /// bits under budgets from none to everything; returns the lookups
    /// each spent.
    fn assert_greedy_matches_oracle(c: &Catalog, w: &Workload) -> (u64, u64) {
        let opt = Optimizer::new();
        let inum = Inum::new(c, &opt);
        let cands = workload_candidates(c, w, &CandidateConfig::default());
        let matrix = CostMatrix::build(&inum, w, &cands.indexes);
        let mut spent = (0, 0);
        for budget in [0, c.data_bytes() / 50, c.data_bytes() / 5, u64::MAX / 4] {
            let before = inum.matrix_stats().lookups;
            let new = greedy_select(&matrix, budget);
            let mid = inum.matrix_stats().lookups;
            let old = greedy_select_oracle(&matrix, budget);
            let after = inum.matrix_stats().lookups;
            assert_eq!(new.chosen, old.chosen, "budget {budget}");
            assert_eq!(new.cost.to_bits(), old.cost.to_bits(), "budget {budget}");
            assert_eq!(new.evaluations, old.evaluations, "budget {budget}");
            spent.0 += mid - before;
            spent.1 += after - mid;
        }
        spent
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        #[test]
        fn greedy_matches_the_whole_workload_oracle(seed in 0u64..1_000_000, n in 1usize..24) {
            if seed % 2 == 0 {
                let c = sdss_catalog(0.01);
                assert_greedy_matches_oracle(&c, &sdss_workload(&c, n, seed));
            } else {
                let c = tpch_catalog(0.01);
                assert_greedy_matches_oracle(&c, &tpch_workload(&c, n, seed));
            }
        }
    }

    #[test]
    fn greedy_costs_a_fraction_of_the_oracles_lookups() {
        let (sdss, tpch) = (sdss_catalog(0.01), tpch_catalog(0.01));
        for (c, w) in [
            (&sdss, sdss_workload(&sdss, 24, 7)),
            (&tpch, tpch_workload(&tpch, 36, 7)),
        ] {
            // About a fifth on both (2,031 of 10,800 and 2,142 of 9,720).
            let (new, old) = assert_greedy_matches_oracle(c, &w);
            assert!(
                3 * new < old,
                "re-costing only touched queries: {new} vs {old} lookups"
            );
        }
    }

    #[test]
    fn greedy_improves_over_empty_design() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 7);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let matrix = CostMatrix::build(&inum, &w, &cands.indexes);
        let base = inum.workload_cost(&PhysicalDesign::empty(), &w);
        let r = greedy_select(&matrix, c.data_bytes());
        assert!(!r.chosen.is_empty());
        assert!(r.cost < base, "{} vs {}", r.cost, base);
        assert!(r.evaluations > cands.indexes.len());
        // The matrix's estimate agrees with the slow-path oracle.
        let design =
            PhysicalDesign::with_indexes(r.chosen.iter().map(|&id| cands.indexes[id].clone()));
        let oracle = inum.workload_cost(&design, &w);
        assert!((r.cost - oracle).abs() < 1e-6, "{} vs {oracle}", r.cost);
    }

    #[test]
    fn greedy_respects_budget() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 8);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let matrix = CostMatrix::build(&inum, &w, &cands.indexes);
        let budget = c.data_bytes() / 20;
        let r = greedy_select(&matrix, budget);
        let used: u64 = r
            .chosen
            .iter()
            .map(|&id| {
                let i = &cands.indexes[id];
                i.size_bytes(&c.schema, c.table_stats(i.table))
            })
            .sum();
        assert!(used <= budget, "{used} > {budget}");
    }

    #[test]
    fn zero_budget_chooses_nothing() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 9);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let matrix = CostMatrix::build(&inum, &w, &cands.indexes);
        let r = greedy_select(&matrix, 0);
        assert!(r.chosen.is_empty());
    }

    #[test]
    fn larger_budget_never_hurts() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 10);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let matrix = CostMatrix::build(&inum, &w, &cands.indexes);
        let small = greedy_select(&matrix, c.data_bytes() / 50);
        let large = greedy_select(&matrix, c.data_bytes());
        assert!(large.cost <= small.cost + 1e-6);
    }
}
