//! Greedy index selection — the baseline the paper's introduction argues
//! against ("greedy heuristics ... often suggest locally optimal solutions
//! instead of the globally optimal one"), reproduced here both as the
//! comparison point for experiments E2/E6 and as CoPhy's warm start.
//!
//! Selection runs entirely on the precomputed [`CostMatrix`]: every trial
//! index is evaluated as a delta against the current configuration
//! ([`pgdesign_inum::MatrixCore::workload_cost_plus`]), so one greedy
//! round is pure lookups — no design construction, no access-path
//! re-enumeration.

use pgdesign_inum::CostMatrix;

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
/// benefit-per-byte until the budget is exhausted or nothing improves.
pub fn greedy_select(matrix: &CostMatrix<'_>, storage_budget_bytes: u64) -> GreedyResult {
    let catalog = matrix.catalog();
    // Sizes per candidate id; removed ids get `u64::MAX` so the budget
    // check below skips them.
    let sizes: Vec<u64> = (0..matrix.n_candidates())
        .map(|id| {
            matrix.candidate(id).map_or(u64::MAX, |i| {
                i.size_bytes(&catalog.schema, catalog.table_stats(i.table))
            })
        })
        .collect();

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
    chosen.sort_unstable();
    GreedyResult {
        chosen,
        cost: current,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::design::PhysicalDesign;
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_inum::Inum;
    use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
    use pgdesign_optimizer::Optimizer;
    use pgdesign_query::generators::sdss_workload;

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
