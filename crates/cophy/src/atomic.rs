//! Atomic configuration enumeration and costing.
//!
//! An *atomic configuration* for a query is a set of candidate indexes a
//! single plan can use simultaneously — at most one per table slot. The
//! ILP's per-query decision is which atomic configuration to execute
//! under; its cost is evaluated once, through the INUM cost matrix, and
//! becomes a constant in the objective.
//!
//! All costing here is pure matrix lookups: solo benefits use
//! [`pgdesign_inum::MatrixCore::cost_plus`] against the empty
//! configuration, and each enumerated configuration is costed as a
//! [`CandidateBitset`] — no per-candidate design cloning, no access-path
//! re-enumeration.

use pgdesign_inum::{CandidateBitset, CostMatrix};
use pgdesign_query::ast::Query;

/// One atomic configuration: candidate ids (into the matrix's candidate
/// registry) with at most one index per slot, plus its INUM-estimated cost.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomicConfig {
    /// Candidate indexes (live candidate ids of the matrix).
    pub candidate_ids: Vec<usize>,
    /// INUM cost of the query under exactly these indexes.
    pub cost: f64,
}

/// All atomic configurations of one query.
#[derive(Debug, Clone)]
pub struct QueryConfigs {
    /// The matrix query slot these configurations belong to.
    pub query_id: usize,
    /// Configurations; index 0 is always the empty configuration.
    pub configs: Vec<AtomicConfig>,
}

/// Per-slot shortlist size (top-k single-index winners per slot).
const TOP_PER_SLOT: usize = 3;

/// Enumerate and cost atomic configurations for every *active* query of
/// the matrix (retired slots of a long-lived session matrix contribute
/// nothing), over every live candidate the matrix holds.
///
/// `max_configs_per_query` caps the cartesian product per query; the empty
/// configuration is always present so the ILP remains feasible at budget 0.
pub fn enumerate_atomic_configs(
    matrix: &CostMatrix<'_>,
    max_configs_per_query: usize,
) -> Vec<QueryConfigs> {
    matrix
        .active_query_ids()
        .map(|qi| {
            query_atomic_configs(
                matrix,
                qi,
                matrix.workload().query(qi),
                max_configs_per_query,
            )
        })
        .collect()
}

fn query_atomic_configs(
    matrix: &CostMatrix<'_>,
    query_id: usize,
    query: &Query,
    max_configs: usize,
) -> QueryConfigs {
    let empty = matrix.empty_config();
    let empty_cost = matrix.cost(query_id, &empty);

    // Shortlist per slot: candidates on that slot's table whose solo
    // benefit is positive, best first.
    let mut per_slot: Vec<Vec<(usize, f64)>> = Vec::new();
    for slot in 0..query.slot_count() {
        let table = query.table_of(slot);
        let mut scored: Vec<(usize, f64)> = Vec::new();
        for (id, idx) in matrix.candidates() {
            if idx.table != table {
                continue;
            }
            let solo = matrix.cost_plus(query_id, &empty, id);
            let benefit = empty_cost - solo;
            if benefit > 1e-9 {
                scored.push((id, benefit));
            }
        }
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.truncate(TOP_PER_SLOT);
        per_slot.push(scored);
    }

    // Cartesian product of (no index | shortlisted index) per slot.
    let mut raw: Vec<Vec<usize>> = vec![Vec::new()];
    for slot_list in &per_slot {
        let mut next = Vec::with_capacity(raw.len() * (slot_list.len() + 1));
        for prefix in &raw {
            next.push(prefix.clone()); // no index for this slot
            for &(id, _) in slot_list {
                // Skip duplicates (self-joins may shortlist the same index
                // for two slots; one copy is enough for costing).
                if prefix.contains(&id) {
                    continue;
                }
                let mut cfg = prefix.clone();
                cfg.push(id);
                next.push(cfg);
            }
        }
        raw = next;
        if raw.len() > 4 * max_configs {
            // Pre-prune by keeping shorter configs first (they are
            // supersets' building blocks and cheapest to cost).
            raw.sort_by_key(Vec::len);
            raw.truncate(4 * max_configs);
        }
    }
    raw.sort_by_key(Vec::len);
    raw.dedup();
    raw.truncate(max_configs.max(1));

    // Ensure the empty configuration exists at position 0.
    if raw.first().map(Vec::len) != Some(0) {
        raw.insert(0, Vec::new());
        raw.truncate(max_configs.max(1));
    }

    let mut scratch = CandidateBitset::new(matrix.n_candidates());
    let configs = raw
        .into_iter()
        .map(|ids| {
            let cost = if ids.is_empty() {
                empty_cost
            } else {
                scratch.clear();
                for &id in &ids {
                    scratch.insert(id);
                }
                matrix.cost(query_id, &scratch)
            };
            AtomicConfig {
                candidate_ids: ids,
                cost,
            }
        })
        .collect();
    QueryConfigs { query_id, configs }
}

/// The set of candidate ids used by any configuration (pruning the ILP).
pub fn used_candidates(configs: &[QueryConfigs]) -> Vec<usize> {
    let mut used: Vec<usize> = configs
        .iter()
        .flat_map(|qc| {
            qc.configs
                .iter()
                .flat_map(|c| c.candidate_ids.iter().copied())
        })
        .collect();
    used.sort_unstable();
    used.dedup();
    used
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_inum::Inum;
    use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig, CandidateSet};
    use pgdesign_optimizer::Optimizer;
    use pgdesign_query::generators::sdss_workload;
    use pgdesign_query::Workload;

    fn matrix_for<'a>(inum: &'a Inum<'a>, w: &'a Workload, cands: &CandidateSet) -> CostMatrix<'a> {
        CostMatrix::build(inum, w, &cands.indexes)
    }

    #[test]
    fn empty_config_is_always_first() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 1);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let matrix = matrix_for(&inum, &w, &cands);
        let configs = enumerate_atomic_configs(&matrix, 12);
        assert_eq!(configs.len(), w.len());
        for qc in &configs {
            assert!(qc.configs[0].candidate_ids.is_empty());
            assert!(qc.configs.len() <= 12);
            // Costs are finite and positive.
            for cfg in &qc.configs {
                assert!(cfg.cost.is_finite() && cfg.cost > 0.0);
            }
        }
    }

    #[test]
    fn nonempty_configs_never_cost_more_than_useful() {
        // Configs are built from indexes with positive solo benefit, so a
        // singleton config should beat (or match) the empty config.
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 2);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let matrix = matrix_for(&inum, &w, &cands);
        let configs = enumerate_atomic_configs(&matrix, 12);
        for qc in &configs {
            let empty = qc.configs[0].cost;
            for cfg in &qc.configs[1..] {
                if cfg.candidate_ids.len() == 1 {
                    assert!(
                        cfg.cost <= empty * 1.0001,
                        "singleton config should not regress: {} vs {}",
                        cfg.cost,
                        empty
                    );
                }
            }
        }
    }

    #[test]
    fn config_costs_match_the_slow_path_oracle() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 5);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let matrix = matrix_for(&inum, &w, &cands);
        let configs = enumerate_atomic_configs(&matrix, 12);
        for (qc, (q, _)) in configs.iter().zip(w.iter()) {
            for cfg in &qc.configs {
                let design = pgdesign_catalog::design::PhysicalDesign::with_indexes(
                    cfg.candidate_ids.iter().map(|&i| cands.indexes[i].clone()),
                );
                let oracle = inum.cost(&design, q);
                assert!(
                    (cfg.cost - oracle).abs() < 1e-9,
                    "matrix {} vs oracle {oracle} for {:?}",
                    cfg.cost,
                    cfg.candidate_ids
                );
            }
        }
    }

    #[test]
    fn used_candidates_are_a_subset() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 3);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let matrix = matrix_for(&inum, &w, &cands);
        let configs = enumerate_atomic_configs(&matrix, 12);
        let used = used_candidates(&configs);
        assert!(used.iter().all(|&id| id < cands.indexes.len()));
        assert!(!used.is_empty(), "some index should help some query");
    }

    #[test]
    fn at_most_one_index_per_slot() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 4);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let matrix = matrix_for(&inum, &w, &cands);
        let configs = enumerate_atomic_configs(&matrix, 16);
        for (qc, (q, _)) in configs.iter().zip(w.iter()) {
            for cfg in &qc.configs {
                // Count indexes per table; must not exceed the number of
                // slots of that table in the query.
                for slot in 0..q.slot_count() {
                    let t = q.table_of(slot);
                    let n_slots_of_t = (0..q.slot_count()).filter(|&s| q.table_of(s) == t).count();
                    let n_indexes_of_t = cfg
                        .candidate_ids
                        .iter()
                        .filter(|&&id| cands.indexes[id].table == t)
                        .count();
                    assert!(n_indexes_of_t <= n_slots_of_t);
                }
            }
        }
    }
}
