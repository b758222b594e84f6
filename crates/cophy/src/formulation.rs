//! The CoPhy binary integer program.
//!
//! Variables:
//! * `x_i ∈ {0,1}` — candidate index `i` is materialized;
//! * `y_{q,k} ∈ [0,1]` — query `q` executes under atomic configuration
//!   `k`. Given integral `x`, the optimal `y` is automatically integral
//!   (each query picks its cheapest feasible configuration), so only the
//!   `x` variables branch — the key to tractability.
//!
//! Constraints:
//! * `Σ_k y_{q,k} = 1` for every query (exactly one configuration);
//! * `y_{q,k} ≤ x_i` for every index `i` in configuration `k` (can't use
//!   what isn't built);
//! * `Σ_i size_i · x_i ≤ B` (storage budget).
//!
//! Objective: `min Σ_q w_q Σ_k cost(q,k) · y_{q,k}`.
//!
//! Presolve, as pure comparisons on the enumerated configurations before
//! the solver sees anything: a candidate no configuration references gets
//! no `x` column, and a configuration *dominated* within its query —
//! another one needs a subset of its indexes and costs no more — gets no
//! `y` column and no coupling rows; its slot in `y_vars` points at its
//! dominator's column. Neither changes the optimum or the LP bound: any
//! weight on a dominated `y` moves to its dominator for free.

use crate::atomic::{used_candidates, QueryConfigs};
use pgdesign_solver::lp::Relation;
use pgdesign_solver::Milp;
use std::collections::{BTreeMap, BTreeSet};

/// Mapping from ILP variables back to the design space.
#[derive(Debug, Clone)]
pub struct IlpModel {
    /// The MILP instance.
    pub milp: Milp,
    /// `x` variable id per candidate id; candidates that no configuration
    /// references have none.
    pub x_vars: BTreeMap<usize, usize>,
    /// `y` variable ids: `y_vars[q][k]` for workload query `q`,
    /// configuration `k` — positionally aligned with `configs[q].configs`.
    /// A dominated configuration shares its dominator's variable.
    pub y_vars: Vec<Vec<usize>>,
}

/// Build the CoPhy ILP.
///
/// `weights[i]` is the workload weight of `configs[i]`'s query (aligned
/// with the `configs` list, which may cover an arbitrary subset of matrix
/// query slots). `maintenance` gives the per-index upkeep cost under the
/// workload's write profile (zero for read-only workloads); it becomes the
/// objective coefficient of the corresponding `x` variable, so an index
/// must earn back its maintenance before the solver picks it.
pub fn build_ilp(
    weights: &[f64],
    configs: &[QueryConfigs],
    sizes: &BTreeMap<usize, f64>,
    maintenance: &BTreeMap<usize, f64>,
    storage_budget: f64,
) -> IlpModel {
    build(weights, configs, sizes, maintenance, storage_budget, true)
}

/// The configuration that stands for `k` in the ILP: the cheapest one
/// (then the smallest, then the first) among `k` and everything that
/// needs a subset of `k`'s indexes at no more than `k`'s cost. INUM costs
/// are monotone in the index set, so these are exactly the ties where the
/// extra indexes buy nothing.
fn representative(qc: &QueryConfigs, k: usize) -> usize {
    let cfg = &qc.configs[k];
    (0..qc.configs.len())
        .filter(|&other| {
            let o = &qc.configs[other];
            o.cost <= cfg.cost
                && o.candidate_ids
                    .iter()
                    .all(|c| cfg.candidate_ids.contains(c))
        })
        .min_by(|&a, &b| {
            let (ca, cb) = (&qc.configs[a], &qc.configs[b]);
            ca.cost
                .total_cmp(&cb.cost)
                .then(ca.candidate_ids.len().cmp(&cb.candidate_ids.len()))
                .then(a.cmp(&b))
        })
        .unwrap_or(k)
}

/// [`build_ilp`]; `presolve` is off only where a test wants the full
/// formulation to compare against.
fn build(
    weights: &[f64],
    configs: &[QueryConfigs],
    sizes: &BTreeMap<usize, f64>,
    maintenance: &BTreeMap<usize, f64>,
    storage_budget: f64,
    presolve: bool,
) -> IlpModel {
    assert_eq!(weights.len(), configs.len(), "one weight per query");
    let mut milp = Milp::new();

    // x variables (binary); the objective coefficient is the index's
    // maintenance cost — storage stays a constraint, not an objective term.
    let used = used_candidates(configs);
    let mut x_vars: BTreeMap<usize, usize> = BTreeMap::new();
    for &cand in sizes.keys() {
        if presolve && used.binary_search(&cand).is_err() {
            continue;
        }
        let v = milp.add_binary(maintenance.get(&cand).copied().unwrap_or(0.0));
        x_vars.insert(cand, v);
    }

    // y variables (continuous in [0,1] via the Σ=1 rows + x-coupling),
    // one per configuration that stands for itself; `kept[q]` lists those.
    let mut y_vars: Vec<Vec<usize>> = Vec::with_capacity(configs.len());
    let mut kept: Vec<Vec<usize>> = Vec::with_capacity(configs.len());
    for (qc, &weight) in configs.iter().zip(weights) {
        let stands_for: Vec<usize> = (0..qc.configs.len())
            .map(|k| if presolve { representative(qc, k) } else { k })
            .collect();
        let mut row = vec![usize::MAX; qc.configs.len()];
        let own: Vec<usize> = (0..row.len()).filter(|&k| stands_for[k] == k).collect();
        for &k in &own {
            row[k] = milp.add_continuous(weight * qc.configs[k].cost);
        }
        for k in 0..row.len() {
            row[k] = row[stands_for[k]];
        }
        y_vars.push(row);
        kept.push(own);
    }

    // Σ_k y_{q,k} = 1.
    for (row, own) in y_vars.iter().zip(&kept) {
        milp.lp.add_constraint(
            own.iter().map(|&k| (row[k], 1.0)).collect(),
            Relation::Eq,
            1.0,
        );
    }

    // y ≤ x couplings.
    for ((qc, row), own) in configs.iter().zip(&y_vars).zip(&kept) {
        for &k in own {
            for &cand in &qc.configs[k].candidate_ids {
                let x = x_vars[&cand];
                milp.lp
                    .add_constraint(vec![(row[k], 1.0), (x, -1.0)], Relation::Le, 0.0);
            }
        }
    }

    // Storage budget.
    let knapsack: Vec<(usize, f64)> = x_vars.iter().map(|(cand, &x)| (x, sizes[cand])).collect();
    if !knapsack.is_empty() {
        milp.lp
            .add_constraint(knapsack, Relation::Le, storage_budget);
    }

    IlpModel {
        milp,
        x_vars,
        y_vars,
    }
}

/// Construct a warm-start assignment from a set of chosen candidate ids:
/// each query greedily takes its cheapest configuration supported by the
/// chosen indexes.
pub fn warm_start_assignment(
    model: &IlpModel,
    configs: &[QueryConfigs],
    chosen: &[usize],
) -> Vec<f64> {
    let chosen: BTreeSet<usize> = chosen.iter().copied().collect();
    let n = model.milp.lp.num_vars();
    let mut x = vec![0.0; n];
    for (&cand, &var) in &model.x_vars {
        if chosen.contains(&cand) {
            x[var] = 1.0;
        }
    }
    for (qc, row) in configs.iter().zip(&model.y_vars) {
        let mut best: Option<(usize, f64)> = None;
        for (k, cfg) in qc.configs.iter().enumerate() {
            if cfg.candidate_ids.iter().all(|c| chosen.contains(c))
                && best.is_none_or(|(_, c)| cfg.cost < c)
            {
                best = Some((k, cfg.cost));
            }
        }
        // Config 0 (empty) is always supported.
        let (k, _) = best.unwrap_or((0, qc.configs[0].cost));
        x[row[k]] = 1.0;
    }
    x
}

/// Decode a MILP solution into chosen candidate ids.
pub fn decode_solution(model: &IlpModel, x: &[f64]) -> Vec<usize> {
    let mut chosen: Vec<usize> = model
        .x_vars
        .iter()
        .filter(|(_, &var)| x.get(var).copied().unwrap_or(0.0) > 0.5)
        .map(|(&cand, _)| cand)
        .collect();
    chosen.sort_unstable();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::AtomicConfig;
    use pgdesign_solver::{MilpOptions, MilpStatus};

    /// A tiny hand-built instance: 2 queries, 2 candidate indexes.
    /// Query 0: empty=100, {A}=10. Query 1: empty=100, {B}=20, {A,B}=5.
    fn tiny() -> (Vec<f64>, Vec<QueryConfigs>, BTreeMap<usize, f64>) {
        let weights = vec![1.0, 1.0];
        let configs = vec![
            QueryConfigs {
                query_id: 0,
                configs: vec![
                    AtomicConfig {
                        candidate_ids: vec![],
                        cost: 100.0,
                    },
                    AtomicConfig {
                        candidate_ids: vec![0],
                        cost: 10.0,
                    },
                ],
            },
            QueryConfigs {
                query_id: 1,
                configs: vec![
                    AtomicConfig {
                        candidate_ids: vec![],
                        cost: 100.0,
                    },
                    AtomicConfig {
                        candidate_ids: vec![1],
                        cost: 20.0,
                    },
                    AtomicConfig {
                        candidate_ids: vec![0, 1],
                        cost: 5.0,
                    },
                ],
            },
        ];
        let mut sizes = BTreeMap::new();
        sizes.insert(0usize, 10.0);
        sizes.insert(1usize, 10.0);
        (weights, configs, sizes)
    }

    #[test]
    fn picks_both_indexes_when_budget_allows() {
        let (w, configs, sizes) = tiny();
        let model = build_ilp(&w, &configs, &sizes, &BTreeMap::new(), 100.0);
        let r = model.milp.solve(&MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        let chosen = decode_solution(&model, &r.x);
        assert_eq!(chosen, vec![0, 1]);
        assert!((r.objective - 15.0).abs() < 1e-6, "{}", r.objective);
    }

    #[test]
    fn respects_tight_budget() {
        let (w, configs, sizes) = tiny();
        // Budget for one index only. A: 10+100=110; B: 100+20=120 → pick A.
        let model = build_ilp(&w, &configs, &sizes, &BTreeMap::new(), 10.0);
        let r = model.milp.solve(&MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        let chosen = decode_solution(&model, &r.x);
        assert_eq!(chosen, vec![0]);
        assert!((r.objective - 110.0).abs() < 1e-6, "{}", r.objective);
    }

    #[test]
    fn zero_budget_forces_empty_configs() {
        let (w, configs, sizes) = tiny();
        let model = build_ilp(&w, &configs, &sizes, &BTreeMap::new(), 0.0);
        let r = model.milp.solve(&MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!(decode_solution(&model, &r.x).is_empty());
        assert!((r.objective - 200.0).abs() < 1e-6);
    }

    #[test]
    fn warm_start_is_feasible_and_decodes() {
        let (w, configs, sizes) = tiny();
        let model = build_ilp(&w, &configs, &sizes, &BTreeMap::new(), 100.0);
        let warm = warm_start_assignment(&model, &configs, &[0]);
        // Feasible: solve with warm start at zero nodes.
        let r = model.milp.solve_with_warm_start(
            &MilpOptions {
                node_limit: 0,
                ..Default::default()
            },
            Some(&warm),
        );
        // Objective: q0 picks {A}=10, q1 must pick empty=100 → 110.
        assert!((r.objective - 110.0).abs() < 1e-6, "{}", r.objective);
        assert_eq!(decode_solution(&model, &r.x), vec![0]);
    }

    #[test]
    fn maintenance_cost_repels_marginal_indexes() {
        let (w, configs, sizes) = tiny();
        // Index B saves q1 80 (100→20) but costs 90 to maintain → skip it;
        // A+B would save q1 95 but pay 90+0 maintenance: still worth it?
        // {A,B}: obj = 10 + 5 + 90 = 105 vs {A}: 10 + 100 = 110 → A,B wins.
        let mut maint = BTreeMap::new();
        maint.insert(1usize, 90.0);
        let model = build_ilp(&w, &configs, &sizes, &maint, 100.0);
        let r = model.milp.solve(&MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_eq!(decode_solution(&model, &r.x), vec![0, 1]);
        assert!((r.objective - 105.0).abs() < 1e-6, "{}", r.objective);
        // Raise maintenance to 100: now {A} alone (110) beats {A,B} (115).
        let mut maint = BTreeMap::new();
        maint.insert(1usize, 100.0);
        let model = build_ilp(&w, &configs, &sizes, &maint, 100.0);
        let r = model.milp.solve(&MilpOptions::default());
        assert_eq!(decode_solution(&model, &r.x), vec![0]);
    }

    #[test]
    fn presolve_drops_unused_candidates_and_dominated_configs() {
        let (w, mut configs, mut sizes) = tiny();
        // Candidate 2 is in no configuration; query 1 gains a configuration
        // {A,B} again but dearer (dominated by the one at 5), and an {A}
        // no cheaper than the empty configuration (dominated by it).
        sizes.insert(2usize, 10.0);
        configs[1].configs.push(AtomicConfig {
            candidate_ids: vec![1, 0],
            cost: 7.0,
        });
        configs[1].configs.push(AtomicConfig {
            candidate_ids: vec![0],
            cost: 100.0,
        });
        let full = build(&w, &configs, &sizes, &BTreeMap::new(), 100.0, false);
        let model = build_ilp(&w, &configs, &sizes, &BTreeMap::new(), 100.0);
        assert_eq!(full.x_vars.len(), 3);
        assert_eq!(model.x_vars.keys().copied().collect::<Vec<_>>(), vec![0, 1]);
        let y1 = &model.y_vars[1];
        assert_eq!(y1.len(), 5, "positionally aligned with the configurations");
        assert_eq!(
            y1[3], y1[2],
            "the dearer {{A,B}} shares the cheaper one's column"
        );
        assert_eq!(
            y1[4], y1[0],
            "an {{A}} no better than nothing is the empty configuration"
        );
        assert_eq!(
            full.milp.lp.num_vars() - model.milp.lp.num_vars(),
            3,
            "one x and two y columns gone"
        );
        // 2 + 2 coupling rows gone with the y columns; no `x ≤ 1` rows at all.
        assert_eq!(full.milp.lp.num_constraints(), 2 + 7 + 1);
        assert_eq!(model.milp.lp.num_constraints(), 2 + 4 + 1);
        let (a, b) = (
            full.milp.solve(&MilpOptions::default()),
            model.milp.solve(&MilpOptions::default()),
        );
        assert_eq!(a.status, MilpStatus::Optimal);
        assert_eq!(b.status, MilpStatus::Optimal);
        assert!((a.objective - b.objective).abs() < 1e-9);
        assert_eq!(decode_solution(&model, &b.x), vec![0, 1]);
        // A warm start that names the unused candidate still decodes.
        let warm = warm_start_assignment(&model, &configs, &[0, 2]);
        let r = model.milp.solve_with_warm_start(
            &MilpOptions {
                node_limit: 0,
                ..Default::default()
            },
            Some(&warm),
        );
        assert!((r.objective - 110.0).abs() < 1e-6, "{}", r.objective);
    }

    /// SplitMix64, so the instances below are the same on every run.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    #[test]
    fn milp_matches_brute_force_over_all_index_sets() {
        let mut rng = Rng(2010);
        let zero_nodes = MilpOptions {
            node_limit: 0,
            ..Default::default()
        };
        for case in 0..40 {
            let n_cands = 2 + rng.below(9);
            let n_queries = 1 + rng.below(6);
            let sizes: BTreeMap<usize, f64> = (0..n_cands)
                .map(|c| (c, (1 + rng.below(20)) as f64))
                .collect();
            let mut maintenance: BTreeMap<usize, f64> = BTreeMap::new();
            for c in 0..n_cands {
                if rng.below(4) == 0 {
                    maintenance.insert(c, rng.below(40) as f64);
                }
            }
            let budget = (rng.below(1 + 12 * n_cands)) as f64;
            let weights: Vec<f64> = (0..n_queries).map(|_| (1 + rng.below(3)) as f64).collect();
            let configs: Vec<QueryConfigs> = (0..n_queries)
                .map(|query_id| {
                    let empty = (60 + rng.below(140)) as f64;
                    let mut list = vec![AtomicConfig {
                        candidate_ids: vec![],
                        cost: empty,
                    }];
                    for _ in 0..rng.below(6) {
                        let mut ids: Vec<usize> =
                            (0..1 + rng.below(3)).map(|_| rng.below(n_cands)).collect();
                        ids.sort_unstable();
                        ids.dedup();
                        // Mostly cheaper than no index at all, sometimes not.
                        let cost = (1 + rng.below((empty * 1.2) as usize)) as f64;
                        list.push(AtomicConfig {
                            candidate_ids: ids,
                            cost,
                        });
                    }
                    QueryConfigs {
                        query_id,
                        configs: list,
                    }
                })
                .collect();

            let mut optimum = [0.0f64; 2];
            for (slot, presolve) in [false, true].into_iter().enumerate() {
                let model = build(&weights, &configs, &sizes, &maintenance, budget, presolve);
                // Every index set, costed the way a warm start is.
                let mut brute = f64::INFINITY;
                for mask in 0u32..(1 << n_cands) {
                    let chosen: Vec<usize> =
                        (0..n_cands).filter(|c| mask & (1 << c) != 0).collect();
                    let warm = warm_start_assignment(&model, &configs, &chosen);
                    let priced = model.milp.solve_with_warm_start(&zero_nodes, Some(&warm));
                    brute = brute.min(priced.objective);
                }
                let solved = model.milp.solve(&MilpOptions::default());
                assert_eq!(solved.status, MilpStatus::Optimal, "case {case}");
                assert!(
                    (solved.objective - brute).abs() <= 1e-7 * brute.abs().max(1.0),
                    "case {case} (presolve {presolve}): milp {} vs brute force {brute}",
                    solved.objective
                );
                let decoded = decode_solution(&model, &solved.x);
                let spent: f64 = decoded.iter().map(|c| sizes[c]).sum();
                assert!(spent <= budget, "case {case}: {spent} > {budget}");
                optimum[slot] = solved.objective;
            }
            assert!(
                (optimum[0] - optimum[1]).abs() <= 1e-7 * optimum[0].abs().max(1.0),
                "case {case}: presolve moved the optimum, {} vs {}",
                optimum[0],
                optimum[1]
            );
        }
    }

    #[test]
    fn weights_scale_objective() {
        let (mut w, configs, sizes) = tiny();
        w[0] = 10.0;
        let model = build_ilp(&w, &configs, &sizes, &BTreeMap::new(), 100.0);
        let r = model.milp.solve(&MilpOptions::default());
        // q0 cost 10 × weight 10 + q1 cost 5 = 105.
        assert!((r.objective - 105.0).abs() < 1e-6, "{}", r.objective);
    }
}
