//! The CoPhy binary integer program.
//!
//! Variables:
//! * `x_i ∈ {0,1}` — candidate index `i` is materialized;
//! * `y_{b,k} ∈ [0,1]` — the queries of block `b` (below) execute under
//!   atomic configuration `k`. Given integral `x`, the optimal `y` is
//!   automatically integral (each block picks its cheapest feasible
//!   configuration), so only the `x` variables branch — the key to
//!   tractability.
//!
//! Constraints:
//! * `Σ_k y_{b,k} = 1` for every block (exactly one configuration);
//! * `Σ_{k ∋ i} y_{b,k} ≤ x_i` for every index `i` some configuration of
//!   block `b` uses (can't use what isn't built) — one row per (block,
//!   index), not one per (configuration, index). The integer points are
//!   the same, since a block's configurations are alternatives. The LP
//!   relaxation is strictly tighter: under per-configuration rows a block
//!   could split its weight over two configurations that share an index
//!   and pay for only half of it (`y = ½, ½` under `x_i = ½`);
//! * `Σ_i size_i · x_i ≤ B` (storage budget).
//!
//! Objective: `min c₀ + Σ_i m_i x_i + Σ_b W_b Σ_k cost(b,k) · y_{b,k}`,
//! with `m_i` the index's maintenance cost and `W_b` the block's weight.
//!
//! Presolve, exact and before any column exists, as pure comparisons on
//! the enumerated configurations:
//! * a configuration *dominated* within its query — another one needs a
//!   subset of its indexes and costs no more — gets no column: its slot in
//!   `y_vars` points at its dominator's column (any weight on it moves to
//!   the dominator for free). What is left is the query's *block*;
//! * a block that is only the empty configuration is a constant: `w·c_∅`
//!   goes into the objective offset `c₀`;
//! * a block of the empty configuration and one single-index `{i}` (which,
//!   being undominated, is cheaper) folds into `x_i`: `w·c_∅` into `c₀` and
//!   `w·(c_i − c_∅)` into `x_i`'s coefficient. This is exact in the LP too,
//!   where such a block's optimum is `y_{q,i} = x_i`;
//! * blocks with the same configurations (candidate ids and cost bits, in
//!   order) merge into one with their weights summed;
//! * a candidate no configuration references gets no `x` column.
//!
//! The offset lives in the solver's program, not in a row, so every
//! objective, bound and gap the solver reports — and its test for
//! `Optimal` — is the number the unreduced program would give.

use crate::atomic::{used_candidates, QueryConfigs};
use pgdesign_solver::lp::Relation;
use pgdesign_solver::Milp;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

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
    /// A dominated configuration shares its dominator's variable, and
    /// queries whose blocks merged share their variables. A query whose
    /// block folded into an `x` coefficient or became a constant has no
    /// variables: its row is empty.
    pub y_vars: Vec<Vec<usize>>,
    /// What presolve did, and the size of the program it left.
    pub shape: IlpShape,
}

/// The shape of a CoPhy ILP: query blocks before and after presolve, then
/// the program's rows and columns — what `pgdesign recommend --stats`
/// prints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IlpShape {
    /// Query blocks before presolve (one per query).
    pub blocks: usize,
    /// Blocks merged into an identical earlier block.
    pub merged: usize,
    /// Blocks folded into one index's objective coefficient.
    pub folded: usize,
    /// Blocks with no usable candidate, now part of the objective offset.
    pub constant: usize,
    /// Rows of the program.
    pub rows: usize,
    /// Columns of the program.
    pub columns: usize,
}

impl IlpShape {
    /// Query blocks that kept columns of their own.
    pub fn kept(&self) -> usize {
        self.blocks - self.merged - self.folded - self.constant
    }
}

impl fmt::Display for IlpShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "   ILP: {} query blocks, {} after presolve ({} merged, {} folded, {} constant), \
             {} rows, {} columns",
            self.blocks,
            self.kept(),
            self.merged,
            self.folded,
            self.constant,
            self.rows,
            self.columns
        )
    }
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

/// A query block that keeps columns: the configurations of its first
/// query that stand for themselves, and the summed weight of every query
/// merged into it.
struct Block {
    query: usize,
    own: Vec<usize>,
    weight: f64,
    columns: Vec<usize>,
}

/// [`build_ilp`]; `presolve` is off only where a test wants the full
/// formulation — every query its own block, every configuration its own
/// column — to compare against.
fn build(
    weights: &[f64],
    configs: &[QueryConfigs],
    sizes: &BTreeMap<usize, f64>,
    maintenance: &BTreeMap<usize, f64>,
    storage_budget: f64,
    presolve: bool,
) -> IlpModel {
    assert_eq!(weights.len(), configs.len(), "one weight per query");
    let mut shape = IlpShape {
        blocks: configs.len(),
        ..IlpShape::default()
    };

    // Each query's block. `placed[q]` is the block of a query that keeps
    // columns, with the block column standing for each of its
    // configurations; `None` for a query folded or made constant.
    let mut offset = 0.0;
    let mut folded_gain: BTreeMap<usize, f64> = BTreeMap::new();
    let mut blocks: Vec<Block> = Vec::new();
    let mut block_of: BTreeMap<Vec<(&[usize], u64)>, usize> = BTreeMap::new();
    let mut placed: Vec<Option<(usize, Vec<usize>)>> = Vec::with_capacity(configs.len());
    for (q, (qc, &weight)) in configs.iter().zip(weights).enumerate() {
        let stands_for: Vec<usize> = (0..qc.configs.len())
            .map(|k| if presolve { representative(qc, k) } else { k })
            .collect();
        let own: Vec<usize> = (0..stands_for.len())
            .filter(|&k| stands_for[k] == k)
            .collect();
        let ids = |k: usize| qc.configs[k].candidate_ids.as_slice();
        let cost = |k: usize| qc.configs[k].cost;
        if presolve {
            let empty = own.iter().copied().find(|&k| ids(k).is_empty());
            match (own.len(), empty) {
                (1, Some(e)) => {
                    offset += weight * cost(e);
                    shape.constant += 1;
                    placed.push(None);
                    continue;
                }
                (2, Some(e)) => {
                    let single = own[usize::from(own[0] == e)];
                    if let [i] = ids(single) {
                        offset += weight * cost(e);
                        *folded_gain.entry(*i).or_insert(0.0) += weight * (cost(single) - cost(e));
                        shape.folded += 1;
                        placed.push(None);
                        continue;
                    }
                }
                _ => {}
            }
        }
        let at = stands_for
            .iter()
            .map(|&k| own.partition_point(|&o| o < k))
            .collect();
        let key: Vec<(&[usize], u64)> = own.iter().map(|&k| (ids(k), cost(k).to_bits())).collect();
        let b = match block_of.get(&key) {
            Some(&b) if presolve => {
                blocks[b].weight += weight;
                shape.merged += 1;
                b
            }
            _ => {
                block_of.insert(key, blocks.len());
                blocks.push(Block {
                    query: q,
                    own,
                    weight,
                    columns: Vec::new(),
                });
                blocks.len() - 1
            }
        };
        placed.push(Some((b, at)));
    }

    // x variables (binary); the objective coefficient is the index's
    // maintenance cost plus what the blocks folded into it — storage
    // stays a constraint, not an objective term.
    let mut milp = Milp::new();
    milp.lp.add_objective_offset(offset);
    let used = used_candidates(configs);
    let mut x_vars: BTreeMap<usize, usize> = BTreeMap::new();
    for &cand in sizes.keys() {
        if presolve && used.binary_search(&cand).is_err() {
            continue;
        }
        let upkeep = maintenance.get(&cand).copied().unwrap_or(0.0);
        let gain = folded_gain.get(&cand).copied().unwrap_or(0.0);
        x_vars.insert(cand, milp.add_binary(upkeep + gain));
    }

    // y variables (continuous in [0,1] via the Σ=1 rows + x-coupling),
    // one per configuration of a block.
    for block in &mut blocks {
        let qc = &configs[block.query];
        block.columns = block
            .own
            .iter()
            .map(|&k| milp.add_continuous(block.weight * qc.configs[k].cost))
            .collect();
    }

    // Σ_k y_{b,k} = 1.
    for block in &blocks {
        milp.lp.add_constraint(
            block.columns.iter().map(|&y| (y, 1.0)).collect(),
            Relation::Eq,
            1.0,
        );
    }

    // Σ_{k ∋ i} y_{b,k} ≤ x_i.
    for block in &blocks {
        let qc = &configs[block.query];
        let mut users: BTreeMap<usize, Vec<(usize, f64)>> = BTreeMap::new();
        for (&k, &y) in block.own.iter().zip(&block.columns) {
            for &cand in &qc.configs[k].candidate_ids {
                users.entry(cand).or_default().push((y, 1.0));
            }
        }
        for (cand, mut row) in users {
            row.push((x_vars[&cand], -1.0));
            milp.lp.add_constraint(row, Relation::Le, 0.0);
        }
    }

    // Storage budget.
    let knapsack: Vec<(usize, f64)> = x_vars.iter().map(|(cand, &x)| (x, sizes[cand])).collect();
    if !knapsack.is_empty() {
        milp.lp
            .add_constraint(knapsack, Relation::Le, storage_budget);
    }

    let y_vars = placed
        .into_iter()
        .map(|place| match place {
            None => Vec::new(),
            Some((b, at)) => at.iter().map(|&j| blocks[b].columns[j]).collect(),
        })
        .collect();
    shape.rows = milp.lp.num_constraints();
    shape.columns = milp.lp.num_vars();
    IlpModel {
        milp,
        x_vars,
        y_vars,
        shape,
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
        // A folded or constant query has no columns (its cost follows
        // from `x`); a query merged into an earlier twin's block finds
        // the block already placed.
        if row.is_empty() || row.iter().any(|&y| x[y] != 0.0) {
            continue;
        }
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
        let r = model
            .milp
            .solve_with_warm_start(&MilpOptions { node_limit: 0 }, Some(&warm));
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
        assert!(
            model.y_vars[0].is_empty(),
            "query 0 is ∅ and {{A}} alone: folded into x_A, no columns"
        );
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
        // Full: 3 x + 2 + 5 y. Presolved: 2 x + query 1's 3 undominated y.
        assert_eq!(full.milp.lp.num_vars(), 10);
        assert_eq!(model.milp.lp.num_vars(), 5);
        // One Σ = 1 row per block, one coupling row per (block, index),
        // one storage row; no `x ≤ 1` rows at all. Full: blocks 0 and 1,
        // couplings (0, A), (1, A), (1, B). Presolved: block 1 only.
        assert_eq!(full.milp.lp.num_constraints(), 2 + 3 + 1);
        assert_eq!(model.milp.lp.num_constraints(), 1 + 2 + 1);
        assert_eq!(
            model.shape,
            IlpShape {
                blocks: 2,
                merged: 0,
                folded: 1,
                constant: 0,
                rows: 4,
                columns: 5,
            }
        );
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
        let r = model
            .milp
            .solve_with_warm_start(&MilpOptions { node_limit: 0 }, Some(&warm));
        assert!((r.objective - 110.0).abs() < 1e-6, "{}", r.objective);
    }

    #[test]
    fn identical_blocks_merge_and_empty_blocks_become_constants() {
        let (_, tiny_configs, sizes) = tiny();
        // Query 1 twice (weights 1 and 3), and a query no index helps.
        let mut configs = vec![tiny_configs[1].clone(), tiny_configs[1].clone()];
        configs.push(QueryConfigs {
            query_id: 2,
            configs: vec![
                AtomicConfig {
                    candidate_ids: vec![],
                    cost: 50.0,
                },
                AtomicConfig {
                    candidate_ids: vec![0],
                    cost: 60.0,
                },
            ],
        });
        let weights = [1.0, 3.0, 2.0];
        let model = build_ilp(&weights, &configs, &sizes, &BTreeMap::new(), 100.0);
        assert_eq!((model.shape.merged, model.shape.constant), (1, 1));
        assert_eq!(model.shape.kept(), 1);
        assert_eq!(model.y_vars[0], model.y_vars[1], "twins share columns");
        assert!(model.y_vars[2].is_empty());
        let r = model.milp.solve(&MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        // 4 × {A,B} at 5, plus the constant 2 × 50.
        assert!((r.objective - 120.0).abs() < 1e-9, "{}", r.objective);
        // A warm start places the merged block once.
        let warm = warm_start_assignment(&model, &configs, &[1]);
        let priced = model
            .milp
            .solve_with_warm_start(&MilpOptions { node_limit: 0 }, Some(&warm));
        assert!(
            (priced.objective - 180.0).abs() < 1e-9,
            "{}",
            priced.objective
        );
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

    /// One random instance: weights, configurations, sizes, maintenance
    /// and budget.
    struct Instance {
        weights: Vec<f64>,
        configs: Vec<QueryConfigs>,
        sizes: BTreeMap<usize, f64>,
        maintenance: BTreeMap<usize, f64>,
        budget: f64,
    }

    /// Draw an instance over `n_cands` candidates. With `twins`, a query
    /// sometimes repeats an earlier one's configurations and a
    /// configuration is sometimes a single index, so every presolve rule
    /// fires; without, the draws are the ones the brute-force test has
    /// always used.
    fn instance(rng: &mut Rng, twins: bool) -> Instance {
        let n_cands = 2 + rng.below(9);
        let n_queries = 1 + rng.below(if twins { 9 } else { 6 });
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
        let mut configs: Vec<QueryConfigs> = Vec::with_capacity(n_queries);
        for query_id in 0..n_queries {
            if twins && query_id > 0 && rng.below(3) == 0 {
                let mut twin = configs[rng.below(query_id)].clone();
                twin.query_id = query_id;
                configs.push(twin);
                continue;
            }
            let empty = (60 + rng.below(140)) as f64;
            let mut list = vec![AtomicConfig {
                candidate_ids: vec![],
                cost: empty,
            }];
            for _ in 0..rng.below(6) {
                let width = if twins && rng.below(2) == 0 {
                    1
                } else {
                    1 + rng.below(3)
                };
                let mut ids: Vec<usize> = (0..width).map(|_| rng.below(n_cands)).collect();
                ids.sort_unstable();
                ids.dedup();
                // Mostly cheaper than no index at all, sometimes not.
                let cost = (1 + rng.below((empty * 1.2) as usize)) as f64;
                list.push(AtomicConfig {
                    candidate_ids: ids,
                    cost,
                });
            }
            configs.push(QueryConfigs {
                query_id,
                configs: list,
            });
        }
        Instance {
            weights,
            configs,
            sizes,
            maintenance,
            budget,
        }
    }

    #[test]
    fn milp_matches_brute_force_over_all_index_sets() {
        let mut rng = Rng(2010);
        let zero_nodes = MilpOptions { node_limit: 0 };
        for case in 0..40 {
            let Instance {
                weights,
                configs,
                sizes,
                maintenance,
                budget,
            } = instance(&mut rng, false);
            let n_cands = sizes.len();

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

    /// The formulation [`build_ilp`] replaced, kept as its oracle: no
    /// presolve, one column per configuration, and one `y_{q,k} ≤ x_i`
    /// row per (query, configuration, index).
    fn per_configuration_ilp(instance: &Instance) -> IlpModel {
        let mut milp = Milp::new();
        let x_vars: BTreeMap<usize, usize> = instance
            .sizes
            .keys()
            .map(|&cand| {
                let upkeep = instance.maintenance.get(&cand).copied().unwrap_or(0.0);
                (cand, milp.add_binary(upkeep))
            })
            .collect();
        let y_vars: Vec<Vec<usize>> = instance
            .configs
            .iter()
            .zip(&instance.weights)
            .map(|(qc, &w)| {
                qc.configs
                    .iter()
                    .map(|cfg| milp.add_continuous(w * cfg.cost))
                    .collect()
            })
            .collect();
        for row in &y_vars {
            let sos = row.iter().map(|&y| (y, 1.0)).collect();
            milp.lp.add_constraint(sos, Relation::Eq, 1.0);
        }
        for (qc, row) in instance.configs.iter().zip(&y_vars) {
            for (cfg, &y) in qc.configs.iter().zip(row) {
                for cand in &cfg.candidate_ids {
                    let coupling = vec![(y, 1.0), (x_vars[cand], -1.0)];
                    milp.lp.add_constraint(coupling, Relation::Le, 0.0);
                }
            }
        }
        let knapsack = x_vars
            .iter()
            .map(|(cand, &x)| (x, instance.sizes[cand]))
            .collect();
        milp.lp
            .add_constraint(knapsack, Relation::Le, instance.budget);
        IlpModel {
            shape: IlpShape::default(),
            milp,
            x_vars,
            y_vars,
        }
    }

    #[test]
    fn compact_model_matches_the_per_configuration_oracle() {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
        let cases = (0..40)
            .scan(Rng(2010), |rng, _| Some(instance(rng, false)))
            .chain((0..240).scan(Rng(31), |rng, _| Some(instance(rng, true))));
        let (mut fired, mut tighter) = (IlpShape::default(), 0);
        for (case, inst) in cases.enumerate() {
            let oracle = per_configuration_ilp(&inst);
            let model = |presolve| {
                let i = &inst;
                build(
                    &i.weights,
                    &i.configs,
                    &i.sizes,
                    &i.maintenance,
                    i.budget,
                    presolve,
                )
            };
            let (full, compact) = (model(false), model(true));
            let shape = compact.shape;
            fired.merged += shape.merged;
            fired.folded += shape.folded;
            fired.constant += shape.constant;

            let solve = |m: &IlpModel| m.milp.solve(&MilpOptions::default());
            let (want, off, on) = (solve(&oracle), solve(&full), solve(&compact));
            for (what, got) in [("presolve off", &off), ("presolve on", &on)] {
                assert_eq!(got.status, MilpStatus::Optimal, "case {case} ({what})");
                assert!(
                    close(got.objective, want.objective),
                    "case {case} ({what}): optimum {} vs the oracle's {}",
                    got.objective,
                    want.objective
                );
            }

            let root = |m: &IlpModel| m.milp.lp.solve().expect("feasible at x = 0").objective;
            let (old_bound, new_bound) = (root(&oracle), root(&compact));
            assert!(
                new_bound >= old_bound - 1e-9 * old_bound.abs().max(1.0),
                "case {case}: root bound {new_bound} below the oracle's {old_bound}"
            );
            assert!(
                close(root(&full), new_bound),
                "case {case}: presolve moved the root bound"
            );
            if new_bound > old_bound + 1e-6 * old_bound.abs().max(1.0) {
                tighter += 1;
            }
        }
        assert!(
            fired.merged > 0 && fired.folded > 0 && fired.constant > 0,
            "every presolve rule fired: {fired:?}"
        );
        assert!(tighter > 0, "the compact rows cut some root bound");
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
