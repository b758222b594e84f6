//! The CoPhy advisor: candidates → atomic configurations → ILP → solution.

use crate::atomic::enumerate_atomic_configs;
use crate::formulation::{build_ilp, decode_solution, warm_start_assignment, IlpModel, IlpShape};
use crate::greedy::{drop_worthless, greedy_select, GreedyResult};
use pgdesign_catalog::design::{Index, PhysicalDesign};
use pgdesign_inum::{CostMatrix, Inum};
use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
use pgdesign_optimizer::maintenance::{index_maintenance_cost, WriteProfile};
use pgdesign_solver::{MilpOptions, MilpStatus};
use std::collections::BTreeMap;

/// Advisor configuration.
#[derive(Debug, Clone)]
pub struct CophyConfig {
    /// Storage budget for new indexes, in bytes.
    pub storage_budget_bytes: u64,
    /// Cap on atomic configurations per query.
    pub max_configs_per_query: usize,
    /// Candidate enumeration knobs.
    pub candidates: CandidateConfig,
    /// Cap on `merging`-generated candidates added to the pool (0 disables
    /// merging). Merged candidates are fed into the already-built cost
    /// matrix via [`CostMatrix::add_candidate`] — only their own cells are
    /// computed, no rebuild.
    pub merged_candidates: usize,
    /// Key-width cap for merged candidates (wide B-tree keys stop paying).
    pub merge_max_width: usize,
    /// Write activity per workload period; indexes pay their upkeep in the
    /// objective. `None` means read-only.
    pub write_profile: Option<WriteProfile>,
    /// Solver budget and tolerances — the effort/quality trade-off knob.
    /// The budget is a node count (5 000 by default, see `NODE_LIMIT`), so
    /// the recommendation never depends on how fast the machine is.
    pub solver: MilpOptions,
}

/// Default branch-and-bound node budget. Measured on SDSS at half the data
/// size (`pgdesign recommend --workload builtin:N`, depth-first search with
/// reduced-cost fixing): 20 / 40 / 80 / 160 / 320 queries are proven
/// optimal in 79 / 88 / 90 / 181 / 158 nodes — the tree barely grows with
/// the workload; it is the per-node LP that does — and the benchmark's
/// 12-query instances in at most ≈150. A budget far above the largest of
/// these proves everything seen so far and still ends a pathological tree
/// at a point that depends on the input alone.
const NODE_LIMIT: usize = 5_000;

impl Default for CophyConfig {
    fn default() -> Self {
        CophyConfig {
            storage_budget_bytes: u64::MAX / 2,
            max_configs_per_query: 12,
            candidates: CandidateConfig::default(),
            merged_candidates: 16,
            merge_max_width: 4,
            write_profile: None,
            solver: MilpOptions {
                node_limit: NODE_LIMIT,
            },
        }
    }
}

/// A finished recommendation.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The suggested indexes.
    pub indexes: Vec<Index>,
    /// The suggested design (same indexes, as a design value).
    pub design: PhysicalDesign,
    /// Workload cost under the empty design.
    pub base_cost: f64,
    /// Workload cost under the recommendation (INUM estimate).
    pub cost: f64,
    /// Certified relative optimality gap from the solver.
    pub gap: f64,
    /// Solver status.
    pub status: MilpStatus,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Simplex iterations the solve took, root relaxation included.
    pub pivots: usize,
    /// The ILP the solver saw: query blocks before and after presolve,
    /// rows and columns.
    pub ilp: IlpShape,
    /// Number of candidate indexes considered.
    pub candidates_considered: usize,
    /// Per-query costs (base, recommended), aligned with the workload.
    pub per_query: Vec<(f64, f64)>,
    /// Total size of the suggested indexes in bytes.
    pub total_index_bytes: u64,
}

/// What [`CophyAdvisor::formulate`] hands the solve: the ILP, each sized
/// candidate's maintenance cost, the greedy pick and its assignment as the
/// ILP's warm start.
struct Formulated {
    model: IlpModel,
    maintenance: BTreeMap<usize, f64>,
    warm_greedy: GreedyResult,
    warm: Vec<f64>,
}

/// The CoPhy advisor bound to an INUM instance.
pub struct CophyAdvisor<'a> {
    inum: &'a Inum<'a>,
    config: CophyConfig,
}

impl<'a> CophyAdvisor<'a> {
    /// New advisor.
    pub fn new(inum: &'a Inum<'a>, config: CophyConfig) -> Self {
        CophyAdvisor { inum, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CophyConfig {
        &self.config
    }

    /// The ILP `recommend_on` solves over `matrix`, with its greedy warm
    /// start: the candidate pool (merges included) is registered, sized
    /// against the budget, and turned into atomic configurations, weights
    /// and per-index maintenance.
    fn formulate(&self, matrix: &mut CostMatrix<'_>) -> Formulated {
        let catalog = self.inum.catalog();
        let base = workload_candidates(catalog, &matrix.active_workload(), &self.config.candidates);

        // Register the candidate pool. Merged candidates ride on the same
        // matrix: each is registered incrementally (only its own cells are
        // computed — or reused, if already resident).
        let enumerated = if self.config.merged_candidates > 0 {
            crate::merging::augment_with_merges(
                catalog,
                &base,
                self.config.merge_max_width,
                self.config.merged_candidates,
            )
        } else {
            base
        };
        // Bulk registration: new candidates' cells are computed in one
        // parallel fan-out; resident ones reuse their cells.
        matrix.add_candidates(&enumerated.indexes);
        let matrix: &CostMatrix<'_> = matrix;

        // Sizes over every live candidate of the matrix, filtering out
        // candidates that alone exceed the budget.
        let mut sizes: BTreeMap<usize, f64> = BTreeMap::new();
        for (id, idx) in matrix.candidates() {
            let bytes = idx.size_bytes(&catalog.schema, catalog.table_stats(idx.table));
            if bytes <= self.config.storage_budget_bytes {
                sizes.insert(id, bytes as f64);
            }
        }

        let configs = enumerate_atomic_configs(matrix, self.config.max_configs_per_query);
        // Restrict configs to within-budget candidates.
        let configs: Vec<_> = configs
            .into_iter()
            .map(|mut qc| {
                qc.configs
                    .retain(|cfg| cfg.candidate_ids.iter().all(|c| sizes.contains_key(c)));
                qc
            })
            .collect();

        // Per-candidate maintenance under the write profile.
        let maintenance: BTreeMap<usize, f64> = match &self.config.write_profile {
            Some(profile) => sizes
                .keys()
                .map(|&id| {
                    (
                        id,
                        index_maintenance_cost(
                            &self.inum.optimizer().params,
                            catalog,
                            matrix.candidate(id).expect("sized candidates are live"),
                            profile,
                        ),
                    )
                })
                .collect(),
            None => BTreeMap::new(),
        };

        let weights: Vec<f64> = configs
            .iter()
            .map(|qc| matrix.query_weight(qc.query_id))
            .collect();
        let model = build_ilp(
            &weights,
            &configs,
            &sizes,
            &maintenance,
            self.config.storage_budget_bytes as f64,
        );

        // Greedy warm start (delta evaluation on the shared matrix).
        let warm_greedy = greedy_select(matrix, self.config.storage_budget_bytes);
        let warm = warm_start_assignment(&model, &configs, &warm_greedy.chosen);

        Formulated {
            model,
            maintenance,
            warm_greedy,
            warm,
        }
    }

    /// Produce an index recommendation against `matrix`. The advisor
    /// enumerates candidates from the matrix's active queries and
    /// registers them with [`CostMatrix::add_candidates`]: candidates
    /// already resident (e.g. registered by an on-line tuner sharing the
    /// same session matrix) reuse their cells instead of recomputing them,
    /// and candidates the matrix holds beyond this enumeration compete on
    /// equal footing. The matrix is extended, never rebuilt, and
    /// registered candidates stay resident for later advisors on the same
    /// matrix. A caller without a matrix builds one with
    /// `CostMatrix::build(&inum, &workload, &[])`.
    ///
    /// Nothing is published: snapshot readers see the registered
    /// candidates once the matrix owner calls [`CostMatrix::publish`] (a
    /// session's `advise` does, once per advice).
    pub fn recommend_on(&self, matrix: &mut CostMatrix<'_>) -> Recommendation {
        let catalog = self.inum.catalog();
        let Formulated {
            model,
            maintenance,
            warm_greedy,
            warm,
        } = self.formulate(matrix);
        let matrix: &CostMatrix<'_> = matrix;
        let qids: Vec<usize> = matrix.active_query_ids().collect();

        let result = model
            .milp
            .solve_with_warm_start(&self.config.solver, Some(&warm));

        let ilp_ids = if result.x.is_empty() {
            warm_greedy.chosen.clone()
        } else {
            decode_solution(&model, &result.x)
        };
        // The ILP optimizes within the atomic-configuration space; validate
        // both the ILP pick and the greedy pick under the full INUM model
        // and keep the better one (so the recommendation never regresses
        // below the greedy baseline).
        let maint_of = |ids: &[usize]| -> f64 {
            ids.iter()
                .map(|id| maintenance.get(id).copied().unwrap_or(0.0))
                .sum()
        };
        let total_of = |ids: &[usize]| -> f64 {
            matrix.workload_cost(&matrix.config_of(ids.iter().copied())) + maint_of(ids)
        };
        let ilp_cost = total_of(&ilp_ids);
        let greedy_total = warm_greedy.cost + maint_of(&warm_greedy.chosen);
        let (chosen_ids, total) = if ilp_cost <= greedy_total {
            (ilp_ids, ilp_cost)
        } else {
            (warm_greedy.chosen.clone(), greedy_total)
        };
        // The warm start is already minimal, but the solver may return
        // another member of an equal-cost tie: it must not grow the design.
        let (chosen_ids, total) = drop_worthless(matrix, chosen_ids, total, total_of);
        let indexes: Vec<Index> = chosen_ids
            .iter()
            .map(|&id| matrix.candidate(id).expect("chosen ids are live").clone())
            .collect();
        let design = PhysicalDesign::with_indexes(indexes.iter().cloned());

        let empty_config = matrix.empty_config();
        let chosen_config = matrix.config_of(chosen_ids.iter().copied());
        let base_cost = matrix.workload_cost(&empty_config);
        let per_query = qids
            .iter()
            .map(|&qi| {
                (
                    matrix.cost(qi, &empty_config),
                    matrix.cost(qi, &chosen_config),
                )
            })
            .collect();
        let total_index_bytes = design.index_bytes(&catalog.schema, &catalog.stats);

        Recommendation {
            indexes,
            design,
            base_cost,
            cost: total,
            gap: result.gap,
            status: result.status,
            nodes: result.nodes,
            pivots: result.pivots,
            ilp: model.shape,
            candidates_considered: matrix.candidates().count(),
            per_query,
            total_index_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_optimizer::Optimizer;
    use pgdesign_query::generators::sdss_workload;
    use pgdesign_query::Workload;

    /// A fresh private matrix over `w`, for the advisor to fill.
    fn matrix<'a>(inum: &Inum<'a>, w: &Workload) -> CostMatrix<'a> {
        CostMatrix::build(inum, w, &[])
    }

    fn advise(budget_frac: f64, n_queries: usize, seed: u64) -> (Recommendation, f64) {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, n_queries, seed);
        let budget = (c.data_bytes() as f64 * budget_frac) as u64;
        let advisor = CophyAdvisor::new(
            &inum,
            CophyConfig {
                storage_budget_bytes: budget,
                ..Default::default()
            },
        );
        let rec = advisor.recommend_on(&mut matrix(&inum, &w));
        let greedy = {
            let cands = pgdesign_optimizer::candidates::workload_candidates(
                &c,
                &w,
                &CandidateConfig::default(),
            );
            let matrix = CostMatrix::build(&inum, &w, &cands.indexes);
            greedy_select(&matrix, budget).cost
        };
        (rec, greedy)
    }

    #[test]
    fn recommendation_improves_workload() {
        let (rec, _) = advise(1.0, 9, 21);
        assert!(!rec.indexes.is_empty());
        assert!(rec.cost < rec.base_cost);
        let benefit = (rec.base_cost - rec.cost) / rec.base_cost;
        assert!(benefit > 0.1, "{benefit}");
        assert!(rec.total_index_bytes > 0);
    }

    #[test]
    fn cophy_at_least_matches_greedy() {
        let (rec, greedy_cost) = advise(0.3, 9, 22);
        assert!(
            rec.cost <= greedy_cost * 1.0001,
            "CoPhy {} must be ≤ greedy {}",
            rec.cost,
            greedy_cost
        );
    }

    #[test]
    fn budget_is_respected() {
        let (rec, _) = advise(0.1, 9, 23);
        let c = sdss_catalog(0.01);
        let budget = (c.data_bytes() as f64 * 0.1) as u64;
        assert!(
            rec.total_index_bytes <= budget,
            "{} > {}",
            rec.total_index_bytes,
            budget
        );
    }

    #[test]
    fn per_query_costs_are_reported() {
        let (rec, _) = advise(1.0, 9, 24);
        assert_eq!(rec.per_query.len(), 9);
        for (base, tuned) in &rec.per_query {
            assert!(tuned <= base, "no query may regress: {tuned} vs {base}");
        }
    }

    #[test]
    fn write_heavy_tables_repel_indexes() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 26);
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        let read_only =
            CophyAdvisor::new(&inum, CophyConfig::default()).recommend_on(&mut matrix(&inum, &w));
        // A write-hammered photoobj should carry fewer (or equal) indexes.
        let writes = pgdesign_optimizer::maintenance::WriteProfile::read_only()
            .with_inserts(photo, 5_000_000.0);
        let write_heavy = CophyAdvisor::new(
            &inum,
            CophyConfig {
                write_profile: Some(writes),
                ..Default::default()
            },
        )
        .recommend_on(&mut matrix(&inum, &w));
        let ro_photo = read_only
            .indexes
            .iter()
            .filter(|i| i.table == photo)
            .count();
        let wh_photo = write_heavy
            .indexes
            .iter()
            .filter(|i| i.table == photo)
            .count();
        assert!(
            wh_photo <= ro_photo,
            "write-heavy {wh_photo} vs read-only {ro_photo}"
        );
        assert!(wh_photo < ro_photo, "5M inserts should drop some index");
    }

    #[test]
    fn merged_candidates_extend_the_matrix_without_a_rebuild() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 27);
        let builds_before = inum.matrix_stats().builds;
        let rec = CophyAdvisor::new(
            &inum,
            CophyConfig {
                merged_candidates: 24,
                ..Default::default()
            },
        )
        .recommend_on(&mut matrix(&inum, &w));
        assert_eq!(
            inum.matrix_stats().builds,
            builds_before + 1,
            "merging must feed candidates into the existing matrix, not rebuild it"
        );
        // The pool actually grew beyond the base enumeration.
        let base = workload_candidates(&c, &w, &CandidateConfig::default());
        assert!(rec.candidates_considered > base.indexes.len());
        assert!(rec.cost <= rec.base_cost);
    }

    /// Every index CoPhy or its greedy warm start chooses earns its bytes:
    /// the design without it costs more, on SDSS and TPC-H, at a loose and
    /// a tight budget.
    #[test]
    fn no_design_keeps_an_index_of_zero_value() {
        use pgdesign_catalog::samples::tpch_catalog;
        use pgdesign_query::generators::tpch_workload;
        let opt = Optimizer::new();
        for (catalog, tpch) in [(sdss_catalog(0.005), false), (tpch_catalog(0.005), true)] {
            let inum = Inum::new(&catalog, &opt);
            for seed in [5, 11, 12] {
                let w = if tpch {
                    tpch_workload(&catalog, 36, seed)
                } else {
                    sdss_workload(&catalog, 40, seed)
                };
                for budget_frac in [0.5, 0.05] {
                    let budget = (catalog.data_bytes() as f64 * budget_frac) as u64;
                    let config = CophyConfig {
                        storage_budget_bytes: budget,
                        ..Default::default()
                    };
                    let mut m = matrix(&inum, &w);
                    let rec = CophyAdvisor::new(&inum, config).recommend_on(&mut m);
                    let greedy = greedy_select(&m, budget);
                    let greedy: Vec<Index> = greedy
                        .chosen
                        .iter()
                        .map(|&id| m.candidate(id).expect("chosen ids are live").clone())
                        .collect();
                    for (what, design) in [("CoPhy", &rec.indexes), ("greedy", &greedy)] {
                        let chosen = CostMatrix::build(&inum, &w, design);
                        let k = design.len();
                        let all = chosen.workload_cost(&chosen.config_of(0..k));
                        for (i, index) in design.iter().enumerate() {
                            let without =
                                chosen.workload_cost(&chosen.config_of((0..k).filter(|&j| j != i)));
                            assert!(
                                without > all,
                                "{what}, tpch {tpch}, seed {seed}, budget {budget_frac}: \
                                 {} is worth nothing",
                                index.display(&catalog.schema)
                            );
                        }
                    }
                }
            }
        }
    }

    /// The ILP's own pick, decoded before `drop_worthless` runs, holds no
    /// index of zero value on SDSS and TPC-H at three seeds and a loose
    /// and a tight budget. `bench-trace`'s replica of `recommend_on` takes
    /// that pick as it is, so a solver vertex that sets a worthless
    /// `x_i = 1` would fail every traced offline op.
    #[test]
    fn the_ilp_pick_holds_no_index_of_zero_value() {
        use pgdesign_catalog::samples::tpch_catalog;
        use pgdesign_query::generators::tpch_workload;
        let opt = Optimizer::new();
        for (catalog, tpch) in [(sdss_catalog(0.005), false), (tpch_catalog(0.005), true)] {
            let inum = Inum::new(&catalog, &opt);
            for seed in [5, 11, 12] {
                let w = if tpch {
                    tpch_workload(&catalog, 36, seed)
                } else {
                    sdss_workload(&catalog, 40, seed)
                };
                for budget_frac in [0.5, 0.05] {
                    let config = CophyConfig {
                        storage_budget_bytes: (catalog.data_bytes() as f64 * budget_frac) as u64,
                        ..Default::default()
                    };
                    let advisor = CophyAdvisor::new(&inum, config);
                    let mut m = matrix(&inum, &w);
                    let Formulated { model, warm, .. } = advisor.formulate(&mut m);
                    let solved = model
                        .milp
                        .solve_with_warm_start(&advisor.config().solver, Some(&warm));
                    let pick = decode_solution(&model, &solved.x);
                    let cost = |ids: &[usize]| m.workload_cost(&m.config_of(ids.iter().copied()));
                    let all = cost(&pick);
                    for &id in &pick {
                        let without: Vec<usize> =
                            pick.iter().copied().filter(|&j| j != id).collect();
                        assert!(
                            cost(&without) > all,
                            "tpch {tpch}, seed {seed}, budget {budget_frac}: the ILP picks {} \
                             and it is worth nothing",
                            m.candidate(id)
                                .expect("picked ids are live")
                                .display(&catalog.schema)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gap_is_certified() {
        let (rec, _) = advise(0.5, 9, 25);
        assert!(rec.gap.is_finite());
        assert!(rec.gap >= 0.0);
        assert!(matches!(
            rec.status,
            MilpStatus::Optimal | MilpStatus::Feasible
        ));
    }
}
