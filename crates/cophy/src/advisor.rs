//! The CoPhy advisor: candidates → atomic configurations → ILP → solution.

use crate::atomic::enumerate_atomic_configs;
use crate::formulation::{build_ilp, decode_solution, warm_start_assignment, IlpShape};
use crate::greedy::greedy_select;
use pgdesign_autopart::{AutoPartAdvisor, AutoPartConfig};
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
/// size (PR 12): 20 / 40 / 80 / 160 / 320 queries are proven optimal in
/// 173 / 278 / 343 / 533 / 442 nodes — the tree barely grows with the
/// workload; it is the per-node LP that does — and the benchmark's
/// 12-query instances in at most ≈300. Ten times the largest of those
/// proves everything seen so far and still ends a pathological tree at a
/// point that depends on the input alone.
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

impl Recommendation {
    /// Average workload benefit as a fraction of the base cost.
    pub fn average_benefit(&self) -> f64 {
        if self.base_cost <= 0.0 {
            return 0.0;
        }
        ((self.base_cost - self.cost) / self.base_cost).max(0.0)
    }
}

/// A finished joint index + partition recommendation: one partition-aware
/// cost matrix served both searches under a single storage budget.
#[derive(Debug, Clone)]
pub struct JointRecommendation {
    /// The suggested indexes.
    pub indexes: Vec<Index>,
    /// The suggested design (indexes + vertical/horizontal partitions).
    pub design: PhysicalDesign,
    /// Workload cost under the empty design.
    pub base_cost: f64,
    /// Workload cost under the indexes alone (before partitioning).
    pub index_cost: f64,
    /// Workload cost under the joint recommendation.
    pub cost: f64,
    /// Per-query `(base, joint)` costs, aligned with the workload.
    pub per_query: Vec<(f64, f64)>,
    /// Bytes of the suggested indexes.
    pub total_index_bytes: u64,
    /// Bytes of replicated storage the partitioning uses.
    pub replication_bytes: u64,
    /// Greedy merge iterations of the partition search.
    pub partition_iterations: usize,
}

impl JointRecommendation {
    /// Average workload benefit as a fraction of the base cost.
    pub fn average_benefit(&self) -> f64 {
        if self.base_cost <= 0.0 {
            return 0.0;
        }
        (self.base_cost - self.cost) / self.base_cost
    }
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
        let base = workload_candidates(catalog, &matrix.active_workload(), &self.config.candidates);
        let qids: Vec<usize> = matrix.active_query_ids().collect();

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
        let ilp_cost =
            matrix.workload_cost(&matrix.config_of(ilp_ids.iter().copied())) + maint_of(&ilp_ids);
        let greedy_total = warm_greedy.cost + maint_of(&warm_greedy.chosen);
        let chosen_ids = if ilp_cost <= greedy_total {
            ilp_ids
        } else {
            warm_greedy.chosen.clone()
        };
        let indexes: Vec<Index> = chosen_ids
            .iter()
            .map(|&id| matrix.candidate(id).expect("chosen ids are live").clone())
            .collect();
        let design = PhysicalDesign::with_indexes(indexes.iter().cloned());

        let empty_config = matrix.empty_config();
        let chosen_config = matrix.config_of(chosen_ids.iter().copied());
        let base_cost = matrix.workload_cost(&empty_config);
        let cost = matrix.workload_cost(&chosen_config) + maint_of(&chosen_ids);
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
            cost,
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

    /// Joint index + partition mode against `matrix`: one
    /// partition-aware [`CostMatrix`] serves the greedy index selection
    /// *and* AutoPart's merge search, so both run on pure lookups, and the
    /// two structures share a single storage budget — the partition search
    /// may replicate columns only into the bytes the chosen indexes left
    /// over. The partition trials run with the chosen indexes selected in
    /// the configuration, so every merge decision sees the index accesses
    /// it must coexist with. Candidates are registered incrementally
    /// (resident ones reuse their cells) and stay resident; nothing is
    /// published (see [`Self::recommend_on`]).
    pub fn recommend_joint_on(
        &self,
        matrix: &mut CostMatrix<'_>,
        partition_config: AutoPartConfig,
    ) -> JointRecommendation {
        let catalog = self.inum.catalog();
        let candidates =
            workload_candidates(catalog, &matrix.active_workload(), &self.config.candidates);
        matrix.add_candidates(&candidates.indexes);
        let budget = self.config.storage_budget_bytes;

        // Index half: greedy benefit-per-byte on the shared matrix.
        let greedy = greedy_select(matrix, budget);
        let total_index_bytes: u64 = greedy
            .chosen
            .iter()
            .map(|&id| {
                let idx = matrix.candidate(id).expect("chosen ids are live");
                idx.size_bytes(&catalog.schema, catalog.table_stats(idx.table))
            })
            .sum();
        let index_cost = greedy.cost;

        let mut cfg = matrix.empty_joint();
        for &id in &greedy.chosen {
            cfg.indexes.insert(id);
        }

        // Partition half on the same matrix and configuration, replication
        // capped to the budget the indexes left unspent.
        let autopart = AutoPartAdvisor::new(
            self.inum,
            AutoPartConfig {
                replication_budget_bytes: partition_config
                    .replication_budget_bytes
                    .min(budget.saturating_sub(total_index_bytes)),
            },
        );
        let partition_iterations = autopart.search_on(matrix, &mut cfg);

        let empty = matrix.empty_joint();
        let base_cost = matrix.joint_workload_cost(&empty);
        let mut cost = matrix.joint_workload_cost(&cfg);
        if cost > index_cost {
            // The partition search accepts only improving steps, but never
            // hand back a joint design worse than the indexes alone.
            cfg.fragments.clear();
            cfg.splits.clear();
            cost = matrix.joint_workload_cost(&cfg);
        }

        let design = matrix.joint_design_of(&cfg);
        let per_query = matrix.joint_cost_pairs(&empty, &cfg);
        let replication_bytes = design.replication_bytes(&catalog.schema, &catalog.stats);
        JointRecommendation {
            indexes: greedy
                .chosen
                .iter()
                .map(|&id| matrix.candidate(id).expect("chosen ids are live").clone())
                .collect(),
            design,
            base_cost,
            index_cost,
            cost,
            per_query,
            total_index_bytes,
            replication_bytes,
            partition_iterations,
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
        assert!(rec.average_benefit() > 0.1, "{}", rec.average_benefit());
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
    fn joint_mode_shares_one_matrix_and_never_regresses() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 31);
        let budget = c.data_bytes() / 2;
        let advisor = CophyAdvisor::new(
            &inum,
            CophyConfig {
                storage_budget_bytes: budget,
                ..Default::default()
            },
        );
        let builds_before = inum.matrix_stats().builds;
        let cost_calls_before = inum.stats().cost_calls;
        let rec = advisor.recommend_joint_on(
            &mut matrix(&inum, &w),
            pgdesign_autopart::AutoPartConfig {
                replication_budget_bytes: budget / 10,
            },
        );
        assert_eq!(
            inum.matrix_stats().builds,
            builds_before + 1,
            "index and partition searches must share one matrix"
        );
        assert_eq!(
            inum.stats().cost_calls,
            cost_calls_before,
            "the joint mode runs on matrix lookups only"
        );
        assert!(rec.cost <= rec.index_cost + 1e-6, "partitions may not hurt");
        assert!(rec.cost <= rec.base_cost + 1e-6);
        assert!(rec.total_index_bytes <= budget);
        assert!(
            rec.total_index_bytes + rec.replication_bytes <= budget,
            "one budget covers indexes and replicated partition storage"
        );
        assert_eq!(rec.per_query.len(), 9);
        // The matrix's joint estimate agrees with the slow-path oracle on
        // the finished design.
        let oracle = inum.workload_cost(&rec.design, &w);
        assert!(
            (rec.cost - oracle).abs() <= 1e-6 * oracle.abs().max(1.0),
            "joint {} vs oracle {oracle}",
            rec.cost
        );
    }

    #[test]
    fn joint_mode_partitions_narrow_workloads() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        // Thin column slices: vertical partitioning should survive even
        // with indexes present.
        let sqls = [
            "SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 100 AND 140",
            "SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 60",
            "SELECT ra, dec FROM photoobj WHERE ra < 50",
        ];
        let w = Workload::from_queries(
            sqls.iter()
                .map(|s| pgdesign_query::parse_query(&c.schema, s).unwrap()),
        );
        let advisor = CophyAdvisor::new(
            &inum,
            CophyConfig {
                // A tiny index budget forces the benefit to come from
                // partitioning instead.
                storage_budget_bytes: 1,
                ..Default::default()
            },
        );
        let rec = advisor.recommend_joint_on(
            &mut matrix(&inum, &w),
            pgdesign_autopart::AutoPartConfig::default(),
        );
        assert!(rec.indexes.is_empty());
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        assert!(
            rec.design.vertical(photo).is_some(),
            "partitioning must carry the benefit under a zero index budget"
        );
        assert!(rec.cost < rec.base_cost);
        assert!(rec.average_benefit() > 0.3, "{}", rec.average_benefit());
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
