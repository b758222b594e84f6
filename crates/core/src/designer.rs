//! The [`Designer`] façade and the offline (scenario 2) pipeline.

use crate::interactive::InteractiveSession;
use crate::online::OnlineSession;
use crate::report;
use crate::session::{IndexAdvisor, JointAdvisor, OfflineAdvisor, TuningSession};
use pgdesign_autopart::PartitionRecommendation;
use pgdesign_catalog::design::PhysicalDesign;
use pgdesign_catalog::Catalog;
use pgdesign_colt::ColtConfig;
use pgdesign_cophy::{CophyConfig, JointRecommendation, Recommendation};
use pgdesign_interaction::{InteractionAnalysis, InteractionGraph, Schedule};
use pgdesign_optimizer::{JoinControl, Optimizer};
use pgdesign_query::ast::Query;
use pgdesign_query::Workload;
use std::fmt;

/// The automated, interactive and portable DB designer.
///
/// Owns the catalog (schema + statistics) and the what-if optimizer; all
/// advisors run against these through per-operation INUM instances, so a
/// `Designer` is cheap to share behind `&self`.
#[derive(Debug, Clone)]
pub struct Designer {
    /// Schema, statistics and the materialized base design.
    pub catalog: Catalog,
    /// The what-if cost-based optimizer.
    pub optimizer: Optimizer,
}

impl Designer {
    /// A designer with default optimizer parameters.
    pub fn new(catalog: Catalog) -> Self {
        Designer {
            catalog,
            optimizer: Optimizer::new(),
        }
    }

    /// A designer with an explicit optimizer (cost params / join control).
    pub fn with_optimizer(catalog: Catalog, optimizer: Optimizer) -> Self {
        Designer { catalog, optimizer }
    }

    /// Restrict or re-enable join methods (the what-if join component).
    pub fn set_join_control(&mut self, control: JoinControl) {
        self.optimizer.control = control;
    }

    /// Start a bare tuning session — the shared-matrix substrate every
    /// other entry point runs on. Use this directly to interleave
    /// advisors ([`TuningSession::advise`]) over one warm matrix.
    pub fn tuning_session(&self, workload: Workload) -> TuningSession<'_> {
        TuningSession::new(self, workload)
    }

    /// Start an interactive what-if session (demo scenario 1) — a
    /// [`TuningSession`] view whose evaluations are pure matrix lookups.
    pub fn session(&self, workload: Workload) -> InteractiveSession<'_> {
        InteractiveSession::new(self, workload)
    }

    /// Start a continuous-tuning session (demo scenario 3) — COLT over a
    /// [`TuningSession`] matrix, with mid-stream advisor handoff
    /// ([`OnlineSession::advise`]).
    pub fn online_session(&self, config: ColtConfig) -> OnlineSession<'_> {
        OnlineSession::new(self, config)
    }

    /// Run the CoPhy index advisor alone (a one-shot
    /// [`crate::session::IndexAdvisor`] session).
    pub fn recommend_indexes(&self, workload: &Workload, config: CophyConfig) -> Recommendation {
        self.tuning_session(workload.clone())
            .advise(&mut IndexAdvisor::new(config))
    }

    /// EXPLAIN a query under a design.
    pub fn explain(&self, design: &PhysicalDesign, query: &Query) -> String {
        let plan = self.optimizer.optimize(&self.catalog, design, query);
        plan.explain(&self.catalog.schema, query)
    }

    /// Estimated cost of a query under a design.
    pub fn cost(&self, design: &PhysicalDesign, query: &Query) -> f64 {
        self.optimizer.cost(&self.catalog, design, query)
    }

    /// The joint index + partition mode: one partition-aware cost matrix
    /// serves the greedy index selection and AutoPart's merge search under
    /// a single storage budget (`pgdesign recommend --joint`). A one-shot
    /// [`crate::session::JointAdvisor`] session.
    pub fn recommend_joint(&self, workload: &Workload, storage_budget_bytes: u64) -> JointReport {
        self.tuning_session(workload.clone())
            .advise(&mut JointAdvisor::new(storage_budget_bytes))
    }

    /// The full offline pipeline (demo scenario 2): CoPhy indexes +
    /// AutoPart partitions under a shared storage budget, the interaction
    /// graph over the suggested indexes, and an interaction-aware
    /// materialization schedule (with the naive order for comparison).
    /// A one-shot [`crate::session::OfflineAdvisor`] session: every stage
    /// — selection, combination, interactions, scheduling — costs through
    /// the session's single matrix.
    pub fn recommend(&self, workload: &Workload, storage_budget_bytes: u64) -> OfflineReport {
        self.tuning_session(workload.clone())
            .advise(&mut OfflineAdvisor::new(storage_budget_bytes))
    }
}

/// What the joint index + partition mode shows the user.
#[derive(Debug, Clone)]
pub struct JointReport {
    /// The joint recommendation.
    pub joint: JointRecommendation,
    /// Human-readable names of the suggested indexes (schema-resolved).
    pub index_display: Vec<String>,
    /// INUM / cost-matrix counters captured at the end of the run.
    pub stats: crate::report::TuningStats,
}

impl fmt::Display for JointReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&report::render_joint(self))
    }
}

/// Everything scenario 2 shows the user.
#[derive(Debug, Clone)]
pub struct OfflineReport {
    /// The CoPhy index recommendation.
    pub indexes: Recommendation,
    /// The AutoPart partition recommendation.
    pub partitions: PartitionRecommendation,
    /// The adopted design (indexes ∪ partitions, or the better component
    /// alone when combining erodes benefit).
    pub design: PhysicalDesign,
    /// Workload cost under the empty design.
    pub base_cost: f64,
    /// Workload cost under the adopted design.
    pub combined_cost: f64,
    /// Per-query `(base, adopted)` costs.
    pub per_query: Vec<(f64, f64)>,
    /// Interaction analysis over the suggested indexes.
    pub analysis: InteractionAnalysis,
    /// The Figure-2 interaction graph.
    pub graph: InteractionGraph,
    /// Interaction-aware materialization schedule.
    pub schedule: Schedule,
    /// The naive (recommendation-order) schedule for comparison.
    pub naive_schedule: Schedule,
    /// Human-readable names of the suggested indexes (schema-resolved).
    pub index_display: Vec<String>,
    /// INUM / cost-matrix counters captured at the end of the run (what
    /// `pgdesign recommend --stats` prints).
    pub stats: crate::report::TuningStats,
}

impl OfflineReport {
    /// Average workload benefit as a *signed* fraction of the base cost:
    /// negative when the adopted design costs more than the base (the
    /// advisors guard against handing one back, but a regression must
    /// never be masked by clamping). A degenerate (non-positive) base
    /// cost yields 0.0 since no meaningful fraction exists.
    pub fn average_benefit(&self) -> f64 {
        if self.base_cost <= 0.0 {
            return 0.0;
        }
        (self.base_cost - self.combined_cost) / self.base_cost
    }
}

impl fmt::Display for OfflineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&report::render_offline(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_query::generators::sdss_workload;
    use pgdesign_query::parse_query;

    fn designer() -> Designer {
        Designer::new(sdss_catalog(0.01))
    }

    #[test]
    fn offline_pipeline_produces_consistent_report() {
        let d = designer();
        let w = sdss_workload(&d.catalog, 9, 77);
        let budget = d.catalog.data_bytes() / 2;
        let r = d.recommend(&w, budget);
        assert!(r.combined_cost <= r.base_cost);
        assert!(r.combined_cost <= r.indexes.cost + 1e-6);
        assert!(r.combined_cost <= r.partitions.cost + 1e-6);
        assert_eq!(r.per_query.len(), 9);
        assert_eq!(r.schedule.order.len(), r.indexes.indexes.len());
        assert!(r.schedule.area <= r.naive_schedule.area + 1e-6);
        assert!(r.average_benefit() > 0.0);
    }

    #[test]
    fn report_renders_panels() {
        let d = designer();
        let w = sdss_workload(&d.catalog, 9, 78);
        let r = d.recommend(&w, d.catalog.data_bytes() / 2);
        let text = r.to_string();
        assert!(text.contains("Suggested indexes"));
        assert!(text.contains("Average workload benefit"));
        assert!(text.contains("Materialization schedule"));
        assert!(text.contains("Q1"));
    }

    #[test]
    fn explain_and_cost_agree() {
        let d = designer();
        let q = parse_query(&d.catalog.schema, "SELECT ra FROM photoobj WHERE objid = 9").unwrap();
        let design = PhysicalDesign::empty();
        let text = d.explain(&design, &q);
        assert!(text.contains("Seq Scan"));
        assert!(d.cost(&design, &q) > 0.0);
    }

    #[test]
    fn join_control_flows_into_designer() {
        let mut d = designer();
        d.set_join_control(JoinControl {
            hash: false,
            merge: true,
            nestloop: false,
        });
        let q = parse_query(
            &d.catalog.schema,
            "SELECT p.ra FROM photoobj p, specobj s WHERE p.objid = s.bestobjid",
        )
        .unwrap();
        let text = d.explain(&PhysicalDesign::empty(), &q);
        assert!(text.contains("Merge Join"), "{text}");
    }

    #[test]
    fn tight_budget_shrinks_recommendation() {
        let d = designer();
        let w = sdss_workload(&d.catalog, 9, 79);
        let generous = d.recommend(&w, d.catalog.data_bytes());
        let tight = d.recommend(&w, d.catalog.data_bytes() / 50);
        assert!(tight.indexes.total_index_bytes <= generous.indexes.total_index_bytes);
        assert!(tight.indexes.total_index_bytes <= d.catalog.data_bytes() / 50);
    }
}
