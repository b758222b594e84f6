//! # pgdesign-autopart
//!
//! AutoPart — automated schema partitioning for large scientific databases
//! (Papadomanolakis & Ailamaki, SSDBM 2004), the paper's automatic
//! partition suggestion component (§3.3).
//!
//! AutoPart partitions each table *vertically* into column groups driven by
//! the workload's access sets, optionally *replicating* hot columns into
//! multiple fragments under a replication budget, and *horizontally* by
//! range on the most-restricted column. The search is the original greedy
//! scheme:
//!
//! 1. **Atomic fragments** — group columns that are accessed by exactly the
//!    same set of queries (the partition induced by the workload's access
//!    sets);
//! 2. **Composite fragments** — repeatedly merge (or replicate into) the
//!    pair of fragments whose combination most reduces estimated workload
//!    cost, as judged by the what-if cost model, until no merge helps;
//! 3. **Horizontal pass** — propose range partitioning on the column with
//!    the most sargable restrictions and keep it if it pays.
//!
//! Costing goes through INUM (the paper: "we have also extended the INUM
//! cost model to include partitions") — specifically through the
//! *partition-aware cost matrix* ([`CostMatrix`]): atomic fragments are
//! registered as fragment candidates once, every merge/replication trial
//! of the greedy loop is a [`JointToggle`] delta evaluation, and the
//! horizontal pass is a [`pgdesign_inum::MatrixCore::delta_split`]. The
//! search therefore issues **zero** per-trial [`Inum::cost`] calls and
//! never constructs a `PhysicalDesign` inside the loop (the suite asserts
//! both).

#![forbid(unsafe_code)]

use pgdesign_catalog::design::{HorizontalPartitioning, PhysicalDesign, VerticalPartitioning};
use pgdesign_catalog::schema::TableId;
use pgdesign_inum::{CostMatrix, Inum, JointConfig, JointToggle};
use pgdesign_query::ast::PredOp;
use pgdesign_query::Workload;
use std::collections::BTreeMap;

/// AutoPart knobs.
#[derive(Debug, Clone, Copy)]
pub struct AutoPartConfig {
    /// Extra bytes allowed for column replication across fragments — one
    /// shared pool for the whole search, drawn down by every table's
    /// accepted replication (not a per-table allowance).
    pub replication_budget_bytes: u64,
    /// Maximum greedy merge iterations per table. `0` disables the
    /// vertical search entirely (a valid no-op recommendation).
    pub max_iterations: usize,
    /// Number of horizontal partitions to propose. Values below 2 cannot
    /// describe a split, so they disable the horizontal pass (no-op)
    /// rather than being silently rounded up.
    pub horizontal_partitions: usize,
    /// Whether to attempt horizontal partitioning at all.
    pub consider_horizontal: bool,
}

impl Default for AutoPartConfig {
    fn default() -> Self {
        AutoPartConfig {
            replication_budget_bytes: 0,
            max_iterations: 64,
            horizontal_partitions: 16,
            consider_horizontal: true,
        }
    }
}

/// A finished partitioning recommendation.
#[derive(Debug, Clone)]
pub struct PartitionRecommendation {
    /// The recommended design (vertical + horizontal partitionings only).
    pub design: PhysicalDesign,
    /// Workload cost under the unpartitioned schema.
    pub base_cost: f64,
    /// Workload cost under the recommendation.
    pub cost: f64,
    /// Per-query `(base, partitioned)` costs.
    pub per_query: Vec<(f64, f64)>,
    /// Greedy merge iterations performed.
    pub iterations: usize,
    /// Bytes of replicated storage the recommendation uses.
    pub replication_bytes: u64,
}

impl PartitionRecommendation {
    /// Average workload benefit as a *signed* fraction of base cost:
    /// negative when the recommendation costs more than the unpartitioned
    /// base. Clamping the value to zero here would silently mask a cost
    /// regression from callers; a degenerate (non-positive) base cost
    /// yields 0.0 since no meaningful fraction exists.
    pub fn average_benefit(&self) -> f64 {
        if self.base_cost <= 0.0 {
            return 0.0;
        }
        (self.base_cost - self.cost) / self.base_cost
    }
}

/// The AutoPart advisor.
pub struct AutoPartAdvisor<'a> {
    inum: &'a Inum<'a>,
    config: AutoPartConfig,
}

impl<'a> AutoPartAdvisor<'a> {
    /// New advisor over an INUM instance.
    pub fn new(inum: &'a Inum<'a>, config: AutoPartConfig) -> Self {
        AutoPartAdvisor { inum, config }
    }

    /// Compute atomic fragments for a table: columns grouped by identical
    /// accessing-query sets. Unaccessed columns form one residual group.
    pub fn atomic_fragments(&self, workload: &Workload, table: TableId) -> Vec<Vec<u16>> {
        let catalog = self.inum.catalog();
        let width = catalog.schema.table(table).width();
        // Per-column access signature over (query, slot) pairs.
        let mut signatures: Vec<Vec<bool>> = vec![Vec::new(); width as usize];
        for (q, _) in workload.iter() {
            for slot in 0..q.slot_count() {
                if q.table_of(slot) != table {
                    continue;
                }
                let used = if q.select_star {
                    (0..width).collect()
                } else {
                    q.columns_used(slot)
                };
                for c in 0..width {
                    signatures[c as usize].push(used.contains(&c));
                }
            }
        }
        let mut groups: BTreeMap<Vec<bool>, Vec<u16>> = BTreeMap::new();
        for (c, sig) in signatures.into_iter().enumerate() {
            groups.entry(sig).or_default().push(c as u16);
        }
        groups.into_values().collect()
    }

    /// Run the greedy composite-fragment search for one table, entirely on
    /// matrix deltas: every merge/replication trial is a [`JointToggle`]
    /// evaluation against the current configuration. `cfg` is edited in
    /// place (the table's fragments stay selected only if the final
    /// partitioning beats leaving the table whole). `replication_left` is
    /// the *shared* replication budget: trials are checked against it and
    /// an accepted partitioning's replicated bytes are deducted, so the
    /// tables of one search draw from a single pool rather than each
    /// getting the full budget. Returns the merge steps taken.
    fn partition_table_on(
        &self,
        matrix: &mut CostMatrix<'_>,
        cfg: &mut JointConfig,
        table: TableId,
        workload: &Workload,
        replication_left: &mut u64,
    ) -> usize {
        if self.config.max_iterations == 0 {
            return 0; // degenerate knob: no search, valid no-op
        }
        let catalog = self.inum.catalog();
        let width = catalog.schema.table(table).width();
        let atomic = self.atomic_fragments(workload, table);
        if atomic.len() <= 1 {
            return 0;
        }

        let unpartitioned = matrix.joint_workload_cost(cfg);

        // Select the atomic fragmentation. `groups` mirrors the selected
        // fragment set as column lists (kept duplicate-free; a duplicate
        // group never changes the cost model's answer) for replication
        // budget checks.
        let group_ids: Vec<usize> = atomic
            .iter()
            .map(|g| matrix.register_fragment(table, g))
            .collect();
        let mut group_ids = group_ids;
        for &id in &group_ids {
            cfg.fragments.insert(id);
        }
        let mut groups = atomic;
        let mut current = matrix.joint_workload_cost(cfg);
        let mut iterations = 0usize;

        while iterations < self.config.max_iterations && group_ids.len() > 1 {
            // Candidate merges: all fragment pairs. (The original filters
            // to co-accessed pairs; non-co-accessed merges simply won't
            // improve the cost, so the filter is an optimization only.)
            let mut best: Option<(usize, usize, usize, f64)> = None;
            for i in 0..group_ids.len() {
                for j in (i + 1)..group_ids.len() {
                    let mut merged = groups[i].clone();
                    merged.extend(groups[j].iter().copied());
                    let mid = matrix.register_fragment(table, &merged);
                    let c = matrix.joint_workload_cost_with(
                        cfg,
                        &JointToggle::merge(group_ids[i], group_ids[j], mid),
                    );
                    if c < current - 1e-9 && best.is_none_or(|(_, _, _, bc)| c < bc) {
                        best = Some((i, j, mid, c));
                    }
                }
            }
            // Replication candidates: copy fragment i's columns into
            // fragment j, if the budget allows.
            let mut best_repl: Option<(usize, usize, usize, f64)> = None;
            if *replication_left > 0 {
                for i in 0..group_ids.len() {
                    for j in 0..group_ids.len() {
                        if i == j {
                            continue;
                        }
                        let mut extended = groups[j].clone();
                        extended.extend(groups[i].iter().copied());
                        let mut trial = groups.clone();
                        trial[j] = extended.clone();
                        let vp = VerticalPartitioning::new(table, trial);
                        if vp.replication_bytes(&catalog.schema, catalog.table_stats(table))
                            > *replication_left
                        {
                            continue;
                        }
                        let eid = matrix.register_fragment(table, &extended);
                        let c = matrix.joint_workload_cost_with(
                            cfg,
                            &JointToggle::replace(group_ids[j], eid),
                        );
                        if c < current - 1e-9 && best_repl.is_none_or(|(_, _, _, bc)| c < bc) {
                            best_repl = Some((i, j, eid, c));
                        }
                    }
                }
            }

            let take_merge = match (best, best_repl) {
                (Some((.., mc)), Some((.., rc))) => mc <= rc,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_merge {
                let (i, j, mid, c) = best.expect("checked above");
                cfg.fragments.remove(group_ids[j]);
                cfg.fragments.remove(group_ids[i]);
                groups.remove(j);
                groups.remove(i);
                group_ids.remove(j);
                group_ids.remove(i);
                if !group_ids.contains(&mid) {
                    cfg.fragments.insert(mid);
                    group_ids.push(mid);
                    groups.push(matrix.fragment_columns(mid).to_vec());
                }
                current = c;
            } else {
                let (_, j, eid, c) = best_repl.expect("checked above");
                cfg.fragments.remove(group_ids[j]);
                groups.remove(j);
                group_ids.remove(j);
                if !group_ids.contains(&eid) {
                    cfg.fragments.insert(eid);
                    group_ids.push(eid);
                    groups.push(matrix.fragment_columns(eid).to_vec());
                }
                current = c;
            }
            iterations += 1;
        }

        if current < unpartitioned - 1e-9 {
            let vp = VerticalPartitioning::new(table, groups);
            debug_assert!(vp.is_complete(width));
            // Deduct the accepted partitioning's replicated bytes from the
            // shared pool so later tables cannot overspend it.
            *replication_left = replication_left
                .saturating_sub(vp.replication_bytes(&catalog.schema, catalog.table_stats(table)));
        } else {
            // Not worth it: leave the table whole.
            for &id in &group_ids {
                cfg.fragments.remove(id);
            }
        }
        iterations
    }

    /// Propose a horizontal range partitioning for a table; returns the
    /// registered split-candidate id if it pays under the current
    /// configuration.
    fn horizontal_for_table_on(
        &self,
        matrix: &mut CostMatrix<'_>,
        cfg: &JointConfig,
        table: TableId,
        workload: &Workload,
    ) -> Option<usize> {
        let n = self.config.horizontal_partitions;
        if n < 2 {
            return None; // degenerate knob: <2 partitions is no split
        }
        let catalog = self.inum.catalog();
        // Most-restricted sargable column.
        let mut restriction_count: BTreeMap<u16, usize> = BTreeMap::new();
        for (q, _) in workload.iter() {
            for slot in 0..q.slot_count() {
                if q.table_of(slot) != table {
                    continue;
                }
                for f in q.filters_on(slot) {
                    let counts = matches!(f.op, PredOp::Between(_, _))
                        || matches!(f.op, PredOp::Cmp(op, _) if op != pgdesign_query::ast::CmpOp::Ne);
                    if counts {
                        *restriction_count.entry(f.col.column).or_default() += 1;
                    }
                }
            }
        }
        let (&col, &hits) = restriction_count.iter().max_by_key(|(_, &n)| n)?;
        if hits < 2 {
            return None;
        }
        let stats = catalog.table_stats(table).column(col);
        let bounds: Vec<f64> = match &stats.histogram {
            Some(h) => {
                let b = h.bounds();
                (1..n).map(|i| b[(i * (b.len() - 1)) / n]).collect()
            }
            None => (1..n)
                .map(|i| stats.min + (stats.max - stats.min) * i as f64 / n as f64)
                .collect(),
        };
        let hp = HorizontalPartitioning::new(table, col, bounds);
        if hp.partitions() < 2 {
            return None;
        }
        let sid = matrix.register_split(hp);
        (matrix.delta_split(cfg, sid) < -1e-9).then_some(sid)
    }

    /// Run the full greedy search (vertical merge passes, then the
    /// horizontal pass) on an existing partition-aware matrix, editing
    /// `cfg` in place. This is also the joint-mode entry: with candidate
    /// indexes pre-selected in `cfg.indexes`, every trial sees the index
    /// configuration it must coexist with. Returns the merge iterations
    /// performed.
    pub fn search_on(&self, matrix: &mut CostMatrix<'_>, cfg: &mut JointConfig) -> usize {
        // The matrix owns its queries, so snapshot the *active* ones for
        // the candidate analyses below while the search mutates the matrix
        // (a long-lived session matrix may hold retired slots whose stale
        // queries must not steer the fragmentation).
        let workload = matrix.active_workload();
        let workload = &workload;
        let tables: Vec<TableId> = self.inum.catalog().schema.tables().map(|t| t.id).collect();
        let mut iterations = 0usize;
        // One replication pool for the whole search: every table's accepted
        // replication draws it down.
        let mut replication_left = self.config.replication_budget_bytes;
        for &t in &tables {
            iterations += self.partition_table_on(matrix, cfg, t, workload, &mut replication_left);
        }
        if self.config.consider_horizontal {
            for &t in &tables {
                if let Some(sid) = self.horizontal_for_table_on(matrix, cfg, t, workload) {
                    cfg.splits.insert(sid);
                }
            }
        }
        iterations
    }

    /// Produce the full partitioning recommendation. The search and all
    /// reported costs run on the partition-aware cost matrix; no
    /// [`Inum::cost`] call is issued anywhere in this method. (Builds a
    /// private matrix; see [`Self::recommend_on`] for the session entry.)
    pub fn recommend(&self, workload: &Workload) -> PartitionRecommendation {
        let mut matrix = CostMatrix::build(self.inum, workload, &[]);
        self.recommend_on(&mut matrix)
    }

    /// [`Self::recommend`] against an *existing* matrix — the
    /// session-scoped entry point. The search runs over the matrix's
    /// active queries with no index selected (partitions alone); fragments
    /// and splits it registers stay resident, so later joint costings on
    /// the same session are pure lookups.
    pub fn recommend_on(&self, matrix: &mut CostMatrix<'_>) -> PartitionRecommendation {
        let catalog = self.inum.catalog();
        let empty = matrix.empty_joint();
        let base_cost = matrix.joint_workload_cost(&empty);

        let mut cfg = matrix.empty_joint();
        let iterations = self.search_on(matrix, &mut cfg);

        let mut cost = matrix.joint_workload_cost(&cfg);
        if cost > base_cost {
            // Guard: the greedy accepts only improving steps per table, but
            // never hand back a design costlier than the unpartitioned base.
            cfg = matrix.empty_joint();
            cost = base_cost;
        }
        let design = matrix.joint_design_of(&cfg);
        let per_query = matrix
            .active_query_ids()
            .map(|qi| (matrix.joint_cost(qi, &empty), matrix.joint_cost(qi, &cfg)))
            .collect();
        let replication_bytes = design.replication_bytes(&catalog.schema, &catalog.stats);
        // Session-scoped entry: the fragments/splits this search
        // registered become visible to concurrent snapshot readers.
        matrix.publish();
        PartitionRecommendation {
            design,
            base_cost,
            cost,
            per_query,
            iterations,
            replication_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_catalog::Catalog;
    use pgdesign_optimizer::Optimizer;
    use pgdesign_query::generators::sdss_workload;
    use pgdesign_query::parse_query;

    fn narrow_workload(c: &Catalog) -> Workload {
        // Queries touching only a thin column slice of photoobj: vertical
        // partitioning should pay off clearly.
        let sqls = [
            "SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 100 AND 140",
            "SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 60",
            "SELECT objid, ra FROM photoobj WHERE dec > 40",
            "SELECT ra, dec FROM photoobj WHERE ra < 50",
        ];
        Workload::from_queries(sqls.iter().map(|s| parse_query(&c.schema, s).unwrap()))
    }

    #[test]
    fn atomic_fragments_partition_all_columns() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let advisor = AutoPartAdvisor::new(&inum, AutoPartConfig::default());
        let w = narrow_workload(&c);
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        let frags = advisor.atomic_fragments(&w, photo);
        let mut all: Vec<u16> = frags.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..16).collect::<Vec<u16>>());
        // {objid}, {ra}, {dec} are accessed differently → ≥ 3 groups.
        assert!(frags.len() >= 3, "{frags:?}");
    }

    #[test]
    fn narrow_workload_gets_partitioned_with_benefit() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let advisor = AutoPartAdvisor::new(&inum, AutoPartConfig::default());
        let w = narrow_workload(&c);
        let rec = advisor.recommend(&w);
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        assert!(
            rec.design.vertical(photo).is_some(),
            "photoobj should split"
        );
        assert!(rec.cost < rec.base_cost);
        assert!(
            rec.average_benefit() > 0.3,
            "thin slice of a wide table: {}",
            rec.average_benefit()
        );
        let vp = rec.design.vertical(photo).unwrap();
        assert!(vp.is_complete(16));
    }

    #[test]
    fn select_star_workload_stays_unpartitioned() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let advisor = AutoPartAdvisor::new(&inum, AutoPartConfig::default());
        let w = Workload::from_queries([
            parse_query(&c.schema, "SELECT * FROM photoobj WHERE type = 3").unwrap(),
            parse_query(&c.schema, "SELECT * FROM photoobj WHERE run = 5").unwrap(),
        ]);
        let rec = advisor.recommend(&w);
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        // SELECT * touches everything: splitting can only add stitch cost.
        assert!(rec.design.vertical(photo).is_none());
    }

    #[test]
    fn horizontal_partitioning_proposed_for_range_heavy_workload() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let advisor = AutoPartAdvisor::new(&inum, AutoPartConfig::default());
        let w = narrow_workload(&c);
        let rec = advisor.recommend(&w);
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        // ra is repeatedly range-restricted: horizontal partitioning on ra
        // should survive the benefit test.
        let hp = rec.design.horizontal(photo);
        assert!(hp.is_some());
        assert_eq!(hp.unwrap().column, 1, "partition on ra");
    }

    #[test]
    fn replication_budget_is_respected() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let budget = 4 * 1024 * 1024;
        let advisor = AutoPartAdvisor::new(
            &inum,
            AutoPartConfig {
                replication_budget_bytes: budget,
                ..Default::default()
            },
        );
        // objid is co-accessed with both {ra,dec} and {r}: replicating it
        // may help.
        let w = Workload::from_queries([
            parse_query(
                &c.schema,
                "SELECT objid, ra, dec FROM photoobj WHERE ra < 100",
            )
            .unwrap(),
            parse_query(&c.schema, "SELECT objid, r FROM photoobj WHERE r < 15").unwrap(),
        ]);
        let rec = advisor.recommend(&w);
        assert!(rec.replication_bytes <= budget);
    }

    #[test]
    fn recommendation_never_regresses() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let advisor = AutoPartAdvisor::new(&inum, AutoPartConfig::default());
        let w = sdss_workload(&c, 18, 33);
        let rec = advisor.recommend(&w);
        assert!(
            rec.cost <= rec.base_cost + 1e-6,
            "{} vs {}",
            rec.cost,
            rec.base_cost
        );
        for (base, tuned) in &rec.per_query {
            assert!(base.is_finite() && tuned.is_finite());
        }
    }

    #[test]
    fn greedy_search_issues_zero_per_trial_inum_cost_calls() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let advisor = AutoPartAdvisor::new(&inum, AutoPartConfig::default());
        let w = narrow_workload(&c);
        let calls_before = inum.stats().cost_calls;
        let lookups_before = inum.matrix_stats().partition_lookups;
        let rec = advisor.recommend(&w);
        assert!(
            rec.design.verticals().next().is_some(),
            "search must actually run (and partition something) for this check to mean anything"
        );
        assert_eq!(
            inum.stats().cost_calls,
            calls_before,
            "every trial must be a matrix delta, not an Inum::cost call"
        );
        assert!(
            inum.matrix_stats().partition_lookups > lookups_before,
            "trials must register as partition-aware matrix lookups"
        );
    }

    #[test]
    fn average_benefit_is_signed_and_guards_degenerate_base() {
        let rec = |base: f64, cost: f64| PartitionRecommendation {
            design: PhysicalDesign::empty(),
            base_cost: base,
            cost,
            per_query: vec![],
            iterations: 0,
            replication_bytes: 0,
        };
        assert!((rec(100.0, 80.0).average_benefit() - 0.2).abs() < 1e-12);
        // A regression must show up negative, not be clamped to zero.
        assert!((rec(100.0, 125.0).average_benefit() - (-0.25)).abs() < 1e-12);
        // Non-positive base cost: no meaningful fraction; explicitly 0.
        assert_eq!(rec(0.0, 10.0).average_benefit(), 0.0);
        assert_eq!(rec(-5.0, 10.0).average_benefit(), 0.0);
    }

    #[test]
    fn zero_max_iterations_yields_valid_noop() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let advisor = AutoPartAdvisor::new(
            &inum,
            AutoPartConfig {
                max_iterations: 0,
                consider_horizontal: false,
                ..Default::default()
            },
        );
        let w = narrow_workload(&c);
        let rec = advisor.recommend(&w);
        assert!(
            rec.design.verticals().next().is_none(),
            "no iterations allowed: no vertical partitioning may be proposed"
        );
        assert_eq!(rec.iterations, 0);
        assert!(
            (rec.cost - rec.base_cost).abs() < 1e-9,
            "no-op recommendation must cost exactly the base: {} vs {}",
            rec.cost,
            rec.base_cost
        );
    }

    #[test]
    fn zero_horizontal_partitions_yields_valid_noop() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = narrow_workload(&c);
        for degenerate in [0usize, 1] {
            let advisor = AutoPartAdvisor::new(
                &inum,
                AutoPartConfig {
                    horizontal_partitions: degenerate,
                    ..Default::default()
                },
            );
            let rec = advisor.recommend(&w);
            assert!(
                rec.design.horizontals().next().is_none(),
                "{degenerate} horizontal partitions cannot describe a split"
            );
            // The vertical search is unaffected and still valid.
            let photo = c.schema.table_by_name("photoobj").unwrap().id;
            if let Some(vp) = rec.design.vertical(photo) {
                assert!(vp.is_complete(16));
            }
            assert!(rec.cost <= rec.base_cost + 1e-6);
        }
    }
}
