//! Interactive what-if sessions — demo scenario 1.
//!
//! "The DBA manually selects the combination of design features and the
//! tool determines the benefit of using that combination." The session is
//! a thin *view* over a [`TuningSession`]: every `add_index` /
//! `remove_index` / `set_vertical` / `set_horizontal` maps to a candidate
//! registration ([`pgdesign_inum::CostMatrix::add_candidate`] /
//! `register_fragment` / `register_split`) plus bitset toggles on a
//! [`JointConfig`], so [`InteractiveSession::evaluate`] and
//! [`InteractiveSession::interaction_graph`] are **pure matrix lookups** —
//! zero per-design [`pgdesign_inum::Inum::cost`] calls after the session's
//! warm-up build, which is what makes re-evaluation instant while the
//! user explores. Removing a structure only clears its bit: the cells
//! stay resident, so toggling it back is free. The graph is a pure
//! function of the matrix and the selected ids — per query it sweeps only
//! the selected indexes that own a cell on that query — so the session
//! keeps no analysis state between steps.

use crate::designer::Designer;
use crate::report::{push_query_row, report_buffer, TuningStats};
use crate::session::{Advisor, TuningSession};
use pgdesign_catalog::design::{
    HorizontalPartitioning, Index, PhysicalDesign, VerticalPartitioning,
};
use pgdesign_catalog::schema::TableId;
use pgdesign_durability::DurableStore;
use pgdesign_interaction::{analyze_on, InteractionConfig, InteractionGraph};
use pgdesign_inum::{ByteWriter, JointConfig, Wire};
use pgdesign_query::ast::Query;
use pgdesign_query::Workload;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// Benefit numbers for one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryBenefit {
    /// Cost under the base (empty) design.
    pub base_cost: f64,
    /// Cost under the session's what-if design.
    pub whatif_cost: f64,
}

impl QueryBenefit {
    /// Relative benefit in `[0, 1]` (negative improvements clamp to 0 —
    /// this is the per-query display number; the report-level
    /// [`BenefitReport::average_benefit`] is signed).
    pub fn benefit(&self) -> f64 {
        if self.base_cost <= 0.0 {
            return 0.0;
        }
        ((self.base_cost - self.whatif_cost) / self.base_cost).max(0.0)
    }
}

/// The full evaluation of a what-if design against the workload.
#[derive(Debug, Clone)]
pub struct BenefitReport {
    /// Total workload cost under the base design.
    pub base_cost: f64,
    /// Total workload cost under the what-if design.
    pub whatif_cost: f64,
    /// Per-query benefits, aligned with the session workload.
    pub per_query: Vec<QueryBenefit>,
    /// Bytes the hypothetical indexes would occupy if built.
    pub index_bytes: u64,
    /// Bytes of replicated storage from vertical partitionings.
    pub replication_bytes: u64,
}

impl BenefitReport {
    /// Average workload benefit as a *signed* fraction of the base cost:
    /// negative when the what-if design costs more than the base (a DBA
    /// exploring a bad combination must see the regression, not a clamped
    /// zero). A degenerate (non-positive) base cost yields 0.0 since no
    /// meaningful fraction exists.
    pub fn average_benefit(&self) -> f64 {
        if self.base_cost <= 0.0 {
            return 0.0;
        }
        (self.base_cost - self.whatif_cost) / self.base_cost
    }
}

impl fmt::Display for BenefitReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = report_buffer(self.per_query.len());
        let _ = writeln!(
            out,
            "workload cost: {:.1} -> {:.1}",
            self.base_cost, self.whatif_cost
        );
        let _ = writeln!(
            out,
            "average workload benefit: {:.1}%",
            100.0 * self.average_benefit()
        );
        let _ = writeln!(
            out,
            "hypothetical storage: {:.1} MiB indexes, {:.1} MiB replication",
            self.index_bytes as f64 / (1024.0 * 1024.0),
            self.replication_bytes as f64 / (1024.0 * 1024.0)
        );
        for (i, q) in self.per_query.iter().enumerate() {
            push_query_row(
                &mut out,
                "  ",
                i + 1,
                q.base_cost,
                q.whatif_cost,
                100.0 * q.benefit(),
            );
        }
        f.write_str(&out)
    }
}

/// A query's wire encoding: equal exactly for equal queries, and one
/// allocation where a `Query` takes several.
fn canonical(query: &Query) -> Box<[u8]> {
    let mut w = ByteWriter::new();
    query.put(&mut w);
    w.into_bytes().into_boxed_slice()
}

/// An interactive what-if session: a [`TuningSession`] view whose design
/// edits are bitset toggles and whose evaluations are matrix lookups.
pub struct InteractiveSession<'a> {
    session: TuningSession<'a>,
    /// The what-if design as a joint configuration over the session matrix.
    cfg: JointConfig,
    /// Fragment ids currently selected per vertically-partitioned table.
    vertical_of: HashMap<TableId, Vec<usize>>,
    /// Split id currently selected per horizontally-partitioned table.
    horizontal_of: HashMap<TableId, usize>,
    /// Empty-design base cost per query slot, computed once at session
    /// start — base costs are design-independent, so no evaluation
    /// recomputes them. Keyed by slot id, stored with the wire encoding of
    /// the query it was computed for, and gated on the matrix's rotation
    /// generation: slot ids are recycled after `retire_query`, so a query
    /// rotated in through the [`TuningSession`] escape hatch must not
    /// inherit the retired occupant's cached cost — not even one whose
    /// cell-identity key ([`pgdesign_inum::query_cell_key`]) is the same.
    /// While the generation is unchanged (the common case — nothing
    /// rotates in an interactive session) the queries are not even
    /// compared.
    base_costs: HashMap<usize, (Box<[u8]>, f64)>,
    /// Matrix rotation generation the cache was captured at.
    base_generation: u64,
}

impl<'a> InteractiveSession<'a> {
    /// Start a view over `session` (in memory from [`Designer::session`],
    /// durable from [`Self::open_or_create_on`]). The catalog's base
    /// design (if any) is registered and selected as the starting
    /// configuration.
    pub(crate) fn new(session: TuningSession<'a>) -> Self {
        let matrix = session.matrix();
        let cfg = matrix.empty_joint();
        let empty = matrix.empty_joint();
        let base_costs = matrix
            .active_query_ids()
            .map(|qi| {
                let query = canonical(matrix.workload().query(qi));
                (qi, (query, matrix.joint_cost(qi, &empty)))
            })
            .collect();
        let base_generation = matrix.rotation_generation();
        let mut s = InteractiveSession {
            session,
            cfg,
            vertical_of: HashMap::new(),
            horizontal_of: HashMap::new(),
            base_costs,
            base_generation,
        };
        s.select_base_design();
        s
    }

    /// Start an interactive session over a *durable* [`TuningSession`] on
    /// `store` (an `FsStore` over a state directory, or a test
    /// `MemStore`): a reopened session finds the previous run's cells
    /// resident — the warm-up builds nothing for recurring queries — and
    /// every published exploration step is journaled for the next open.
    /// See [`TuningSession::open_or_create_on`] for the recovery contract.
    pub fn open_or_create_on(
        designer: &'a Designer,
        workload: Workload,
        store: Box<dyn DurableStore>,
    ) -> std::io::Result<Self> {
        TuningSession::open_or_create_on(designer, workload, store).map(Self::new)
    }

    /// Register and select the catalog's base design.
    fn select_base_design(&mut self) {
        let base = self.session.designer().catalog.base_design.clone();
        for idx in base.indexes() {
            let id = self.session.matrix_mut().add_candidate(idx);
            self.cfg.indexes.insert(id);
        }
        for vp in base.verticals() {
            self.set_vertical(vp.clone());
        }
        for hp in base.horizontals() {
            self.set_horizontal(hp.clone());
        }
    }

    /// The session's current hypothetical design (derived from the
    /// configuration; per table, the selected fragments *are* the
    /// vertical partitioning).
    pub fn design(&self) -> PhysicalDesign {
        self.session.matrix().joint_design_of(&self.cfg)
    }

    /// The session workload.
    pub fn workload(&self) -> &Workload {
        self.session.workload()
    }

    /// The underlying tuning session (shared-matrix access, e.g. for
    /// running an advisor against the same warm cells).
    pub fn tuning_session(&mut self) -> &mut TuningSession<'a> {
        &mut self.session
    }

    /// Run an advisor against the session's matrix — the DBA asking the
    /// automatic half of the tool for a suggestion without leaving the
    /// interactive session (everything explored so far stays warm).
    pub fn advise<A: Advisor + ?Sized>(&mut self, advisor: &mut A) -> A::Report {
        self.session.advise(advisor)
    }

    /// INUM / cost-matrix counters of the session.
    pub fn tuning_stats(&self) -> TuningStats {
        self.session.stats()
    }

    /// A concurrent reader over the latest published snapshot of the
    /// session matrix (see [`TuningSession::reader`]): what-if lookups
    /// from other threads while this view keeps exploring.
    pub fn reader(&self) -> crate::session::SessionReader {
        self.session.reader()
    }

    /// Publish the current matrix state for concurrent readers (see
    /// [`TuningSession::publish`]); returns the new generation.
    pub fn publish(&mut self) -> u64 {
        self.session.publish()
    }

    /// Add a what-if index; returns false if it was already present.
    /// Registers the candidate on the session matrix (its cells are
    /// computed once; re-adding a previously removed index is free) and
    /// sets its bit.
    pub fn add_index(&mut self, index: Index) -> bool {
        let id = self.session.matrix_mut().add_candidate(&index);
        if self.cfg.indexes.contains(id) {
            return false;
        }
        self.cfg.indexes.insert(id);
        true
    }

    /// Add a what-if index from column *names*, the way a DBA would type
    /// it. Errors on unknown names.
    pub fn add_index_by_name(&mut self, table: &str, columns: &[&str]) -> Result<bool, String> {
        let schema = &self.session.designer().catalog.schema;
        let t = schema
            .table_by_name(table)
            .ok_or_else(|| format!("unknown table {table:?}"))?;
        let cols: Result<Vec<u16>, String> = columns
            .iter()
            .map(|c| {
                t.column_by_name(c)
                    .ok_or_else(|| format!("unknown column {table}.{c}"))
            })
            .collect();
        Ok(self.add_index(Index::new(t.id, cols?)))
    }

    /// Remove a what-if index (clears its bit; the candidate's cells stay
    /// resident so re-adding it later is free). Returns false if it was
    /// not selected.
    pub fn remove_index(&mut self, index: &Index) -> bool {
        match self.session.matrix().candidate_id(index) {
            Some(id) if self.cfg.indexes.contains(id) => {
                self.cfg.indexes.remove(id);
                true
            }
            _ => false,
        }
    }

    /// Install a what-if vertical partitioning (replacing any previous
    /// partitioning of the same table): each column group is registered as
    /// a fragment candidate and selected. The columns no group names form
    /// one more group, so every column stays stored somewhere and a query
    /// reading them pays for their pages. Returns the number of fragments
    /// installed.
    pub fn set_vertical(&mut self, vp: VerticalPartitioning) -> usize {
        self.clear_vertical(vp.table);
        let width = self
            .session
            .designer()
            .catalog
            .schema
            .table(vp.table)
            .width();
        let rest: Vec<u16> = (0..width)
            .filter(|c| !vp.groups.iter().any(|g| g.contains(c)))
            .collect();
        let groups = vp.groups.iter().chain((!rest.is_empty()).then_some(&rest));
        let ids: Vec<usize> = groups
            .map(|group| {
                let id = self.session.matrix_mut().register_fragment(vp.table, group);
                self.cfg.fragments.insert(id);
                id
            })
            .collect();
        let installed = ids.len();
        self.vertical_of.insert(vp.table, ids);
        installed
    }

    /// Remove the what-if vertical partitioning of a table, if any.
    pub fn clear_vertical(&mut self, table: TableId) {
        if let Some(ids) = self.vertical_of.remove(&table) {
            for id in ids {
                self.cfg.fragments.remove(id);
            }
        }
    }

    /// Install a what-if horizontal partitioning (replacing any previous
    /// split of the same table).
    pub fn set_horizontal(&mut self, hp: HorizontalPartitioning) {
        self.clear_horizontal(hp.table);
        let table = hp.table;
        let id = self.session.matrix_mut().register_split(hp);
        self.cfg.splits.insert(id);
        self.horizontal_of.insert(table, id);
    }

    /// Remove the what-if horizontal partitioning of a table, if any.
    pub fn clear_horizontal(&mut self, table: TableId) {
        if let Some(id) = self.horizontal_of.remove(&table) {
            self.cfg.splits.remove(id);
        }
    }

    /// Reset to the catalog's base design (bitset clears only — every
    /// explored structure's cells stay resident for instant re-adding).
    pub fn reset(&mut self) {
        self.cfg.indexes.clear();
        self.cfg.fragments.clear();
        self.cfg.splits.clear();
        self.vertical_of.clear();
        self.horizontal_of.clear();
        self.select_base_design();
    }

    /// Evaluate the current what-if design against the workload — pure
    /// matrix lookups (base costs were computed once at session start; the
    /// what-if side is one lookup per query against the design resolved
    /// once, [`pgdesign_inum::MatrixCore::resolve_joint`]).
    pub fn evaluate(&self) -> BenefitReport {
        let matrix = self.session.matrix();
        let empty = matrix.empty_joint();
        let whatif = matrix.resolve_joint(&self.cfg);
        // Unchanged generation ⇒ every slot id still denotes the query it
        // was cached for, so the hot path is a plain map hit. After a
        // rotation through the session escape hatch, cached entries are
        // revalidated against the slot's query (a recycled slot id must
        // not inherit the retired occupant's cost) and misses cost one
        // extra lookup.
        let rotated = matrix.rotation_generation() != self.base_generation;
        let per_query: Vec<QueryBenefit> = matrix
            .active_query_ids()
            .map(|qi| {
                let base_cost = match self.base_costs.get(&qi) {
                    Some(&(_, cost)) if !rotated => cost,
                    Some((query, cost)) if *query == canonical(matrix.workload().query(qi)) => {
                        *cost
                    }
                    _ => matrix.joint_cost(qi, &empty),
                };
                QueryBenefit {
                    base_cost,
                    whatif_cost: matrix.joint_cost_resolved(qi, &whatif),
                }
            })
            .collect();
        let weights: Vec<f64> = matrix
            .active_query_ids()
            .map(|qi| matrix.query_weight(qi))
            .collect();
        let base_cost = weights
            .iter()
            .zip(&per_query)
            .map(|(w, b)| w * b.base_cost)
            .sum();
        let whatif_cost = weights
            .iter()
            .zip(&per_query)
            .map(|(w, b)| w * b.whatif_cost)
            .sum();
        let catalog = &self.session.designer().catalog;
        let design = self.design();
        BenefitReport {
            base_cost,
            whatif_cost,
            per_query,
            index_bytes: design.index_bytes(&catalog.schema, &catalog.stats),
            replication_bytes: design.replication_bytes(&catalog.schema, &catalog.stats),
        }
    }

    /// The interaction graph over the session's what-if indexes (Fig 2),
    /// recomputed from the session matrix's resident cells on every call:
    /// each query sweeps only the selected indexes with a cell on it
    /// (`Σ_q 2^r_q` lookups, see [`pgdesign_interaction`]), so the graph
    /// follows a toggle at lookup speed and there is nothing to
    /// invalidate.
    pub fn interaction_graph(&self) -> InteractionGraph {
        let ids: Vec<usize> = self.cfg.indexes.ids().collect();
        let analysis = analyze_on(self.session.matrix(), &ids, &InteractionConfig::default());
        analysis.graph()
    }

    /// EXPLAIN one workload query under the what-if design.
    /// `query_index` is positional over the *active* queries (the same
    /// numbering [`Self::evaluate`]'s per-query rows use).
    pub fn explain(&self, query_index: usize) -> String {
        let matrix = self.session.matrix();
        let qid = matrix
            .active_query_ids()
            .nth(query_index)
            .expect("query_index within the active workload");
        let q = matrix.workload().query(qid);
        self.session.designer().explain(&self.design(), q)
    }

    /// "Save the rewritten queries for the new table partitions": a report
    /// of which fragments each query reads under the session's vertical
    /// partitionings.
    pub fn fragment_report(&self) -> String {
        let schema = &self.session.designer().catalog.schema;
        let design = self.design();
        let mut out = String::new();
        let matrix = self.session.matrix();
        // Active queries only, numbered like evaluate()'s per-query rows
        // (the workload mirror may hold stale retired slots).
        for (qi, qid) in matrix.active_query_ids().enumerate() {
            let q = matrix.workload().query(qid);
            for slot in 0..q.slot_count() {
                let table = q.table_of(slot);
                let Some(vp) = design.vertical(table) else {
                    continue;
                };
                let tdef = schema.table(table);
                let needed = if q.select_star {
                    (0..tdef.width()).collect()
                } else {
                    q.columns_used(slot)
                };
                let frags = vp.fragments_for(&needed);
                let _ = writeln!(
                    out,
                    "Q{} reads {} fragment(s) of {}: {}",
                    qi + 1,
                    frags.len(),
                    tdef.name,
                    frags
                        .iter()
                        .map(|&fi| {
                            let cols: Vec<&str> = vp.groups[fi]
                                .iter()
                                .map(|&c| tdef.column(c).name.as_str())
                                .collect();
                            format!("({})", cols.join(", "))
                        })
                        .collect::<Vec<_>>()
                        .join(" + ")
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_catalog::schema::TableId;
    use pgdesign_inum::query_cell_key;
    use pgdesign_query::parse_query;

    fn setup() -> (Designer, Workload) {
        let d = Designer::new(sdss_catalog(0.01));
        let sqls = [
            "SELECT ra, dec FROM photoobj WHERE objid = 77",
            "SELECT objid FROM photoobj WHERE type = 3 AND r < 15",
            "SELECT ra FROM photoobj WHERE ra BETWEEN 100 AND 110",
        ];
        let w = Workload::from_queries(
            sqls.iter()
                .map(|s| parse_query(&d.catalog.schema, s).unwrap()),
        );
        (d, w)
    }

    #[test]
    fn whatif_indexes_show_benefit_without_materialization() {
        let (d, w) = setup();
        let mut s = d.session(w);
        let before = s.evaluate();
        assert_eq!(before.average_benefit(), 0.0);
        assert!(s.add_index_by_name("photoobj", &["objid"]).unwrap());
        let after = s.evaluate();
        assert!(after.average_benefit() > 0.0);
        assert!(
            after.per_query[0].benefit() > 0.9,
            "point query: {:?}",
            after.per_query[0]
        );
        assert!(after.index_bytes > 0, "sizes are real, not zero");
    }

    #[test]
    fn evaluate_issues_zero_inum_cost_calls_after_warmup() {
        // The acceptance pin for the TuningSession redesign: once the
        // session is warm, every evaluation — through arbitrary index and
        // partition toggles, including the interaction graph — is pure
        // matrix lookups.
        let (d, w) = setup();
        let mut s = d.session(w);
        let calls = s.tuning_stats().inum.cost_calls;
        let lookups_before = s.tuning_stats().matrix.lookups;
        s.evaluate();
        s.add_index_by_name("photoobj", &["objid"]).unwrap();
        s.add_index_by_name("photoobj", &["type", "r"]).unwrap();
        s.evaluate();
        s.remove_index(&Index::new(TableId(0), vec![0]));
        s.evaluate();
        s.set_vertical(VerticalPartitioning::new(
            TableId(0),
            vec![vec![0, 1, 2], (3..16).collect()],
        ));
        s.evaluate();
        s.interaction_graph();
        assert_eq!(
            s.tuning_stats().inum.cost_calls,
            calls,
            "interactive evaluation must never fall back to per-design Inum::cost"
        );
        assert!(
            s.tuning_stats().matrix.lookups > lookups_before,
            "evaluations must register as matrix lookups"
        );
    }

    #[test]
    fn base_costs_are_computed_once_per_session() {
        let (d, w) = setup();
        let mut s = d.session(w);
        let first = s.evaluate();
        s.add_index_by_name("photoobj", &["objid"]).unwrap();
        // Lookups per evaluate: one per query for the what-if side only —
        // the base side is served from the session-start cache.
        let lookups_before = s.tuning_stats().matrix.lookups;
        let second = s.evaluate();
        let per_eval = s.tuning_stats().matrix.lookups - lookups_before;
        assert_eq!(
            per_eval as usize,
            s.workload().len(),
            "evaluate must look up only the what-if side, not re-derive base costs"
        );
        for (a, b) in first.per_query.iter().zip(&second.per_query) {
            assert_eq!(
                a.base_cost, b.base_cost,
                "base costs are design-independent"
            );
        }
    }

    #[test]
    fn a_recycled_slot_holding_another_query_under_the_same_key_is_recosted() {
        let (d, w) = setup();
        let mut s = d.session(w);
        let parse = |sql| parse_query(&d.catalog.schema, sql).unwrap();
        // Equal up to an alias: the cell-identity key does not hash
        // aliases, so the two share a key but are different queries.
        let retired = parse("SELECT ra FROM photoobj WHERE ra BETWEEN 100 AND 110");
        let rotated_in = parse("SELECT p.ra FROM photoobj p WHERE p.ra BETWEEN 100 AND 110");
        assert_eq!(query_cell_key(&retired), query_cell_key(&rotated_in));
        assert_ne!(retired, rotated_in);
        assert_eq!(s.workload().query(2), &retired);

        let matrix = s.tuning_session().matrix_mut();
        matrix.retire_query(2);
        assert_eq!(
            matrix.add_queries([(&rotated_in, 1.0)])[0],
            2,
            "the slot is recycled"
        );
        let fresh = matrix.joint_cost(2, &matrix.empty_joint());
        // Mark the retired occupant's cached cost, so serving it shows.
        s.base_costs.get_mut(&2).expect("cached at session start").1 = -1.0;
        let lookups = s.tuning_stats().matrix.lookups;
        let report = s.evaluate();
        assert_eq!(report.per_query[2].base_cost.to_bits(), fresh.to_bits());
        assert_eq!(
            s.tuning_stats().matrix.lookups - lookups,
            4,
            "three what-if lookups and one re-costed base"
        );
    }

    #[test]
    fn removed_structures_reevaluate_instantly() {
        let (d, w) = setup();
        let mut s = d.session(w);
        s.add_index_by_name("photoobj", &["objid"]).unwrap();
        let with_index = s.evaluate();
        let photo = TableId(0);
        assert!(s.remove_index(&Index::new(photo, vec![0])));
        let without = s.evaluate();
        assert!(without.whatif_cost > with_index.whatif_cost);
        // Re-adding hits the resident cells: zero new cells, reuse counted.
        let cells_before = s.tuning_stats().matrix.cells;
        let reused_before = s.tuning_stats().matrix.cells_reused;
        assert!(s.add_index_by_name("photoobj", &["objid"]).unwrap());
        assert_eq!(s.tuning_stats().matrix.cells, cells_before);
        assert!(s.tuning_stats().matrix.cells_reused > reused_before);
        let again = s.evaluate();
        assert_eq!(again.whatif_cost, with_index.whatif_cost);
    }

    #[test]
    fn add_index_by_name_errors_on_unknown() {
        let (d, w) = setup();
        let mut s = d.session(w);
        assert!(s.add_index_by_name("nope", &["x"]).is_err());
        assert!(s.add_index_by_name("photoobj", &["nope"]).is_err());
    }

    #[test]
    fn reset_restores_base_design() {
        let (d, w) = setup();
        let mut s = d.session(w);
        s.add_index_by_name("photoobj", &["objid"]).unwrap();
        assert_eq!(s.design().index_count(), 1);
        s.reset();
        assert_eq!(s.design().index_count(), 0);
    }

    #[test]
    fn interaction_graph_over_session_indexes() {
        let (d, w) = setup();
        let mut s = d.session(w);
        s.add_index_by_name("photoobj", &["type", "r"]).unwrap();
        s.add_index_by_name("photoobj", &["r", "type"]).unwrap();
        let g = s.interaction_graph();
        assert_eq!(g.indexes.len(), 2);
        assert!(g.edge_count() >= 1, "competing indexes should interact");
    }

    #[test]
    fn fragment_report_lists_partitions() {
        let (d, w) = setup();
        let mut s = d.session(w);
        let photo = TableId(0);
        s.set_vertical(VerticalPartitioning::new(
            photo,
            vec![vec![0, 1, 2], (3..16).collect()],
        ));
        let report = s.fragment_report();
        assert!(
            report.contains("Q1 reads 1 fragment(s) of photoobj"),
            "{report}"
        );
        assert!(report.contains("objid"));
    }

    #[test]
    fn partial_vertical_partitioning_stores_the_rest_as_one_fragment() {
        let (d, w) = setup();
        let photo = TableId(0);
        let mut partial = d.session(w.clone());
        let installed = partial.set_vertical(VerticalPartitioning::new(photo, vec![vec![0]]));
        assert_eq!(installed, 2, "objid plus the other fifteen columns");
        let mut full = d.session(w);
        let spelled_out = VerticalPartitioning::new(photo, vec![vec![0], (1..16).collect()]);
        assert_eq!(full.set_vertical(spelled_out), 2);
        assert_eq!(partial.evaluate().to_string(), full.evaluate().to_string());
        assert_eq!(partial.fragment_report(), full.fragment_report());
        // Q1 reads ra and dec, which only the completing fragment holds.
        let report = partial.fragment_report();
        assert!(report.contains("Q1 reads 2 fragment(s)"), "{report}");
    }

    #[test]
    fn set_vertical_replaces_previous_partitioning() {
        let (d, w) = setup();
        let mut s = d.session(w);
        let photo = TableId(0);
        s.set_vertical(VerticalPartitioning::new(
            photo,
            vec![vec![0, 1], (2..16).collect()],
        ));
        s.set_vertical(VerticalPartitioning::new(
            photo,
            vec![vec![0, 1, 2], (3..16).collect()],
        ));
        let vp = s.design();
        let vp = vp.vertical(photo).expect("partitioned");
        assert_eq!(vp.groups.len(), 2, "{:?}", vp.groups);
        assert!(vp.is_complete(16));
        s.clear_vertical(photo);
        assert!(s.design().vertical(photo).is_none());
    }

    #[test]
    fn explain_uses_whatif_design() {
        let (d, w) = setup();
        let mut s = d.session(w);
        assert!(s.explain(0).contains("Seq Scan"));
        s.add_index_by_name("photoobj", &["objid"]).unwrap();
        assert!(s.explain(0).contains("Index"), "{}", s.explain(0));
    }

    #[test]
    fn report_display_is_readable() {
        let (d, w) = setup();
        let mut s = d.session(w);
        s.add_index_by_name("photoobj", &["objid"]).unwrap();
        let text = s.evaluate().to_string();
        assert!(text.contains("average workload benefit"));
        assert!(text.contains("Q1"));
    }
}
