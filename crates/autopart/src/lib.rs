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
//! of the greedy loop is a [`JointToggle`] evaluation against a
//! configuration resolved once for it
//! ([`pgdesign_inum::MatrixCore::resolve_joint`]), and the horizontal pass
//! is a [`pgdesign_inum::MatrixCore::delta_split`]. The search therefore
//! issues **zero** per-trial [`Inum::cost`] calls and never constructs a
//! `PhysicalDesign` inside the loop (the suite asserts both).
//!
//! ## What a trial costs
//!
//! A trial toggles two fragments of one table, and a query's cost depends
//! on a table's fragmentation only through the selected fragments that
//! meet the columns its slots read there
//! ([`pgdesign_inum::MatrixCore::columns_read`]). So the search keeps each
//! active query's weighted cost under the current configuration, and a
//! trial re-costs only the queries with a slot on the table that reads a
//! column of a toggled fragment or reads no column at all. A trial keeps
//! those values across iterations: after an accepted step, a surviving
//! trial re-costs only the queries that step touched, when it is next
//! read. Each configuration a trial costs is resolved once for all its
//! queries. Every trial total is still the sum over all active queries in
//! id order, so each total — and each decision — is the float the full
//! re-costing gives. A table's trial state is dropped when its search
//! ends.
//!
//! The original AutoPart only considers pairs of fragments some query
//! accesses together. Here that filter is exact, not a heuristic: while a
//! table's selected fragments are disjoint (and no query weight is
//! negative), a merge or replication of two fragments no active query
//! reads together only grows the fragment each affected slot fetches.
//! Every access cost is non-decreasing in the fetch target's pages at a
//! fixed fragment count, so such a trial costs, query by query, at least
//! the current design and can never pass the improvement test — the
//! search skips it without registering or costing it. Once a replication
//! has made fragments overlap, the greedy set cover can pick differently
//! and every pair is tried again. The replication budget is checked in
//! integers on the fragments' column masks: the current replicated row
//! width plus the width of the columns the copy adds, times the row
//! count.
//!
//! The suite keeps the search as it was before these cuts (`oracle.rs`,
//! test-only) and checks the two recommend the same bits across
//! replication budgets, index-only and joint mode, and the horizontal
//! pass on and off.

#![forbid(unsafe_code)]

use pgdesign_catalog::design::{HorizontalPartitioning, PhysicalDesign, VerticalPartitioning};
use pgdesign_catalog::schema::{TableDef, TableId};
use pgdesign_inum::{CostMatrix, Inum, JointConfig, JointToggle, MatrixCore};
use pgdesign_query::ast::PredOp;
use pgdesign_query::Workload;
use std::collections::BTreeMap;

#[cfg(test)]
mod oracle;

/// Maximum greedy merge iterations per table.
const MAX_ITERATIONS: usize = 64;
/// Number of horizontal partitions to propose.
const HORIZONTAL_PARTITIONS: usize = 16;

/// AutoPart knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct AutoPartConfig {
    /// Extra bytes allowed for column replication across fragments — one
    /// shared pool for the whole search, drawn down by every table's
    /// accepted replication (not a per-table allowance).
    pub replication_budget_bytes: u64,
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

/// A trial of the merge search, named by the selected fragments it edits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TrialKey {
    /// Replace fragments `.0` and `.1` by their union.
    Merge(usize, usize),
    /// Copy fragment `from`'s columns into fragment `into`.
    Replicate { from: usize, into: usize },
}

impl TrialKey {
    /// The two fragments the trial is made of; it is stale once either is
    /// no longer selected.
    fn fragments(self) -> [usize; 2] {
        match self {
            TrialKey::Merge(a, b) => [a, b],
            TrialKey::Replicate { from, into } => [from, into],
        }
    }
}

/// One costed trial.
struct Trial {
    /// The edit, as the matrix costs it.
    toggle: JointToggle,
    /// The columns of the fragments the edit is made of: it can change
    /// the cost of the queries [`QueryCosts::touches`] names for it.
    mask: u128,
    /// Per query (position in [`QueryCosts::qids`]) the edit can change:
    /// its weighted cost under the edit. Unused at the other positions.
    values: Vec<f64>,
    /// The step [`Self::values`] are exact at ([`TableSearch::step`]).
    step: u32,
}

/// One table's merge-search state: each active query's weighted cost
/// under the current configuration, and the trials costed so far with the
/// weighted costs of the queries each can change. Lives as long as the
/// table's search.
struct TableSearch {
    queries: QueryCosts,
    /// No weight is negative — half of the skip rule's exactness
    /// condition (see the crate doc).
    nonneg_weights: bool,
    /// Steps accepted so far.
    step: u32,
    /// The trials costed so far.
    trials: BTreeMap<TrialKey, Trial>,
}

/// The active queries of one table's search, in id order — the order
/// every total is summed in.
struct QueryCosts {
    qids: Vec<usize>,
    weights: Vec<f64>,
    /// The columns the query's slots on the table read, as one mask.
    reads: Vec<u128>,
    /// A slot of the query on the table reads no column, so any
    /// fragmentation edit can change its cost.
    blind: Vec<bool>,
    /// Its weighted cost under the current configuration.
    base: Vec<f64>,
    /// The last step that changed its cost (0: none yet).
    changed_at: Vec<u32>,
}

impl QueryCosts {
    /// Whether an edit of fragments whose columns are `mask` can change
    /// the cost of the query at position `p`.
    fn touches(&self, p: usize, mask: u128) -> bool {
        self.reads[p] & mask != 0 || self.blind[p]
    }

    /// The workload cost of a trial whose values are current.
    fn total(&self, trial: &Trial) -> f64 {
        (0..self.qids.len())
            .map(|p| {
                if self.touches(p, trial.mask) {
                    trial.values[p]
                } else {
                    self.base[p]
                }
            })
            .sum()
    }
}

impl TableSearch {
    /// Cost every active query once under `cfg`, the configuration with
    /// `table`'s atomic fragments selected.
    fn new(core: &MatrixCore, cfg: &JointConfig, table: TableId) -> Self {
        let resolved = core.resolve_joint(cfg, &JointToggle::default());
        let qids: Vec<usize> = core.active_query_ids().collect();
        let (mut weights, mut reads, mut blind, mut base) = (vec![], vec![], vec![], vec![]);
        for &qi in &qids {
            let (mut read, mut reads_nothing) = (0u128, false);
            for (t, mask) in core.columns_read(qi) {
                if t == table {
                    read |= mask;
                    reads_nothing |= mask == 0;
                }
            }
            let w = core.query_weight(qi);
            weights.push(w);
            reads.push(read);
            blind.push(reads_nothing);
            base.push(w * core.joint_cost_resolved(qi, &resolved));
        }
        TableSearch {
            nonneg_weights: weights.iter().all(|&w| w >= 0.0),
            queries: QueryCosts {
                changed_at: vec![0; qids.len()],
                qids,
                weights,
                reads,
                blind,
                base,
            },
            step: 0,
            trials: BTreeMap::new(),
        }
    }

    /// The workload cost of the current configuration.
    fn current(&self) -> f64 {
        self.queries.base.iter().sum()
    }

    /// Whether some active query reads columns of both masks.
    fn read_together(&self, a: u128, b: u128) -> bool {
        self.queries.reads.iter().any(|&r| r & a != 0 && r & b != 0)
    }

    /// The workload cost of trial `key` under `cfg`, the current
    /// configuration, or `None` if it was not costed yet. The queries a
    /// step accepted since the trial was last costed are re-costed first.
    fn total(&mut self, core: &MatrixCore, cfg: &JointConfig, key: TrialKey) -> Option<f64> {
        let trial = self.trials.get_mut(&key)?;
        let q = &self.queries;
        if trial.step < self.step {
            let mut resolved = None;
            for p in 0..q.qids.len() {
                if q.touches(p, trial.mask) && q.changed_at[p] > trial.step {
                    let resolved =
                        resolved.get_or_insert_with(|| core.resolve_joint(cfg, &trial.toggle));
                    trial.values[p] = q.weights[p] * core.joint_cost_resolved(q.qids[p], resolved);
                }
            }
            trial.step = self.step;
        }
        Some(q.total(trial))
    }

    /// Cost a new trial — `toggle` on top of `cfg`, editing fragments whose
    /// columns are `mask` — on the queries it can change; returns its
    /// workload cost.
    fn add(
        &mut self,
        core: &MatrixCore,
        cfg: &JointConfig,
        key: TrialKey,
        toggle: JointToggle,
        mask: u128,
    ) -> f64 {
        let q = &self.queries;
        let resolved = core.resolve_joint(cfg, &toggle);
        let values = (0..q.qids.len())
            .map(|p| {
                if q.touches(p, mask) {
                    q.weights[p] * core.joint_cost_resolved(q.qids[p], &resolved)
                } else {
                    f64::NAN
                }
            })
            .collect();
        let trial = Trial {
            toggle,
            mask,
            values,
            step: self.step,
        };
        let total = q.total(&trial);
        self.trials.insert(key, trial);
        total
    }

    /// The edit of a costed trial.
    fn toggle(&self, key: TrialKey) -> JointToggle {
        self.trials[&key].toggle
    }

    /// Adopt trial `key`, costed at the current step, as the current
    /// configuration, and drop the trials made of a fragment `selected`
    /// (the table's fragments after the step) no longer lists. A kept
    /// trial stays exact on every query the step did not change — the
    /// step's fragments meet none of their columns — and re-costs the
    /// others when it is next read ([`Self::total`]).
    fn accept(&mut self, key: TrialKey, selected: &[usize]) {
        let step = self
            .trials
            .remove(&key)
            .expect("an accepted trial was costed");
        debug_assert_eq!(step.step, self.step, "accepted on stale values");
        self.step += 1;
        let q = &mut self.queries;
        for p in 0..q.qids.len() {
            if q.touches(p, step.mask) {
                q.base[p] = step.values[p];
                q.changed_at[p] = self.step;
            }
        }
        self.trials
            .retain(|k, _| k.fragments().iter().all(|f| selected.contains(f)));
    }
}

/// One table's vertical merge search: [`AutoPartAdvisor::partition_table_on`],
/// or in the suite the earlier search it is checked against. Takes the
/// matrix, the configuration to edit, the table, the active workload and
/// the shared replication pool; returns the merge steps taken.
type VerticalSearch<'a> = fn(
    &AutoPartAdvisor<'a>,
    &mut CostMatrix<'_>,
    &mut JointConfig,
    TableId,
    &Workload,
    &mut u64,
) -> usize;

/// Bytes per row of the columns in `mask`.
fn row_width(tdef: &TableDef, mut mask: u128) -> u64 {
    let mut width = 0;
    while mask != 0 {
        let c = mask.trailing_zeros() as u16;
        mask &= mask - 1;
        width += u64::from(tdef.column(c).dtype.byte_width());
    }
    width
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
    /// matrix lookups: every merge/replication trial is a [`JointToggle`]
    /// evaluated on the queries it can change (see the crate doc). `cfg`
    /// is edited in place (the table's fragments stay selected only if the
    /// final partitioning beats leaving the table whole).
    /// `replication_left` is the *shared* replication budget: trials are
    /// checked against it and an accepted partitioning's replicated bytes
    /// are deducted, so the tables of one search draw from a single pool
    /// rather than each getting the full budget. Returns the merge steps
    /// taken.
    fn partition_table_on(
        &self,
        matrix: &mut CostMatrix<'_>,
        cfg: &mut JointConfig,
        table: TableId,
        workload: &Workload,
        replication_left: &mut u64,
    ) -> usize {
        let catalog = self.inum.catalog();
        let tdef = catalog.schema.table(table);
        let rows = catalog.table_stats(table).row_count;
        let atomic = self.atomic_fragments(workload, table);
        if atomic.len() <= 1 {
            return 0;
        }

        let unpartitioned = matrix.joint_workload_cost(cfg);

        // Select the atomic fragmentation. `group_ids` lists the table's
        // selected fragments in search order (kept duplicate-free; a
        // duplicate group never changes the cost model's answer).
        let mut group_ids: Vec<usize> = atomic
            .iter()
            .map(|g| matrix.register_fragment(table, g))
            .collect();
        for &id in &group_ids {
            cfg.fragments.insert(id);
        }
        let mut search = TableSearch::new(matrix, cfg, table);
        let mut current = search.current();
        let mut iterations = 0usize;

        while iterations < MAX_ITERATIONS && group_ids.len() > 1 {
            let n = group_ids.len();
            let masks: Vec<u128> = group_ids
                .iter()
                .map(|&id| matrix.fragment_mask(id))
                .collect();
            let union = masks.iter().fold(0u128, |u, &m| u | m);
            let columns: u32 = masks.iter().map(|m| m.count_ones()).sum();
            // The exact skip rule of the crate doc: a pair no query reads
            // together cannot improve a disjoint fragmentation.
            let skip_unread = search.nonneg_weights && union.count_ones() == columns;

            // Candidate merges: all fragment pairs some query reads
            // together.
            let mut best: Option<(TrialKey, f64)> = None;
            for i in 0..n {
                for j in (i + 1)..n {
                    if skip_unread && !search.read_together(masks[i], masks[j]) {
                        continue;
                    }
                    let (a, b) = (group_ids[i], group_ids[j]);
                    let key = TrialKey::Merge(a, b);
                    let c = match search.total(matrix, cfg, key) {
                        Some(c) => c,
                        None => {
                            let merged =
                                [matrix.fragment_columns(a), matrix.fragment_columns(b)].concat();
                            let mid = matrix.register_fragment(table, &merged);
                            let toggle = JointToggle::merge(a, b, mid);
                            search.add(matrix, cfg, key, toggle, masks[i] | masks[j])
                        }
                    };
                    if c < current - 1e-9 && best.is_none_or(|(_, bc)| c < bc) {
                        best = Some((key, c));
                    }
                }
            }
            // Replication candidates: copy fragment i's columns into
            // fragment j, if the budget allows. Replicated bytes are
            // `rows × Σ (copies − 1) × width` over the columns; the copy
            // adds one of each column of i that j lacks.
            let mut best_repl: Option<(TrialKey, f64)> = None;
            if *replication_left > 0 {
                let extra =
                    masks.iter().map(|&m| row_width(tdef, m)).sum::<u64>() - row_width(tdef, union);
                for i in 0..n {
                    for j in 0..n {
                        let added = masks[i] & !masks[j];
                        // `added == 0` (i inside j) edits nothing.
                        if i == j
                            || added == 0
                            || (extra + row_width(tdef, added)) * rows > *replication_left
                        {
                            continue;
                        }
                        if skip_unread && !search.read_together(masks[i], masks[j]) {
                            continue;
                        }
                        let (from, into) = (group_ids[i], group_ids[j]);
                        let key = TrialKey::Replicate { from, into };
                        let c = match search.total(matrix, cfg, key) {
                            Some(c) => c,
                            None => {
                                let extended =
                                    [matrix.fragment_columns(into), matrix.fragment_columns(from)]
                                        .concat();
                                let eid = matrix.register_fragment(table, &extended);
                                let toggle = JointToggle::replace(into, eid);
                                search.add(matrix, cfg, key, toggle, masks[i] | masks[j])
                            }
                        };
                        if c < current - 1e-9 && best_repl.is_none_or(|(_, bc)| c < bc) {
                            best_repl = Some((key, c));
                        }
                    }
                }
            }

            let (key, c) = match (best, best_repl) {
                (Some(m), Some(r)) => {
                    if m.1 <= r.1 {
                        m
                    } else {
                        r
                    }
                }
                (Some(step), None) | (None, Some(step)) => step,
                (None, None) => break,
            };
            let toggle = search.toggle(key);
            for removed in toggle.remove_fragments.into_iter().flatten() {
                cfg.fragments.remove(removed);
                group_ids.retain(|&id| id != removed);
            }
            let added = toggle
                .add_fragment
                .expect("merge and replication add a fragment");
            if !group_ids.contains(&added) {
                cfg.fragments.insert(added);
                group_ids.push(added);
            }
            current = c;
            search.accept(key, &group_ids);
            iterations += 1;
        }

        if current < unpartitioned - 1e-9 {
            let groups = group_ids
                .iter()
                .map(|&id| matrix.fragment_columns(id).to_vec())
                .collect();
            let vp = VerticalPartitioning::new(table, groups);
            debug_assert!(vp.is_complete(tdef.width()));
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
        let n = HORIZONTAL_PARTITIONS;
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
        self.search_with(matrix, cfg, Self::partition_table_on)
    }

    /// [`Self::search_on`] with `vertical` as the per-table merge search
    /// (the suite passes the earlier search, its oracle).
    fn search_with(
        &self,
        matrix: &mut CostMatrix<'_>,
        cfg: &mut JointConfig,
        vertical: VerticalSearch<'a>,
    ) -> usize {
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
            iterations += vertical(self, matrix, cfg, t, workload, &mut replication_left);
        }
        for &t in &tables {
            if let Some(sid) = self.horizontal_for_table_on(matrix, cfg, t, workload) {
                cfg.splits.insert(sid);
            }
        }
        iterations
    }

    /// Produce the full partitioning recommendation against `matrix`.
    /// The search runs over the matrix's active queries with no index
    /// selected (partitions alone), and it and all reported costs run on
    /// matrix lookups; no [`Inum::cost`] call is issued anywhere in this
    /// method. Fragments and splits it registers stay resident, so later
    /// joint costings on the same matrix are pure lookups. Nothing is
    /// published: the matrix owner publishes (a session's `advise` does,
    /// once per advice).
    pub fn recommend_on(&self, matrix: &mut CostMatrix<'_>) -> PartitionRecommendation {
        self.recommend_with(matrix, Self::partition_table_on)
    }

    /// [`Self::recommend_on`] with `vertical` as the per-table merge
    /// search (see [`Self::search_with`]).
    fn recommend_with(
        &self,
        matrix: &mut CostMatrix<'_>,
        vertical: VerticalSearch<'a>,
    ) -> PartitionRecommendation {
        let catalog = self.inum.catalog();
        let empty = matrix.empty_joint();
        let base_cost = matrix.joint_workload_cost(&empty);

        let mut cfg = matrix.empty_joint();
        let iterations = self.search_with(matrix, &mut cfg, vertical);

        let mut cost = matrix.joint_workload_cost(&cfg);
        if cost > base_cost {
            // Guard: the greedy accepts only improving steps per table, but
            // never hand back a design costlier than the unpartitioned base.
            cfg = matrix.empty_joint();
            cost = base_cost;
        }
        let design = matrix.joint_design_of(&cfg);
        let per_query = matrix.joint_cost_pairs(&empty, &cfg);
        let replication_bytes = design.replication_bytes(&catalog.schema, &catalog.stats);
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
    use pgdesign_catalog::design::Index;
    use pgdesign_catalog::samples::{sdss_catalog, tpch_catalog};
    use pgdesign_catalog::Catalog;
    use pgdesign_inum::MatrixStats;
    use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
    use pgdesign_optimizer::Optimizer;
    use pgdesign_query::generators::{sdss_workload, tpch_workload};
    use pgdesign_query::parse_query;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        let rec = advisor.recommend_on(&mut CostMatrix::build(&inum, &w, &[]));
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
        let rec = advisor.recommend_on(&mut CostMatrix::build(&inum, &w, &[]));
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
        let rec = advisor.recommend_on(&mut CostMatrix::build(&inum, &w, &[]));
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
        let rec = advisor.recommend_on(&mut CostMatrix::build(&inum, &w, &[]));
        assert!(rec.replication_bytes <= budget);
    }

    #[test]
    fn recommendation_never_regresses() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let advisor = AutoPartAdvisor::new(&inum, AutoPartConfig::default());
        let w = sdss_workload(&c, 18, 33);
        let rec = advisor.recommend_on(&mut CostMatrix::build(&inum, &w, &[]));
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
        let rec = advisor.recommend_on(&mut CostMatrix::build(&inum, &w, &[]));
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

    /// A recommendation with every float as its bits.
    type Bits = (String, u64, u64, Vec<(u64, u64)>, usize, u64);

    fn bits(rec: &PartitionRecommendation) -> Bits {
        (
            format!("{:?}", rec.design),
            rec.base_cost.to_bits(),
            rec.cost.to_bits(),
            rec.per_query
                .iter()
                .map(|(b, p)| (b.to_bits(), p.to_bits()))
                .collect(),
            rec.iterations,
            rec.replication_bytes,
        )
    }

    /// One search over a fresh matrix of `workload`: the incremental one
    /// or the oracle. Index-only mode is [`AutoPartAdvisor::recommend_on`];
    /// joint mode builds the matrix over `candidates`, selects `preselected`
    /// and runs [`AutoPartAdvisor::search_on`]'s body, as
    /// `recommend_joint_on` does after its index half.
    fn run_search(
        inum: &Inum<'_>,
        config: AutoPartConfig,
        workload: &Workload,
        joint: Option<(&[Index], &[usize])>,
        incremental: bool,
    ) -> (Bits, MatrixStats) {
        let advisor = AutoPartAdvisor::new(inum, config);
        let vertical: VerticalSearch<'_> = if incremental {
            AutoPartAdvisor::partition_table_on
        } else {
            oracle::partition_table_on
        };
        let before = inum.matrix_stats();
        let rec = match joint {
            None => {
                let mut matrix = CostMatrix::build(inum, workload, &[]);
                advisor.recommend_with(&mut matrix, vertical)
            }
            Some((candidates, preselected)) => {
                let mut matrix = CostMatrix::build(inum, workload, candidates);
                let mut cfg = matrix.empty_joint();
                for &id in preselected {
                    cfg.indexes.insert(id);
                }
                let iterations = advisor.search_with(&mut matrix, &mut cfg, vertical);
                let empty = matrix.empty_joint();
                let design = matrix.joint_design_of(&cfg);
                let catalog = inum.catalog();
                PartitionRecommendation {
                    base_cost: matrix.joint_workload_cost(&empty),
                    cost: matrix.joint_workload_cost(&cfg),
                    per_query: matrix.joint_cost_pairs(&empty, &cfg),
                    iterations,
                    replication_bytes: design.replication_bytes(&catalog.schema, &catalog.stats),
                    design,
                }
            }
        };
        let after = inum.matrix_stats();
        let spent = MatrixStats {
            lookups: after.lookups - before.lookups,
            partition_lookups: after.partition_lookups - before.partition_lookups,
            partition_cells: after.partition_cells - before.partition_cells,
            ..MatrixStats::default()
        };
        (bits(&rec), spent)
    }

    /// The incremental search and the oracle recommend the same bits over
    /// the grid: replication budget none, a twentieth of the data, and
    /// unbounded; index-only and with a random third of the workload's
    /// candidate indexes preselected; horizontal pass on and off. Returns
    /// the matrix work each side spent, summed over the grid.
    fn assert_search_matches_oracle(
        catalog: &Catalog,
        workload: &Workload,
        seed: u64,
    ) -> (MatrixStats, MatrixStats) {
        let opt = Optimizer::new();
        let inum = Inum::new(catalog, &opt);
        let candidates =
            workload_candidates(catalog, workload, &CandidateConfig::default()).indexes;
        let mut rng = StdRng::seed_from_u64(seed);
        let preselected: Vec<usize> = (0..candidates.len())
            .filter(|_| rng.random_range(0..3usize) == 0)
            .collect();
        let mut spent = (MatrixStats::default(), MatrixStats::default());
        for budget in [0, catalog.data_bytes() / 20, u64::MAX / 4] {
            for joint in [None, Some((&candidates[..], &preselected[..]))] {
                let config = AutoPartConfig {
                    replication_budget_bytes: budget,
                };
                let (new, new_spent) = run_search(&inum, config, workload, joint, true);
                let (old, old_spent) = run_search(&inum, config, workload, joint, false);
                assert_eq!(new, old, "budget {budget}, joint {}", joint.is_some());
                for (total, part) in [(&mut spent.0, new_spent), (&mut spent.1, old_spent)] {
                    total.lookups += part.lookups;
                    total.partition_lookups += part.partition_lookups;
                    total.partition_cells += part.partition_cells;
                }
            }
        }
        spent
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn incremental_search_matches_the_oracle_on_sdss(seed in 0u64..10_000, n in 4usize..16) {
            let c = sdss_catalog(0.01);
            assert_search_matches_oracle(&c, &sdss_workload(&c, n, seed), seed ^ 0x5a7);
        }

        #[test]
        fn incremental_search_matches_the_oracle_on_tpch(seed in 0u64..10_000, n in 3usize..12) {
            let c = tpch_catalog(0.01);
            assert_search_matches_oracle(&c, &tpch_workload(&c, n, seed), seed ^ 0x7c4);
        }
    }

    #[test]
    fn incremental_search_costs_a_fraction_of_the_oracles_lookups() {
        let c = sdss_catalog(0.01);
        let (new, old) = assert_search_matches_oracle(&c, &sdss_workload(&c, 12, 7), 7);
        assert!(
            4 * new.partition_lookups < 3 * old.partition_lookups,
            "re-costing only touched queries: {} vs {} partition lookups",
            new.partition_lookups,
            old.partition_lookups
        );
        assert!(
            new.partition_cells < old.partition_cells,
            "skipped pairs register no fragment: {} vs {} partition cells",
            new.partition_cells,
            old.partition_cells
        );
    }
}
