//! The [`TuningSession`] — **one persistent cost matrix behind every mode
//! of the tool**, and the [`Advisor`] trait every design search implements
//! against it.
//!
//! The paper's headline is that offline (CoPhy/AutoPart), online (COLT)
//! and interactive design are *one tool behind one what-if interface*.
//! This module is that interface's spine: a session owns a single
//! [`Inum`] (the skeleton cache) and a single incrementally-maintained
//! [`CostMatrix`] (the precomputed cell cache), and every consumer — the
//! interactive what-if view ([`crate::InteractiveSession`]), the
//! continuous tuner ([`crate::OnlineSession`]), and the offline advisors
//! behind [`crate::Designer::recommend`] and friends — extends and reads
//! that one matrix. Work done by one consumer is warm for the next: the
//! cells COLT computes while profiling an epoch are exactly the cells an
//! offline recommendation asked for mid-stream would otherwise recompute
//! (the session's [`TuningStats`] report the reuse as
//! `matrix.cells_reused`).

use crate::designer::Designer;
use crate::durable::{try_restore, DurableHandle};
use crate::report::TuningStats;
use pgdesign_durability::DurableStore;
use pgdesign_inum::{encode_published, CostMatrix, Inum, MatrixReader, MatrixSnapshot};
use pgdesign_query::Workload;
use std::collections::HashMap as StdHashMap;
use std::io;
use std::ops::Deref;

/// A tuning session: one [`Inum`] skeleton cache plus one persistent,
/// incrementally-maintained [`CostMatrix`], shared by every advisor and
/// view attached to it.
///
/// Created in memory via [`Designer::tuning_session`] (or implicitly by
/// [`Designer::session`] / [`Designer::online_session`] and the
/// `recommend*` one-shots), or durably via [`Self::open_or_create_on`].
/// The session's matrix is never rebuilt:
/// advisors register candidates with [`CostMatrix::add_candidate`] /
/// [`CostMatrix::register_fragment`] / [`CostMatrix::register_split`]
/// (already-resident entries reuse their cells), and streaming consumers
/// rotate queries with [`CostMatrix::add_queries`] /
/// [`CostMatrix::retire_query`].
pub struct TuningSession<'a> {
    designer: &'a Designer,
    /// The session's handle on the skeleton cache; the matrix holds a
    /// clone of it, so both report through the same counters.
    inum: Inum<'a>,
    matrix: CostMatrix<'a>,
    /// Durable snapshot + edit-log state; `None` for in-memory sessions.
    durable: Option<DurableHandle>,
}

impl<'a> TuningSession<'a> {
    /// Start a session over a workload: builds the skeleton cache for the
    /// workload (the one-off warm-up) and a candidate-less cost matrix
    /// over it. Everything after this is incremental.
    pub(crate) fn new(designer: &'a Designer, workload: Workload) -> Self {
        let inum = Inum::new(&designer.catalog, &designer.optimizer);
        inum.prepare_workload(&workload);
        let matrix = CostMatrix::build(&inum, &workload, &[]);
        TuningSession {
            designer,
            inum,
            matrix,
            durable: None,
        }
    }

    /// Open a durable session on `store` — an `FsStore` over a state
    /// directory, or the `MemStore` the fault-injection tests pass — or
    /// create a fresh one when no usable state exists.
    ///
    /// Warm path: the snapshot is decoded and verified, catalog-stale
    /// cells are recomputed, the edit log replays on top (torn tail
    /// dropped at the last CRC-valid record), and the requested `workload`
    /// is reconciled against the resident queries — recurring queries
    /// reuse their cells, no matrix build happens. Cold path (no state,
    /// corrupt or version-skewed snapshot, changed catalog shape): exactly
    /// [`Designer::tuning_session`], with the reason recorded in the
    /// session's [`TuningStats::recovery`]. Either way the session checkpoints
    /// immediately, so the next open never re-pays this one's recovery,
    /// and every later mutation is journaled to the edit log at publish
    /// boundaries ([`Self::sync_durable`]).
    ///
    /// Only real I/O failure (an unreadable/unwritable store) returns
    /// `Err`; corrupt state never does.
    pub fn open_or_create_on(
        designer: &'a Designer,
        workload: Workload,
        mut store: Box<dyn DurableStore>,
    ) -> io::Result<Self> {
        let inum = Inum::new(&designer.catalog, &designer.optimizer);
        let (restored, recovery) = try_restore(&inum, &mut *store)?;
        let matrix = match restored {
            Some(mut matrix) => {
                if !workload.is_empty() {
                    // Reconcile the requested workload against the resident
                    // queries: recurring queries keep their cells (weights
                    // forced to the request, not summed), residents not
                    // requested are retired. Published so the reconciled
                    // state is what the open-time checkpoint captures.
                    let entries: Vec<_> = workload
                        .entries
                        .iter()
                        .map(|e| (&e.query, e.weight))
                        .collect();
                    let ids = matrix.add_queries(entries.iter().map(|&(q, w)| (q, w)));
                    let mut want: StdHashMap<usize, f64> = StdHashMap::new();
                    for (&(_, w), &id) in entries.iter().zip(&ids) {
                        *want.entry(id).or_insert(0.0) += w;
                    }
                    let resident: Vec<usize> = matrix.active_query_ids().collect();
                    for id in resident {
                        match want.get(&id) {
                            Some(&w) => matrix.set_query_weight(id, w),
                            None => matrix.retire_query(id),
                        }
                    }
                    matrix.publish();
                }
                matrix
            }
            None => {
                inum.prepare_workload(&workload);
                CostMatrix::build(&inum, &workload, &[])
            }
        };

        let mut session = TuningSession {
            designer,
            inum,
            matrix,
            durable: Some(DurableHandle::new(store, recovery)),
        };
        // Fold whatever this open did (restore + replay, reconciliation,
        // or a cold build) into a fresh snapshot, then start journaling.
        session.checkpoint()?;
        session.matrix.enable_journal();
        Ok(session)
    }

    /// Whether this session persists its matrix to a durable store.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Make every generation published since the last sync durable: their
    /// journaled edits go to the edit log as one append with one fsync,
    /// and a checkpoint follows if enough publishes accumulated. Edits
    /// made after the last publish stay in memory until the next one, so
    /// with nothing newly published this touches no disk. No-op for
    /// in-memory sessions. Called automatically by [`Self::advise`] and
    /// [`Self::publish`]; after a direct [`CostMatrix::publish`], call it
    /// to make that generation durable.
    ///
    /// A failed append degrades to suspended logging (never a log with a
    /// hole) until a checkpoint heals it; a failed checkpoint leaves the
    /// previous on-disk state intact.
    pub fn sync_durable(&mut self) -> io::Result<()> {
        let Some(handle) = self.durable.as_mut() else {
            return Ok(());
        };
        if handle.append_edits(&self.matrix.take_journal()) {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Write the latest *published* matrix generation as a fresh snapshot
    /// and truncate the edit log against it. No-op for in-memory sessions.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        let Some(handle) = self.durable.as_mut() else {
            return Ok(());
        };
        handle.checkpoint(&encode_published(&self.matrix))?;
        // The snapshot holds every published edit: appending the journal's
        // published part to the fresh log would replay it twice.
        self.matrix.take_journal();
        Ok(())
    }

    /// [`Self::sync_durable`], with I/O failure reported to stderr instead
    /// of returned — the shape internal callers want: durability already
    /// degrades gracefully, so a sync failure must not abort tuning.
    pub(crate) fn sync_durable_logged(&mut self) {
        if let Err(e) = self.sync_durable() {
            eprintln!("pgdesign: durable sync failed ({e}); continuing in memory");
        }
    }

    /// The designer (catalog + optimizer) this session runs against.
    pub fn designer(&self) -> &'a Designer {
        self.designer
    }

    /// The session's INUM handle. Components that need the what-if
    /// oracle while also borrowing [`Self::matrix_mut`] (the built-in
    /// advisors) clone it — clones share the session's cache and counters.
    ///
    /// Deliberately `pub(crate)`: external [`Advisor`] implementations
    /// cost through [`Self::matrix`] lookups, not the optimizer.
    pub(crate) fn inum(&self) -> &Inum<'a> {
        &self.inum
    }

    /// The session's persistent cost matrix.
    pub fn matrix(&self) -> &CostMatrix<'a> {
        &self.matrix
    }

    /// Mutable access to the session matrix — how advisors register
    /// candidates and streaming consumers rotate queries.
    pub fn matrix_mut(&mut self) -> &mut CostMatrix<'a> {
        &mut self.matrix
    }

    /// The matrix's query mirror (entries of retired slots are stale; see
    /// [`pgdesign_inum::MatrixCore::workload`]).
    pub fn workload(&self) -> &Workload {
        self.matrix.workload()
    }

    /// Counters from both cache levels — one persistent matrix means the
    /// `cells_reused` line here measures cross-consumer sharing, e.g. an
    /// offline recommendation reusing the cells an online run kept warm.
    pub fn stats(&self) -> TuningStats {
        let (io_retries, recent_retries, io_suspensions) =
            self.durable.as_ref().map_or((0, 0, 0), |d| d.io_counters());
        let health = match self.durable.as_ref() {
            Some(d) if d.is_suspended() => crate::health::ServiceHealth::Suspended,
            _ if recent_retries > 0 => {
                crate::health::ServiceHealth::Degraded(crate::health::DegradeReason::IoRetries)
            }
            _ => crate::health::ServiceHealth::Healthy,
        };
        TuningStats {
            inum: self.inum.stats(),
            matrix: self.inum.matrix_stats(),
            published_generation: self.matrix.published_generation(),
            reader_lookups: self.matrix.reader_lookups(),
            recovery: self.durable.as_ref().map(|d| d.recovery),
            health,
            stale_generations: 0,
            io_retries,
            io_suspensions,
        }
    }

    /// The session-level service health (durable-log condition only; an
    /// [`crate::OnlineSession`] additionally folds in the tuner's epoch
    /// ladder — see [`crate::OnlineSession::health`]).
    pub fn health(&self) -> crate::health::ServiceHealth {
        self.stats().health
    }

    /// Read an auxiliary ("sidecar") snapshot beside the matrix state —
    /// `None` on in-memory sessions and for missing/corrupt/skewed files.
    pub(crate) fn read_sidecar(&mut self, name: &str) -> Option<Vec<u8>> {
        self.durable.as_mut()?.read_sidecar(name)
    }

    /// Write an auxiliary sidecar snapshot (no-op on in-memory sessions).
    pub(crate) fn write_sidecar(&mut self, name: &str, payload: &[u8]) -> io::Result<()> {
        match self.durable.as_mut() {
            Some(d) => d.write_sidecar(name, payload),
            None => Ok(()),
        }
    }

    /// A concurrent reader over the latest *published* snapshot of the
    /// session matrix: cheap to create, [`Clone`] + [`Send`] + `'static`,
    /// and every lookup on it is lock-free against a pinned generation.
    /// Hand clones to N threads to serve what-if evaluations while this
    /// session keeps mutating the write side; see [`SessionReader`] for
    /// the staleness contract.
    pub fn reader(&self) -> SessionReader {
        SessionReader {
            reader: self.matrix.reader(),
        }
    }

    /// Publish the matrix's current state as a new snapshot generation for
    /// concurrent readers. [`Self::advise`] publishes automatically after
    /// each advisor; call this after manual [`Self::matrix_mut`] edits
    /// that readers should observe. Returns the new generation.
    pub fn publish(&mut self) -> u64 {
        let generation = self.matrix.publish();
        self.sync_durable_logged();
        generation
    }

    /// Run an advisor against this session (see [`Advisor`]).
    ///
    /// Publishes a fresh reader snapshot on completion: whatever the
    /// advisor registered or rotated becomes visible to
    /// [`Self::reader`] handles as the next generation. Durable sessions
    /// sync the journaled edits to the log at the same boundary.
    pub fn advise<A: Advisor + ?Sized>(&mut self, advisor: &mut A) -> A::Report {
        let report = advisor.advise(self);
        self.matrix.publish();
        self.sync_durable_logged();
        report
    }
}

/// A cheap, cloneable, thread-safe handle serving what-if evaluations from
/// the latest snapshot a [`TuningSession`] published.
///
/// Dereferences to the pinned [`MatrixSnapshot`] (and through it to its
/// [`pgdesign_inum::MatrixCore`]), so the matrix's whole read API is
/// available directly (`reader.cost(..)`, `reader.joint_cost(..)`,
/// `reader.workload_cost(..)`). Lookups take no lock and call no
/// optimizer; they are consistent within the pinned generation — a handle
/// cloned before an epoch rotation keeps evaluating the old generation
/// until [`Self::refresh`]. Check [`Self::is_stale`] (one atomic load) at
/// whatever staleness budget the caller tolerates; the writer never blocks
/// on readers.
#[derive(Clone)]
pub struct SessionReader {
    reader: MatrixReader,
}

impl SessionReader {
    /// The pinned snapshot (also reachable through `Deref`).
    pub fn snapshot(&self) -> &MatrixSnapshot {
        self.reader.snapshot()
    }

    /// Whether the session has published a newer generation than the one
    /// pinned here.
    pub fn is_stale(&self) -> bool {
        self.reader.is_stale()
    }

    /// Re-pin the latest published generation; returns the generation now
    /// pinned.
    pub fn refresh(&mut self) -> u64 {
        self.reader.refresh()
    }

    /// Workload cost without and with the given resident candidate ids —
    /// the interactive `evaluate` shape as a concurrent lookup.
    pub fn evaluate(&self, candidate_ids: &[usize]) -> (f64, f64) {
        let snap = self.reader.snapshot();
        let cfg = snap.config_of(candidate_ids.iter().copied());
        (
            snap.workload_cost(&snap.empty_config()),
            snap.workload_cost(&cfg),
        )
    }

    /// The interaction graph over resident candidate ids, computed
    /// entirely against the pinned snapshot (the per-query sweep never
    /// touches the writer).
    pub fn interaction_graph(
        &self,
        candidate_ids: &[usize],
    ) -> pgdesign_interaction::InteractionGraph {
        analyze_on(
            self.reader.snapshot(),
            candidate_ids,
            &InteractionConfig::default(),
        )
        .graph()
    }
}

impl Deref for SessionReader {
    type Target = MatrixSnapshot;
    fn deref(&self) -> &MatrixSnapshot {
        self.reader.snapshot()
    }
}

/// A design search that runs against a [`TuningSession`].
///
/// # The matrix-sharing contract
///
/// All advisors on one session share its single [`CostMatrix`]. An
/// implementation must **extend** that matrix, never replace or rebuild
/// it:
///
/// * register candidate structures through
///   [`CostMatrix::add_candidate`] / [`CostMatrix::register_fragment`] /
///   [`CostMatrix::register_split`] — these dedupe, so a structure another
///   consumer already registered reuses its resident cells (counted in
///   `TuningStats::matrix.cells_reused`) instead of recomputing them;
/// * leave registered candidates resident on return — the next advisor
///   (or the interactive view) may be about to ask about them; candidate
///   ids are stable, so leftover registrations never invalidate anyone's
///   bitsets. (The *stream owner* is the one exception: COLT's epoch
///   rotation evicts candidates it no longer tracks — including advisor
///   leftovers — to keep per-epoch cell work bounded by drift, so warm
///   reuse across a handoff is guaranteed at hand-off time, not across
///   later epochs);
/// * do not retire query slots the advisor did not add: the session's
///   active queries are the workload every other consumer is costing
///   against;
/// * cost configurations exclusively through matrix lookups
///   ([`pgdesign_inum::MatrixCore::cost`], `joint_cost`, the `delta_*`
///   family) — per-design [`Inum::cost`] calls forfeit the cache and
///   show up in `TuningStats`.
///
/// Under this contract `advise` is cheap to call repeatedly and cheap to
/// interleave with other consumers: each call pays only for the cells its
/// *new* candidates and queries need.
pub trait Advisor {
    /// What the advisor hands back.
    type Report;

    /// Run the search against the session's shared matrix.
    fn advise(&mut self, session: &mut TuningSession<'_>) -> Self::Report;
}

// ---- The built-in advisors ----

use crate::designer::OfflineReport;
use crate::report;
use pgdesign_autopart::{AutoPartAdvisor, AutoPartConfig, PartitionRecommendation};
use pgdesign_catalog::design::Index;
use pgdesign_cophy::{CophyAdvisor, CophyConfig, Recommendation};
use pgdesign_interaction::{analyze_on, schedule_pair_on, InteractionAnalysis, InteractionConfig};

/// CoPhy index selection as a session advisor (wraps
/// [`CophyAdvisor::recommend_on`]).
#[derive(Debug, Clone, Default)]
pub struct IndexAdvisor {
    /// CoPhy knobs (budget, candidate enumeration, solver limits, …).
    pub config: CophyConfig,
}

impl IndexAdvisor {
    /// An index advisor with the given configuration.
    pub fn new(config: CophyConfig) -> Self {
        IndexAdvisor { config }
    }
}

impl Advisor for IndexAdvisor {
    type Report = Recommendation;

    fn advise(&mut self, session: &mut TuningSession<'_>) -> Recommendation {
        // analyzer:allow(cost-purity): built-in advisor; the handle clone
        // only fills the session matrix it then costs from.
        let inum = session.inum().clone();
        CophyAdvisor::new(&inum, self.config.clone()).recommend_on(session.matrix_mut())
    }
}

/// AutoPart partition suggestion as a session advisor (wraps
/// [`AutoPartAdvisor::recommend_on`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct PartitionAdvisor {
    /// AutoPart knobs (replication budget, iteration caps, …).
    pub config: AutoPartConfig,
}

impl PartitionAdvisor {
    /// A partition advisor with the given configuration.
    pub fn new(config: AutoPartConfig) -> Self {
        PartitionAdvisor { config }
    }
}

impl Advisor for PartitionAdvisor {
    type Report = PartitionRecommendation;

    fn advise(&mut self, session: &mut TuningSession<'_>) -> PartitionRecommendation {
        // analyzer:allow(cost-purity): built-in advisor; fragment costing
        // lands in the session matrix, the sanctioned counted path.
        let inum = session.inum().clone();
        AutoPartAdvisor::new(&inum, self.config).recommend_on(session.matrix_mut())
    }
}

/// The offline pipeline (demo scenario 2) as a session advisor: CoPhy's
/// indexes, then AutoPart's partitions searched around them under the same
/// storage budget, the interaction graph over the indexes, and the
/// materialization schedules — all costed against the session's one
/// matrix.
#[derive(Debug, Clone)]
pub struct OfflineAdvisor {
    /// One storage budget covering the indexes and the replicated
    /// fragments; replication may also take at most a tenth of it.
    pub storage_budget_bytes: u64,
}

impl OfflineAdvisor {
    /// An offline advisor under one storage budget.
    pub fn new(storage_budget_bytes: u64) -> Self {
        OfflineAdvisor {
            storage_budget_bytes,
        }
    }
}

impl Advisor for OfflineAdvisor {
    type Report = OfflineReport;

    fn advise(&mut self, session: &mut TuningSession<'_>) -> OfflineReport {
        // analyzer:allow(cost-purity): built-in advisor; CoPhy's ILP is
        // built from matrix cells this session owns, the sanctioned path.
        let inum = session.inum().clone();
        let budget = self.storage_budget_bytes;
        let cophy = CophyAdvisor::new(
            &inum,
            CophyConfig {
                storage_budget_bytes: budget,
                ..Default::default()
            },
        );
        let indexes = cophy.recommend_on(session.matrix_mut());

        // Partitions around the chosen indexes, on the same matrix: every
        // merge trial sees the index accesses it must coexist with, and
        // replication may spend only what the indexes left of the budget.
        let matrix = session.matrix_mut();
        let chosen_ids: Vec<usize> = indexes
            .indexes
            .iter()
            .map(|idx| {
                matrix
                    .candidate_id(idx)
                    .expect("recommended indexes are registered on the session matrix")
            })
            .collect();
        let mut cfg = matrix.empty_joint();
        for &id in &chosen_ids {
            cfg.indexes.insert(id);
        }
        let autopart = AutoPartAdvisor::new(
            &inum,
            AutoPartConfig {
                replication_budget_bytes: (budget / 10)
                    .min(budget.saturating_sub(indexes.total_index_bytes)),
            },
        );
        autopart.search_on(matrix, &mut cfg);

        let matrix = session.matrix();
        let empty = matrix.empty_joint();
        let base_cost = matrix.joint_workload_cost(&empty);
        let mut combined_cost = matrix.joint_workload_cost(&cfg);
        if combined_cost > indexes.cost {
            // The merge search accepts only improving steps, but never
            // hand back a design worse than the indexes alone.
            cfg.fragments.clear();
            cfg.splits.clear();
            combined_cost = indexes.cost;
        }
        let design = matrix.joint_design_of(&cfg);
        let per_query = matrix.joint_cost_pairs(&empty, &cfg);

        // Interaction analysis + schedules over the chosen indexes, served
        // from the very same matrix cells the selection used.
        let analysis = analyze_on(matrix, &chosen_ids, &InteractionConfig::default());
        let graph = analysis.graph();
        let (schedule, naive) = schedule_pair_on(matrix, &chosen_ids);

        let catalog = &session.designer().catalog;
        let index_display = indexes
            .indexes
            .iter()
            .map(|i| i.display(&catalog.schema))
            .collect();
        OfflineReport {
            replication_bytes: design.replication_bytes(&catalog.schema, &catalog.stats),
            partition_display: report::partition_lines(&design, &catalog.schema),
            indexes,
            design,
            base_cost,
            combined_cost,
            per_query,
            analysis,
            graph,
            schedule,
            naive_schedule: naive,
            index_display,
            stats: session.stats(),
        }
    }
}

/// Degree-of-interaction analysis over an explicit candidate set as a
/// session advisor: the candidates are registered on the session matrix
/// (reusing resident cells) and the per-query sweep — `2^r_q` lookups for a
/// query with `r_q` of the candidates on it — is pure lookups.
#[derive(Debug, Clone)]
pub struct InteractionAdvisor {
    /// The candidate indexes to analyze.
    pub indexes: Vec<Index>,
    /// Analysis knobs.
    pub config: InteractionConfig,
}

impl InteractionAdvisor {
    /// An interaction advisor over a candidate set.
    pub fn new(indexes: Vec<Index>) -> Self {
        InteractionAdvisor {
            indexes,
            config: InteractionConfig::default(),
        }
    }
}

impl Advisor for InteractionAdvisor {
    type Report = InteractionAnalysis;

    fn advise(&mut self, session: &mut TuningSession<'_>) -> InteractionAnalysis {
        // Bulk registration: new candidates' cells are computed in one
        // parallel fan-out instead of one serial pass per index.
        let ids = session.matrix_mut().add_candidates(&self.indexes);
        analyze_on(session.matrix(), &ids, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::design::HorizontalPartitioning;
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_inum::{CandidateBitset, JointConfig, JointToggle, MatrixCore};
    use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
    use pgdesign_query::generators::sdss_workload;

    fn designer() -> Designer {
        Designer::new(sdss_catalog(0.01))
    }

    #[test]
    fn session_advisors_share_one_matrix() {
        let d = designer();
        let w = sdss_workload(&d.catalog, 9, 91);
        let mut session = d.tuning_session(w);
        let builds_after_warmup = session.stats().matrix.builds;

        let rec = session.advise(&mut IndexAdvisor::default());
        assert!(rec.cost <= rec.base_cost);
        let parts = session.advise(&mut PartitionAdvisor::default());
        assert!(parts.cost <= parts.base_cost + 1e-6);

        assert_eq!(
            session.stats().matrix.builds,
            builds_after_warmup,
            "advisors must extend the session matrix, not rebuild it"
        );
    }

    #[test]
    fn second_advise_reuses_the_first_ones_cells() {
        let d = designer();
        let w = sdss_workload(&d.catalog, 9, 92);
        let mut session = d.tuning_session(w);
        session.advise(&mut IndexAdvisor::default());
        let reused_before = session.stats().matrix.cells_reused;
        // The same enumeration re-registers the same candidates: every one
        // of them must reuse its resident cells.
        session.advise(&mut IndexAdvisor::default());
        assert!(
            session.stats().matrix.cells_reused > reused_before,
            "re-advising must hit the resident cells"
        );
    }

    #[test]
    fn interaction_advisor_is_pure_lookups_after_registration() {
        let d = designer();
        let w = sdss_workload(&d.catalog, 9, 93);
        let mut session = d.tuning_session(w);
        let photo = d.catalog.schema.table_by_name("photoobj").unwrap().id;
        let mut advisor = InteractionAdvisor::new(vec![
            Index::new(photo, vec![3, 6]),
            Index::new(photo, vec![6, 3]),
        ]);
        let cost_calls = session.stats().inum.cost_calls;
        let analysis = session.advise(&mut advisor);
        assert_eq!(analysis.indexes.len(), 2);
        assert_eq!(
            session.stats().inum.cost_calls,
            cost_calls,
            "the subset sweep must run on matrix lookups, not Inum::cost"
        );
    }

    #[test]
    fn joint_mode_shares_one_matrix_and_never_regresses() {
        let d = designer();
        let w = sdss_workload(&d.catalog, 9, 31);
        let budget = d.catalog.data_bytes() / 2;
        let mut session = d.tuning_session(w.clone());
        let cost_calls_before = session.stats().inum.cost_calls;
        let rec = session.advise(&mut OfflineAdvisor::new(budget));
        assert_eq!(
            session.stats().matrix.builds,
            1,
            "index and partition searches must share one matrix"
        );
        assert_eq!(
            session.stats().inum.cost_calls,
            cost_calls_before,
            "the offline pipeline runs on matrix lookups only"
        );
        assert!(
            rec.combined_cost <= rec.indexes.cost + 1e-6,
            "partitions may not hurt"
        );
        assert!(rec.combined_cost <= rec.base_cost + 1e-6);
        assert!(rec.indexes.total_index_bytes <= budget);
        assert!(
            rec.indexes.total_index_bytes + rec.replication_bytes <= budget,
            "one budget covers indexes and replicated partition storage"
        );
        assert_eq!(rec.per_query.len(), 9);
        // The matrix's joint estimate agrees with the slow-path oracle on
        // the finished design.
        let oracle = session.inum().workload_cost(&rec.design, &w);
        assert!(
            (rec.combined_cost - oracle).abs() <= 1e-6 * oracle.abs().max(1.0),
            "joint {} vs oracle {oracle}",
            rec.combined_cost
        );
    }

    #[test]
    fn joint_mode_partitions_narrow_workloads() {
        let d = designer();
        let c = &d.catalog;
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
        // A tiny budget forces the benefit to come from partitioning
        // instead.
        let rec = d.tuning_session(w).advise(&mut OfflineAdvisor::new(1));
        assert!(rec.indexes.indexes.is_empty());
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        assert!(
            rec.design.vertical(photo).is_some(),
            "partitioning must carry the benefit under a zero index budget"
        );
        assert!(rec.combined_cost < rec.base_cost);
        assert!(rec.average_benefit() > 0.3, "{}", rec.average_benefit());
    }

    #[test]
    fn each_advise_publishes_once_and_journals_one_publish() {
        use crate::durable::{LOG_NAME, SNAPSHOT_NAME};
        use pgdesign_durability::{log_open, read_snapshot, LogState, SharedMemStore};
        use pgdesign_inum::{decode_edit, MatrixEdit};

        let d = designer();
        let w = sdss_workload(&d.catalog, 6, 96);
        let budget = d.catalog.data_bytes() / 2;
        let disk = SharedMemStore::new();
        let mut session = TuningSession::open_or_create_on(&d, w, Box::new(disk.clone()))
            .expect("open a durable session");
        // `Publish` records in the edit log since the open's checkpoint.
        let logged_publishes = || {
            let mut store = disk.lock();
            let crc = read_snapshot(&mut *store, SNAPSHOT_NAME).unwrap().body_crc;
            match log_open(&mut *store, LOG_NAME, crc).unwrap() {
                LogState::Replay(scan) => scan
                    .records
                    .iter()
                    .filter(|r| matches!(decode_edit(r).unwrap(), MatrixEdit::Publish))
                    .count(),
                other => panic!("expected a replayable log, got {other:?}"),
            }
        };
        for name in ["IndexAdvisor", "PartitionAdvisor", "OfflineAdvisor"] {
            let (generation, publishes) =
                (session.matrix().published_generation(), logged_publishes());
            match name {
                "IndexAdvisor" => {
                    session.advise(&mut IndexAdvisor::default());
                }
                "PartitionAdvisor" => {
                    session.advise(&mut PartitionAdvisor::default());
                }
                _ => {
                    session.advise(&mut OfflineAdvisor::new(budget));
                }
            }
            assert_eq!(
                session.matrix().published_generation(),
                generation + 1,
                "{name}: one advise, one generation"
            );
            assert_eq!(
                logged_publishes(),
                publishes + 1,
                "{name}: one advise, one journaled publish"
            );
            let (matrix, reader) = (session.matrix(), session.reader());
            assert_eq!(
                reader.candidates().collect::<Vec<_>>(),
                matrix.candidates().collect::<Vec<_>>(),
                "{name}: readers see every registered candidate"
            );
            assert_eq!(reader.n_fragments(), matrix.n_fragments(), "{name}");
            assert_eq!(reader.n_splits(), matrix.n_splits(), "{name}");
        }
        assert!(
            session.matrix().n_fragments() > 0,
            "the searches registered fragments"
        );
    }

    /// Inputs for the read-API table below: ids valid on the session
    /// matrix the fixture was taken from.
    struct ReadFixture {
        q: usize,
        cfg: CandidateBitset,
        cand: usize,
        joint: JointConfig,
        frags: [usize; 2],
        split: usize,
    }

    /// One row of the read-API table: a read reduced to its `Debug`
    /// rendering (bit-faithful for `f64`), and the lookups / partition
    /// lookups one call must count, as multiples of `(1, active queries)`.
    type ReadRow = (
        &'static str,
        fn(&MatrixCore, &ReadFixture) -> String,
        (u64, u64),
        (u64, u64),
    );

    #[test]
    fn every_read_agrees_across_handles_and_counts_on_one_side() {
        fn show<T: std::fmt::Debug>(value: T) -> String {
            format!("{value:?}")
        }
        const NONE: (u64, u64) = (0, 0);
        const ONE: (u64, u64) = (1, 0);
        const PER_QUERY: (u64, u64) = (0, 1);
        const TWICE_PER_QUERY: (u64, u64) = (0, 2);
        let table: Vec<ReadRow> = vec![
            ("workload", |m, _f| show(m.workload()), NONE, NONE),
            ("n_queries", |m, _f| show(m.n_queries()), NONE, NONE),
            ("n_candidates", |m, _f| show(m.n_candidates()), NONE, NONE),
            (
                "candidates",
                |m, _f| show(m.candidates().collect::<Vec<_>>()),
                NONE,
                NONE,
            ),
            ("candidate", |m, f| show(m.candidate(f.cand)), NONE, NONE),
            (
                "candidate_id",
                |m, f| show(m.candidate_id(m.candidate(f.cand).unwrap())),
                NONE,
                NONE,
            ),
            (
                "active_workload",
                |m, _f| show(m.active_workload()),
                NONE,
                NONE,
            ),
            (
                "active_query_ids",
                |m, _f| show(m.active_query_ids().collect::<Vec<_>>()),
                NONE,
                NONE,
            ),
            ("query_active", |m, f| show(m.query_active(f.q)), NONE, NONE),
            ("query_weight", |m, f| show(m.query_weight(f.q)), NONE, NONE),
            (
                "rotation_generation",
                |m, _f| show(m.rotation_generation()),
                NONE,
                NONE,
            ),
            ("empty_config", |m, _f| show(m.empty_config()), NONE, NONE),
            (
                "config_of",
                |m, f| show(m.config_of(f.cfg.ids())),
                NONE,
                NONE,
            ),
            ("design_of", |m, f| show(m.design_of(&f.cfg)), NONE, NONE),
            ("cost", |m, f| show(m.cost(f.q, &f.cfg)), ONE, NONE),
            (
                "cost_plus",
                |m, f| show(m.cost_plus(f.q, &f.cfg, f.cand)),
                ONE,
                NONE,
            ),
            (
                "cost_minus",
                |m, f| show(m.cost_minus(f.q, &f.cfg, 0)),
                ONE,
                NONE,
            ),
            (
                "workload_cost",
                |m, f| show(m.workload_cost(&f.cfg)),
                PER_QUERY,
                NONE,
            ),
            (
                "workload_cost_plus",
                |m, f| show(m.workload_cost_plus(&f.cfg, f.cand)),
                PER_QUERY,
                NONE,
            ),
            ("n_fragments", |m, _f| show(m.n_fragments()), NONE, NONE),
            ("n_splits", |m, _f| show(m.n_splits()), NONE, NONE),
            (
                "fragment_columns",
                |m, f| show(m.fragment_columns(f.frags[0])),
                NONE,
                NONE,
            ),
            ("split", |m, f| show(m.split(f.split)), NONE, NONE),
            ("empty_joint", |m, _f| show(m.empty_joint()), NONE, NONE),
            (
                "joint_design_of",
                |m, f| show(m.joint_design_of(&f.joint)),
                NONE,
                NONE,
            ),
            (
                "joint_cost (no partitions)",
                |m, f| show(m.joint_cost(f.q, &m.empty_joint())),
                ONE,
                NONE,
            ),
            (
                "joint_cost",
                |m, f| show(m.joint_cost(f.q, &f.joint)),
                ONE,
                ONE,
            ),
            (
                "joint_cost_with",
                |m, f| show(m.joint_cost_with(f.q, &f.joint, &JointToggle::split(f.split))),
                ONE,
                ONE,
            ),
            (
                "joint_workload_cost",
                |m, f| show(m.joint_workload_cost(&f.joint)),
                PER_QUERY,
                PER_QUERY,
            ),
            (
                "joint_workload_cost_with",
                |m, f| show(m.joint_workload_cost_with(&f.joint, &JointToggle::split(f.split))),
                PER_QUERY,
                PER_QUERY,
            ),
            (
                "delta_split",
                |m, f| show(m.delta_split(&f.joint, f.split)),
                TWICE_PER_QUERY,
                TWICE_PER_QUERY,
            ),
        ];

        let d = designer();
        let w = sdss_workload(&d.catalog, 6, 94);
        let mut session = d.tuning_session(w);
        session.advise(&mut IndexAdvisor::default());
        let photo = d.catalog.schema.table_by_name("photoobj").unwrap().id;
        let m = session.matrix_mut();
        let frags = [
            m.register_fragment(photo, &[0, 1, 2]),
            m.register_fragment(photo, &[3, 4, 5]),
        ];
        let rest = m.register_fragment(photo, &(6..16).collect::<Vec<u16>>());
        let split = m.register_split(HorizontalPartitioning::new(
            photo,
            1,
            vec![90.0, 180.0, 270.0],
        ));
        session.publish();
        let matrix = session.matrix();
        let live: Vec<usize> = matrix.candidates().map(|(id, _)| id).collect();
        assert!(live.len() >= 3, "the advisor registers candidates");
        let mut joint = matrix.empty_joint();
        joint.indexes.insert(live[0]);
        for f in [frags[0], frags[1], rest] {
            joint.fragments.insert(f);
        }
        let fx = ReadFixture {
            q: matrix.active_query_ids().next().unwrap(),
            cfg: matrix.config_of(live.iter().copied().take(2)),
            cand: live[2],
            joint,
            frags,
            split,
        };
        let n = matrix.active_query_ids().count() as u64;

        let matrix_reader = matrix.reader();
        let session_reader = session.reader();
        // (handle, core, counts on the reader side)
        let handles: [(&str, &MatrixCore, bool); 4] = [
            ("&CostMatrix", matrix, false),
            ("&MatrixSnapshot", matrix_reader.snapshot(), true),
            ("&MatrixReader", &matrix_reader, true),
            ("&SessionReader", &session_reader, true),
        ];
        // (writer lookups, writer partition, reader lookups)
        let counters = || {
            let s = session.stats().matrix;
            (s.lookups, s.partition_lookups, matrix.reader_lookups())
        };
        for &(name, read, lookups, partition) in &table {
            let lookups = lookups.0 + lookups.1 * n;
            let partition = partition.0 + partition.1 * n;
            let expected = read(matrix, &fx);
            for (handle, core, reader_side) in handles {
                let before = counters();
                assert_eq!(read(core, &fx), expected, "{name} through {handle}");
                let after = counters();
                let moved = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
                let want = if reader_side {
                    (0, 0, lookups)
                } else {
                    (lookups, partition, 0)
                };
                assert_eq!(moved, want, "{name} through {handle}: counters");
            }
        }
    }

    #[test]
    fn stale_generation_treats_unknown_ids_as_unselected() {
        let d = designer();
        let w = sdss_workload(&d.catalog, 6, 95);
        let cands = workload_candidates(&d.catalog, &w, &CandidateConfig::default()).indexes;
        let half = cands.len() / 2;
        assert!(half >= 1);
        let photo = d.catalog.schema.table_by_name("photoobj").unwrap().id;

        let mut session = d.tuning_session(w.clone());
        session.matrix_mut().add_candidates(&cands[..half]);
        session.publish();
        let stale = session.reader();
        session.matrix_mut().add_candidates(&cands[half..]);
        let frag = session.matrix_mut().register_fragment(photo, &[0, 1, 2]);
        let split = session
            .matrix_mut()
            .register_split(HorizontalPartitioning::new(photo, 1, vec![180.0]));
        session.publish();
        let fresh = session.reader();
        assert!(stale.is_stale() && !fresh.is_stale());

        // A writer that only ever saw the first half is stale the same way.
        let inum = Inum::new(&d.catalog, &d.optimizer);
        let old_writer = CostMatrix::build(&inum, &w, &cands[..half]);

        // A configuration built against the newer generation…
        let last = cands.len() - 1;
        let mut cfg = fresh.empty_joint();
        cfg.indexes.insert(0);
        cfg.indexes.insert(last);
        cfg.fragments.insert(frag);
        cfg.splits.insert(split);
        // …restricted to what the older generation knows.
        let known = stale.config_of([0]);
        let mut known_joint = stale.empty_joint();
        known_joint.indexes.insert(0);

        let old: [(&str, &MatrixCore); 3] = [
            ("CostMatrix", &old_writer),
            ("MatrixSnapshot", stale.snapshot()),
            ("SessionReader", &stale),
        ];
        for (name, core) in old {
            assert_eq!(
                core.design_of(&cfg.indexes),
                core.design_of(&known),
                "{name}"
            );
            assert_eq!(
                core.joint_design_of(&cfg),
                core.joint_design_of(&known_joint)
            );
            for qi in core.active_query_ids() {
                assert_eq!(
                    core.cost(qi, &cfg.indexes),
                    core.cost(qi, &known),
                    "{name} Q{qi}"
                );
                assert_eq!(
                    core.joint_cost(qi, &cfg),
                    core.joint_cost(qi, &known_joint),
                    "{name} Q{qi}: unknown fragment and split ids are unselected"
                );
                let toggle = JointToggle {
                    add_fragment: Some(frag),
                    add_split: Some(split),
                    ..Default::default()
                };
                assert_eq!(
                    core.joint_cost_with(qi, &known_joint, &toggle),
                    core.joint_cost(qi, &known_joint),
                    "{name} Q{qi}: unknown toggle ids are unselected"
                );
            }
        }
        assert_eq!(stale.evaluate(&[0, last]), stale.evaluate(&[0]));
        // The newer generation does see them.
        assert!(fresh.candidate(last).is_some() && stale.candidate(last).is_none());
    }
}
