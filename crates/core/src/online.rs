//! Continuous tuning sessions — demo scenario 3.
//!
//! A designer-side wrapper that pairs a [`pgdesign_colt::ColtTuner`] with
//! a [`TuningSession`]: the tuner's per-epoch profiling rotates work into
//! the *session's* persistent cost matrix, so everything COLT keeps warm —
//! resident epoch queries, registered candidates, their cells — is
//! immediately available to any other advisor. That is the "background
//! advisor" handoff: a DBA can call [`OnlineSession::advise`] mid-stream
//! and get an offline/joint recommendation computed against the warm
//! matrix (cells are *reused*, not rebuilt — watch
//! [`OnlineSession::tuning_stats`]'s `cells_reused`). The session also
//! keeps the running cost totals the demo plots ("our tool presents the
//! change in system's performance accruing from adopting the new
//! suggested indexes").
//!
//! On a durable session the tuner's state (benefit EWMAs, current design)
//! rides in the generation its epoch published, so a restart restores the
//! matrix and the tuner at the same generation.

use crate::designer::Designer;
use crate::fixed::{push_fixed, push_uint, Align};
use crate::health::{DegradeReason, ServiceHealth};
use crate::session::{Advisor, TuningSession};
use pgdesign_colt::{ColtConfig, ColtTuner, EpochMode, EpochReport, TunerState};
use pgdesign_query::ast::Query;
use pgdesign_query::Workload;

/// A continuous-tuning session over a shared [`TuningSession`] matrix.
pub struct OnlineSession<'a> {
    tuner: ColtTuner<'a>,
    /// The latest epoch's report, the one [`Self::observe`] hands out.
    last: Option<EpochReport>,
    /// Running `(untuned, tuned)` cost totals over every epoch.
    totals: (f64, f64),
    /// Whether the open restored the tuner's state with the matrix.
    tuner_restored: bool,
    session: TuningSession<'a>,
}

impl<'a> OnlineSession<'a> {
    /// The header line of the per-epoch trajectory table; each closed
    /// epoch adds [`Self::trajectory_row`]. The `dropped` column counts
    /// candidates the what-if budget truncated out of the epoch's probe
    /// plan (no benefit evidence gathered).
    pub const TRAJECTORY_HEADER: &'static str =
        "epoch  untuned      tuned        builds  indexes  dropped\n";

    /// Start the tuner over `session` (in memory from
    /// [`Designer::online_session`], durable from
    /// [`Self::open_or_create_on`]), warm from the tuner state the
    /// session restored with its matrix. No state, or state that does not
    /// decode (written by another tuner codec version), means a cold
    /// tuner over the matrix as restored.
    pub(crate) fn new(session: TuningSession<'a>, config: ColtConfig) -> Self {
        // The tuner borrows only the designer's catalog/optimizer (true
        // `'a` data) — its cost calls go through the session matrix it is
        // handed per call, so it holds no reference into the session.
        let designer = session.designer();
        let mut tuner = ColtTuner::new(&designer.catalog, &designer.optimizer, config);
        let restored = session
            .durable_payload()
            .and_then(|bytes| TunerState::decode(bytes).ok());
        let tuner_restored = restored.is_some();
        if let Some(state) = restored {
            tuner.restore_state(state);
        }
        OnlineSession {
            tuner,
            last: None,
            totals: (0.0, 0.0),
            tuner_restored,
            session,
        }
    }

    /// Start a *durable* session on `store` (an `FsStore` over a state
    /// directory, or a fault-injection `MemStore`): a restarted stream
    /// resumes on the previous run's resident matrix — no matrix build,
    /// recurring queries reuse their cells from the first epoch on
    /// (`tuning_stats().matrix` shows `builds == 0` and
    /// `cells_reused > 0`). The COLT tuner's profiling state (benefit
    /// EWMA, current design) is restored at the same generation as the
    /// matrix, so the restart keeps design continuity
    /// ([`Self::tuner_restored`]). A matrix that starts cold starts the
    /// tuner cold too; state written before the tuner's state rode with
    /// the matrix, or by another tuner codec version, restores the matrix
    /// warm and the tuner cold (EWMAs re-warm within an epoch or two). See
    /// [`TuningSession::open_or_create_on`] for the matrix recovery
    /// contract.
    pub fn open_or_create_on(
        designer: &'a Designer,
        config: ColtConfig,
        store: Box<dyn pgdesign_durability::DurableStore>,
    ) -> std::io::Result<Self> {
        let session = TuningSession::open_or_create_on(designer, Workload::new(), store)?;
        Ok(Self::new(session, config))
    }

    /// Feed one query; returns the epoch's report when it closes an
    /// epoch (kept until the next one). On a durable session, each epoch
    /// boundary (the only point the matrix mutates) syncs the journaled
    /// edits to the edit log before the report is returned, with the
    /// tuner's state in the same append — a crash between epochs replays
    /// the matrix and the tuner to exactly the published epoch state.
    pub fn observe(&mut self, query: Query) -> Option<&EpochReport> {
        let report = self.tuner.observe(query, self.session.matrix_mut())?;
        if self.session.is_durable() {
            let state = self.tuner.export_state().encode();
            self.session.sync_durable_logged(Some(state));
        }
        self.totals.0 += report.untuned_cost;
        self.totals.1 += report.tuned_cost;
        Some(self.last.insert(report))
    }

    /// Feed a batch of queries; returns how many epochs they closed.
    pub fn observe_all<I: IntoIterator<Item = Query>>(&mut self, queries: I) -> usize {
        let mut closed = 0;
        for q in queries {
            closed += usize::from(self.observe(q).is_some());
        }
        closed
    }

    /// The underlying tuning session (shared-matrix access).
    pub fn session(&mut self) -> &mut TuningSession<'a> {
        &mut self.session
    }

    /// A concurrent reader over the latest published snapshot of the
    /// session matrix (see [`TuningSession::reader`]). COLT publishes a
    /// generation at every epoch boundary, so readers follow the stream
    /// at epoch granularity without ever blocking it.
    pub fn reader(&self) -> crate::session::SessionReader {
        self.session.reader()
    }

    /// Run an advisor against the session's warm matrix — the
    /// background-advisor handoff of the redesigned API. The advisor sees
    /// the queries currently resident (the recently profiled epochs) and
    /// reuses the candidate cells COLT maintained, so an offline or joint
    /// recommendation mid-stream costs only the cells the stream did not
    /// already pay for.
    ///
    /// The reuse guarantee holds *at hand-off time*: once the stream
    /// resumes, COLT's next epoch rotation evicts candidates it does not
    /// track (including the advisor's leftovers) to keep per-epoch cell
    /// work bounded by workload drift — so batch advisor calls together
    /// rather than interleaving them one-per-epoch.
    pub fn advise<A: Advisor + ?Sized>(&mut self, advisor: &mut A) -> A::Report {
        self.session.advise(advisor)
    }

    /// Whether the open restored the tuner's state with the matrix; false
    /// for in-memory sessions and whenever the tuner started cold.
    pub fn tuner_restored(&self) -> bool {
        self.tuner_restored
    }

    /// The tuner's adaptive state (EWMAs, design, epoch counter) — what a
    /// durable session makes durable with each published generation.
    pub fn tuner_state(&self) -> TunerState {
        self.tuner.export_state()
    }

    /// The tuner's current on-line design.
    pub fn current_design(&self) -> &pgdesign_catalog::design::PhysicalDesign {
        self.tuner.current_design()
    }

    /// Cumulative `(untuned, tuned)` workload cost across all epochs.
    pub fn cumulative_costs(&self) -> (f64, f64) {
        self.totals
    }

    /// One line of the trajectory table (under
    /// [`Self::TRAJECTORY_HEADER`]) for a closed epoch's report.
    pub fn trajectory_row(r: &EpochReport) -> String {
        // The bytes of "{:>5}  {:>11.1}  {:>11.1}  {:>6.1}  {:>7}  {:>7}".
        let mut s = String::with_capacity(Self::TRAJECTORY_HEADER.len());
        push_uint(&mut s, r.epoch as u64, 5, Align::Right);
        s.push_str("  ");
        push_fixed(&mut s, r.untuned_cost, 1, 11);
        s.push_str("  ");
        push_fixed(&mut s, r.tuned_cost, 1, 11);
        s.push_str("  ");
        push_fixed(&mut s, r.build_cost, 1, 6);
        s.push_str("  ");
        push_uint(&mut s, r.materialized.len() as u64, 7, Align::Right);
        s.push_str("  ");
        push_uint(&mut s, r.candidates_dropped as u64, 7, Align::Right);
        s.push('\n');
        s
    }

    /// INUM / cost-matrix counters of the session — what `pgdesign online`
    /// prints after the trajectory (the on-line analogue of
    /// `recommend --stats`). Shows the persistent-matrix economics: one
    /// build, per-epoch cells computed vs reused, and total build time.
    pub fn tuning_stats(&self) -> crate::report::TuningStats {
        let mut stats = self.session.stats();
        stats.stale_generations = self.tuner.staleness_generations();
        stats.health = self.health();
        stats
    }

    /// The daemon's service health: the worst of the tuner's epoch ladder
    /// (stale generations, deadline-pressured epochs) and the session's
    /// durable-log condition.
    pub fn health(&self) -> ServiceHealth {
        let ladder = if self.tuner.staleness_generations() > 0 {
            ServiceHealth::Degraded(DegradeReason::StaleGenerations)
        } else if self.tuner.last_epoch_mode() == EpochMode::IncrementalOnly {
            ServiceHealth::Degraded(DegradeReason::DeadlinePressure)
        } else {
            ServiceHealth::Healthy
        };
        ladder.worst(self.session.health())
    }

    /// Bound (or unbound, with `None`) the wall-clock time any one epoch
    /// close may take; see `ColtConfig::epoch_deadline` and the
    /// degradation ladder on `ColtTuner::end_epoch`.
    pub fn set_epoch_deadline(&mut self, deadline: Option<std::time::Duration>) {
        self.tuner.set_epoch_deadline(deadline);
    }

    /// Inject the clock epoch deadlines are measured on (tests pass a
    /// manual or ticking clock for deterministic expiry).
    pub fn set_clock(&mut self, clock: std::sync::Arc<dyn crate::health::Clock>) {
        self.tuner.set_clock(clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{IndexAdvisor, OfflineAdvisor};
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_query::parse_query;

    #[test]
    fn online_session_accumulates_reports() {
        let d = Designer::new(sdss_catalog(0.01));
        let mut s = d.online_session(ColtConfig {
            epoch_length: 5,
            ..Default::default()
        });
        let q = parse_query(
            &d.catalog.schema,
            "SELECT ra FROM photoobj WHERE objid = 42",
        )
        .unwrap();
        let mut text = OnlineSession::TRAJECTORY_HEADER.to_string();
        let mut sums = (0.0, 0.0);
        for q in std::iter::repeat_with(|| q.clone()).take(15) {
            if let Some(r) = s.observe(q) {
                text += &OnlineSession::trajectory_row(r);
                sums = (sums.0 + r.untuned_cost, sums.1 + r.tuned_cost);
            }
        }
        assert_eq!(text.lines().count(), 4, "a header and three epochs");
        let (untuned, tuned) = s.cumulative_costs();
        assert!(untuned > 0.0 && tuned > 0.0);
        assert_eq!(
            (untuned.to_bits(), tuned.to_bits()),
            (sums.0.to_bits(), sums.1.to_bits())
        );
        assert!(!s.tuner_restored(), "an in-memory session starts cold");
    }

    #[test]
    fn tuned_eventually_beats_untuned() {
        let d = Designer::new(sdss_catalog(0.01));
        let mut s = d.online_session(ColtConfig {
            epoch_length: 5,
            payback_horizon_epochs: 10.0,
            ..Default::default()
        });
        let q = parse_query(&d.catalog.schema, "SELECT ra FROM photoobj WHERE objid = 7").unwrap();
        let mut last = None;
        for q in std::iter::repeat_with(|| q.clone()).take(40) {
            if let Some(r) = s.observe(q) {
                last = Some(r.clone());
            }
        }
        let last = last.unwrap();
        assert!(
            last.tuned_cost < last.untuned_cost / 10.0,
            "steady state should be indexed: {} vs {}",
            last.tuned_cost,
            last.untuned_cost
        );
        assert!(!s.current_design().indexes().is_empty());
    }

    #[test]
    fn offline_advice_mid_stream_reuses_the_warm_matrix() {
        // The acceptance pin for the background-advisor handoff: an
        // offline recommendation right after an online run must run on the
        // session's warm matrix — no new build, resident cells reused.
        let d = Designer::new(sdss_catalog(0.01));
        let mut s = d.online_session(ColtConfig {
            epoch_length: 10,
            ..Default::default()
        });
        let q = parse_query(
            &d.catalog.schema,
            "SELECT ra FROM photoobj WHERE objid = 42",
        )
        .unwrap();
        s.observe_all(std::iter::repeat_with(|| q.clone()).take(30));
        let before = s.tuning_stats();
        assert_eq!(before.matrix.builds, 1, "one session-lifetime matrix");

        let rec = s.advise(&mut IndexAdvisor::default());
        let after = s.tuning_stats();
        assert_eq!(
            after.matrix.builds, before.matrix.builds,
            "the offline advisor must reuse the session matrix, not rebuild"
        );
        assert!(
            after.matrix.cells_reused > before.matrix.cells_reused,
            "the advisor's candidates overlap COLT's — their cells must be reused"
        );
        assert!(rec.cost <= rec.base_cost + 1e-6);
        assert!(
            !rec.indexes.is_empty(),
            "the resident point-lookup workload clearly wants an index"
        );

        // The stream continues unharmed after the handoff.
        assert_eq!(
            s.observe_all(std::iter::repeat_with(|| q.clone()).take(10)),
            1
        );
    }

    #[test]
    fn durable_restart_resumes_without_a_build() {
        // The PR's acceptance pin: kill an online session mid-stream,
        // reopen on the same store, and the restarted stream's first epoch
        // runs entirely on restored cells — no matrix build at all.
        use pgdesign_durability::SharedMemStore;

        let d = Designer::new(sdss_catalog(0.01));
        let q = parse_query(
            &d.catalog.schema,
            "SELECT ra FROM photoobj WHERE objid = 42",
        )
        .unwrap();
        let config = || ColtConfig {
            epoch_length: 5,
            ..Default::default()
        };

        let disk = SharedMemStore::new();
        {
            let mut s = OnlineSession::open_or_create_on(&d, config(), Box::new(disk.clone()))
                .expect("first open");
            assert_eq!(
                s.tuning_stats().recovery.and_then(|r| r.cold_start),
                Some(crate::report::ColdStart::NoState)
            );
            // 9 epochs: enough publishes to cross the checkpoint
            // threshold, so the reopened state spans a snapshot *and* a
            // log tail; two queries are left mid-epoch (never published,
            // correctly absent after the "kill").
            assert_eq!(
                s.observe_all(std::iter::repeat_with(|| q.clone()).take(47)),
                9
            );
        } // kill -9: the session is dropped without any shutdown path

        let mut s = OnlineSession::open_or_create_on(&d, config(), Box::new(disk))
            .expect("reopen after kill");
        assert!(s.tuner_restored(), "the tuner restarts with the matrix");
        s.observe_all(std::iter::repeat_with(|| q.clone()).take(5));
        let stats = s.tuning_stats();
        let recovery = stats.recovery.expect("durable session reports recovery");
        assert_eq!(recovery.cold_start, None, "second open must be warm");
        assert!(recovery.snapshot_cells_loaded > 0);
        assert!(recovery.log_records_replayed > 0);
        assert_eq!(stats.matrix.builds, 0, "restored matrix, no build");
        assert!(
            stats.matrix.cells_reused > 0,
            "the recurring query's cells come from the snapshot"
        );
    }

    #[test]
    fn transient_fsync_failures_are_retried_not_suspended() {
        use pgdesign_durability::{Failpoint, SharedMemStore};

        let d = Designer::new(sdss_catalog(0.01));
        let q = parse_query(
            &d.catalog.schema,
            "SELECT ra FROM photoobj WHERE objid = 42",
        )
        .unwrap();
        let disk = SharedMemStore::new();
        let mut s = OnlineSession::open_or_create_on(
            &d,
            ColtConfig {
                epoch_length: 5,
                ..Default::default()
            },
            Box::new(disk.clone()),
        )
        .expect("open");
        // Two consecutive fsync failures on the next epoch-boundary sync:
        // within the retry budget, so the log must ride it out.
        disk.lock().arm(Failpoint::TransientFsync { times: 2 });
        assert_eq!(
            s.observe_all(std::iter::repeat_with(|| q.clone()).take(5)),
            1
        );
        let stats = s.tuning_stats();
        assert_eq!(
            stats.io_suspensions, 0,
            "transient failure must not suspend"
        );
        assert!(
            stats.io_retries >= 2,
            "the two injected failures must show as retries, got {}",
            stats.io_retries
        );
        // A later epoch syncs cleanly; by then a checkpoint has cleared the
        // recent-retries signal or the health shows the strain — either
        // way the daemon keeps publishing.
        assert_eq!(
            s.observe_all(std::iter::repeat_with(|| q.clone()).take(5)),
            1
        );
        assert_ne!(s.health(), ServiceHealth::Suspended);
    }

    #[test]
    fn unretryable_append_error_suspends_until_checkpoint() {
        use pgdesign_durability::{Failpoint, SharedMemStore};

        let d = Designer::new(sdss_catalog(0.01));
        let q = parse_query(
            &d.catalog.schema,
            "SELECT ra FROM photoobj WHERE objid = 42",
        )
        .unwrap();
        let disk = SharedMemStore::new();
        let mut s = OnlineSession::open_or_create_on(
            &d,
            ColtConfig {
                epoch_length: 5,
                ..Default::default()
            },
            Box::new(disk.clone()),
        )
        .expect("open");
        // A short write downs the store entirely: the append is not
        // retryable (a partial frame may be on disk) and the healing
        // checkpoint cannot complete either — the log stays suspended.
        disk.lock().arm(Failpoint::ShortWrite { keep: 0 });
        assert_eq!(
            s.observe_all(std::iter::repeat_with(|| q.clone()).take(5)),
            1
        );
        let stats = s.tuning_stats();
        assert_eq!(stats.health, ServiceHealth::Suspended);
        assert!(stats.io_suspensions >= 1);
        // Tuning itself continues in memory — no panic, reports flow.
        assert_eq!(
            s.observe_all(std::iter::repeat_with(|| q.clone()).take(5)),
            1
        );
    }

    /// Replace the tuner record that ends the snapshot with `f` of its
    /// bytes. The record stays CRC-valid, so its bytes reach
    /// `TunerState::decode`.
    fn rewrite_tuner_record(
        disk: &pgdesign_durability::SharedMemStore,
        f: impl FnOnce(Vec<u8>) -> Vec<u8>,
    ) {
        use crate::durable::{LOG_NAME, SNAPSHOT_NAME};
        use pgdesign_durability::{log_reset, read_snapshot, write_snapshot};
        use pgdesign_inum::{decode_edit, encode_edit, MatrixEdit};

        let mut store = disk.lock();
        let mut records = read_snapshot(&mut *store, SNAPSHOT_NAME).unwrap().records;
        let last = records.last_mut().unwrap();
        let Ok(MatrixEdit::Payload(bytes)) = decode_edit(last) else {
            panic!("the snapshot ends in the tuner record");
        };
        *last = encode_edit(&MatrixEdit::Payload(f(bytes)));
        let crc = write_snapshot(&mut *store, SNAPSHOT_NAME, &records).unwrap();
        log_reset(&mut *store, LOG_NAME, crc).unwrap();
    }

    #[test]
    fn tuner_record_restores_design_continuity_across_restart() {
        use pgdesign_durability::SharedMemStore;

        let d = Designer::new(sdss_catalog(0.01));
        let q = parse_query(&d.catalog.schema, "SELECT ra FROM photoobj WHERE objid = 7").unwrap();
        let config = || ColtConfig {
            epoch_length: 5,
            payback_horizon_epochs: 10.0,
            ..Default::default()
        };

        let disk = SharedMemStore::new();
        let open = || {
            OnlineSession::open_or_create_on(&d, config(), Box::new(disk.clone())).expect("open")
        };
        let exported = {
            let mut s = open();
            s.observe_all(std::iter::repeat_with(|| q.clone()).take(40));
            assert!(
                !s.current_design().indexes().is_empty(),
                "steady state materializes the objid index"
            );
            s.tuner_state()
        }; // hard kill

        let s = open();
        assert!(s.tuner_restored());
        assert_eq!(
            s.tuner_state(),
            exported,
            "the log's tuner record restores the design and EWMAs before any epoch runs"
        );
        drop(s);
        // That open's checkpoint re-wrote the record into the snapshot.
        assert_eq!(open().tuner_state(), exported);

        // A corrupt tuner record (CRC-valid, its bytes cut short) restores
        // a cold tuner over the warm matrix, never an error, and tuning
        // continues.
        rewrite_tuner_record(&disk, |bytes| bytes[..bytes.len() / 2].to_vec());
        let mut cold = open();
        let recovery = cold.tuning_stats().recovery.unwrap();
        assert_eq!(recovery.cold_start, None, "the matrix is warm");
        assert!(recovery.snapshot_cells_loaded > 0);
        assert!(!cold.tuner_restored());
        assert!(
            cold.current_design().indexes().is_empty(),
            "corrupt tuner record restores a cold tuner"
        );
        assert_eq!(
            cold.observe_all(std::iter::repeat_with(|| q.clone()).take(40)),
            8
        );
        assert!(!cold.current_design().indexes().is_empty(), "and re-warms");
    }

    #[test]
    fn version_1_tuner_record_starts_cold_and_keeps_tuning() {
        use pgdesign_colt::TunerStateError;
        use pgdesign_durability::SharedMemStore;

        let d = Designer::new(sdss_catalog(0.01));
        let q = parse_query(&d.catalog.schema, "SELECT ra FROM photoobj WHERE objid = 7").unwrap();
        let config = || ColtConfig {
            epoch_length: 5,
            payback_horizon_epochs: 10.0,
            ..Default::default()
        };
        let disk = SharedMemStore::new();
        let open = || {
            OnlineSession::open_or_create_on(&d, config(), Box::new(disk.clone())).expect("open")
        };
        open().observe_all(std::iter::repeat_with(|| q.clone()).take(40));
        // The reopen folds the log into the snapshot, tuner record last.
        drop(open());

        // Swap in tuner bytes written by the last build that spoke tuner
        // codec version 1 (they name a materialized index on table 0).
        let v1_hex = "0100000007000000000000000100000000000000000100000000000100000000000000\
                      00010000000900000000000000294003000000000000000600000000000000";
        let v1: Vec<u8> = (0..v1_hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&v1_hex[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(TunerState::decode(&v1), Err(TunerStateError::Version(1)));
        rewrite_tuner_record(&disk, |_| v1);

        let mut s = open();
        assert_eq!(s.tuning_stats().recovery.unwrap().cold_start, None);
        assert!(!s.tuner_restored());
        assert!(
            s.current_design().indexes().is_empty(),
            "a version-1 tuner record restores a cold tuner"
        );
        assert_eq!(
            s.observe_all(std::iter::repeat_with(|| q.clone()).take(40)),
            8
        );
        assert!(!s.current_design().indexes().is_empty(), "and re-warms");
        drop(s);
        // The records written since are the current version: warm again.
        let s = open();
        assert!(s.tuner_restored());
        assert!(!s.current_design().indexes().is_empty());
    }

    /// State written before the tuner's state rode with the matrix (format
    /// version 2: a snapshot, a log and a separate tuner file), by that
    /// version's `OnlineSession` over `sdss_catalog(0.01)`, 45 queries of
    /// `objid = 7` in epochs of 5: it reopens with the matrix warm and the
    /// tuner cold, the open's checkpoint writes the current version and
    /// the tuner file goes, and the next open is warm.
    #[test]
    fn version_2_state_reopens_with_the_matrix_warm_and_the_tuner_cold() {
        use pgdesign_durability::{DurableStore as _, SharedMemStore};

        let dir = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/v2-online-state"
        );
        let disk = SharedMemStore::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            // `<file>.bin` holds the bytes of state file `<file>`.
            let path = entry.unwrap().path();
            let name = path.file_stem().unwrap().to_str().unwrap().to_string();
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(&bytes[4..8], &2u32.to_le_bytes(), "{name}");
            disk.lock().write_atomic(&name, &bytes).unwrap();
        }

        let d = Designer::new(sdss_catalog(0.01));
        let q = parse_query(&d.catalog.schema, "SELECT ra FROM photoobj WHERE objid = 7").unwrap();
        let config = || ColtConfig {
            epoch_length: 5,
            payback_horizon_epochs: 10.0,
            ..Default::default()
        };
        let open = || {
            OnlineSession::open_or_create_on(&d, config(), Box::new(disk.clone())).expect("open")
        };
        let mut s = open();
        let recovery = s.tuning_stats().recovery.unwrap();
        assert_eq!(recovery.cold_start, None, "the matrix is warm");
        assert!(recovery.snapshot_cells_loaded > 0);
        assert!(recovery.log_records_replayed > 0);
        assert_eq!(recovery.log_records_dropped, 0);
        assert!(!s.tuner_restored(), "version 2 carries no tuner record");
        assert!(s.current_design().indexes().is_empty());
        s.observe_all(std::iter::repeat_with(|| q.clone()).take(5));
        let stats = s.tuning_stats();
        assert_eq!(stats.matrix.builds, 0, "restored matrix, no build");
        assert!(stats.matrix.cells_reused > 0);
        drop(s);

        // The open wrote the current version and removed the tuner file.
        assert_eq!(
            disk.lock().file_names(),
            [crate::durable::LOG_NAME, crate::durable::SNAPSHOT_NAME]
        );

        let s = open();
        assert!(s.tuner_restored(), "written back at the current version");
        assert_eq!(s.tuning_stats().recovery.unwrap().cold_start, None);
        let mut store = disk.lock();
        let snapshot = store.read(crate::durable::SNAPSHOT_NAME).unwrap().unwrap();
        assert_eq!(
            &snapshot[4..8],
            &pgdesign_durability::FORMAT_VERSION.to_le_bytes()
        );
        assert_eq!(
            store.file_names(),
            [crate::durable::LOG_NAME, crate::durable::SNAPSHOT_NAME]
        );
    }

    #[test]
    fn joint_advice_mid_stream_works_too() {
        let d = Designer::new(sdss_catalog(0.01));
        let mut s = d.online_session(ColtConfig {
            epoch_length: 10,
            ..Default::default()
        });
        let q = parse_query(
            &d.catalog.schema,
            "SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 100 AND 140",
        )
        .unwrap();
        s.observe_all(std::iter::repeat_with(|| q.clone()).take(20));
        let report = s.advise(&mut OfflineAdvisor::new(d.catalog.data_bytes() / 2));
        assert!(report.combined_cost <= report.base_cost + 1e-6);
        assert_eq!(report.stats.matrix.builds, 1, "still one matrix");
    }
}
