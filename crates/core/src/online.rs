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
//! accumulates the cost series the demo plots ("our tool presents the
//! change in system's performance accruing from adopting the new
//! suggested indexes").

use crate::designer::Designer;
use crate::fixed::{push_fixed, push_uint, Align};
use crate::health::{DegradeReason, ServiceHealth};
use crate::session::{Advisor, TuningSession};
use pgdesign_colt::{ColtConfig, ColtTuner, EpochMode, EpochReport, TunerState};
use pgdesign_query::ast::Query;
use pgdesign_query::Workload;

/// Sidecar file (beside `matrix.pgds`) holding the COLT tuner's EWMA
/// profiling state and current design. Optional and version-gated: a
/// missing, corrupt, or version-skewed sidecar restores a cold tuner
/// (EWMAs re-warm within an epoch or two) — never an error.
const TUNER_SIDECAR: &str = "tuner.pgds";

/// A continuous-tuning session over a shared [`TuningSession`] matrix.
pub struct OnlineSession<'a> {
    tuner: ColtTuner<'a>,
    reports: Vec<EpochReport>,
    session: TuningSession<'a>,
}

impl<'a> OnlineSession<'a> {
    /// Start the tuner over `session` (in memory from
    /// [`Designer::online_session`], durable from
    /// [`Self::open_or_create_on`]), then try the tuner sidecar's warm
    /// start. An in-memory session has no sidecar; decode failures of any
    /// kind mean a cold tuner.
    pub(crate) fn new(mut session: TuningSession<'a>, config: ColtConfig) -> Self {
        // The tuner borrows only the designer's catalog/optimizer (true
        // `'a` data) — its cost calls go through the session matrix it is
        // handed per call, so it holds no reference into the session.
        let designer = session.designer();
        let mut tuner = ColtTuner::new(&designer.catalog, &designer.optimizer, config);
        if let Some(bytes) = session.read_sidecar(TUNER_SIDECAR) {
            match TunerState::decode(&bytes) {
                Ok(state) => tuner.restore_state(state),
                Err(e) => eprintln!("pgdesign: tuner sidecar unusable ({e}); starting cold"),
            }
        }
        OnlineSession {
            tuner,
            reports: Vec::new(),
            session,
        }
    }

    /// Start a *durable* session on `store` (an `FsStore` over a state
    /// directory, or a fault-injection `MemStore`): a restarted stream
    /// resumes on the previous run's resident matrix — no matrix build,
    /// recurring queries reuse their cells from the first epoch on
    /// (`tuning_stats().matrix` shows `builds == 0` and
    /// `cells_reused > 0`). The COLT tuner's profiling state (benefit
    /// EWMA, current design) rides along as an optional, version-gated
    /// sidecar snapshot: a restart restores design continuity when the
    /// sidecar is present and decodes, and falls back to a cold tuner
    /// (EWMAs re-warm within an epoch or two) when it is missing, corrupt,
    /// or written by an older version. See
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

    /// Feed one query; epoch reports accumulate internally. On a durable
    /// session, each epoch boundary (the only point the matrix mutates)
    /// syncs the journaled edits to the edit log before the report is
    /// returned — a crash between epochs replays to exactly the published
    /// epoch state.
    pub fn observe(&mut self, query: Query) -> Option<&EpochReport> {
        if let Some(r) = self.tuner.observe(query, self.session.matrix_mut()) {
            if self.session.is_durable() {
                self.session.sync_durable_logged();
                // Persist the tuner's profiling state beside the matrix.
                // Best-effort: a failed sidecar write only costs the next
                // restart a cold EWMA, never correctness.
                let state = self.tuner.export_state().encode();
                if let Err(e) = self.session.write_sidecar(TUNER_SIDECAR, &state) {
                    eprintln!("pgdesign: tuner sidecar write failed ({e}); continuing");
                }
            }
            self.reports.push(r);
            self.reports.last()
        } else {
            None
        }
    }

    /// Feed a batch of queries.
    pub fn observe_all<I: IntoIterator<Item = Query>>(&mut self, queries: I) {
        for q in queries {
            let _ = self.observe(q);
        }
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

    /// Epoch reports so far.
    pub fn reports(&self) -> &[EpochReport] {
        &self.reports
    }

    /// The tuner's current on-line design.
    pub fn current_design(&self) -> &pgdesign_catalog::design::PhysicalDesign {
        self.tuner.current_design()
    }

    /// Cumulative `(untuned, tuned)` workload cost across all epochs.
    pub fn cumulative_costs(&self) -> (f64, f64) {
        self.reports.iter().fold((0.0, 0.0), |(u, t), r| {
            (u + r.untuned_cost, t + r.tuned_cost)
        })
    }

    /// A per-epoch text table of the tuning trajectory. The `dropped`
    /// column counts candidates the what-if budget truncated out of the
    /// epoch's probe plan (no benefit evidence gathered).
    pub fn trajectory(&self) -> String {
        // Each row is the bytes of
        // "{:>5}  {:>11.1}  {:>11.1}  {:>6.1}  {:>7}  {:>7}".
        let mut s = crate::report::report_buffer(self.reports.len());
        s.push_str("epoch  untuned      tuned        builds  indexes  dropped\n");
        for r in &self.reports {
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
        }
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
        s.observe_all(std::iter::repeat_with(|| q.clone()).take(15));
        assert_eq!(s.reports().len(), 3);
        let (untuned, tuned) = s.cumulative_costs();
        assert!(untuned > 0.0 && tuned > 0.0);
        let text = s.trajectory();
        assert!(text.lines().count() >= 4);
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
        s.observe_all(std::iter::repeat_with(|| q.clone()).take(40));
        let last = s.reports().last().unwrap();
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
        s.observe_all(std::iter::repeat_with(|| q.clone()).take(10));
        assert_eq!(s.reports().len(), 4);
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
            s.observe_all(std::iter::repeat_with(|| q.clone()).take(47));
            assert_eq!(s.reports().len(), 9);
        } // kill -9: the session is dropped without any shutdown path

        let mut s = OnlineSession::open_or_create_on(&d, config(), Box::new(disk))
            .expect("reopen after kill");
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
        s.observe_all(std::iter::repeat_with(|| q.clone()).take(5));
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
        s.observe_all(std::iter::repeat_with(|| q.clone()).take(5));
        assert_eq!(s.reports().len(), 2);
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
        s.observe_all(std::iter::repeat_with(|| q.clone()).take(5));
        let stats = s.tuning_stats();
        assert_eq!(stats.health, ServiceHealth::Suspended);
        assert!(stats.io_suspensions >= 1);
        // Tuning itself continues in memory — no panic, reports flow.
        s.observe_all(std::iter::repeat_with(|| q.clone()).take(5));
        assert_eq!(s.reports().len(), 2);
    }

    #[test]
    fn tuner_sidecar_restores_design_continuity_across_restart() {
        use pgdesign_durability::SharedMemStore;

        let d = Designer::new(sdss_catalog(0.01));
        let q = parse_query(&d.catalog.schema, "SELECT ra FROM photoobj WHERE objid = 7").unwrap();
        let config = || ColtConfig {
            epoch_length: 5,
            payback_horizon_epochs: 10.0,
            ..Default::default()
        };

        let disk = SharedMemStore::new();
        {
            let mut s = OnlineSession::open_or_create_on(&d, config(), Box::new(disk.clone()))
                .expect("first open");
            s.observe_all(std::iter::repeat_with(|| q.clone()).take(40));
            assert!(
                !s.current_design().indexes().is_empty(),
                "steady state materializes the objid index"
            );
        } // hard kill

        let s =
            OnlineSession::open_or_create_on(&d, config(), Box::new(disk.clone())).expect("reopen");
        assert!(
            !s.current_design().indexes().is_empty(),
            "the sidecar must restore the materialized design before any epoch runs"
        );

        // A corrupt sidecar degrades to a cold tuner, never an error.
        {
            use pgdesign_durability::DurableStore as _;
            let mut store = disk.lock();
            let len = store.read("tuner.pgds").unwrap().unwrap().len();
            store.corrupt("tuner.pgds", len / 2);
        }
        let cold = OnlineSession::open_or_create_on(&d, config(), Box::new(disk))
            .expect("open over corrupt sidecar");
        assert!(
            cold.current_design().indexes().is_empty(),
            "corrupt sidecar restores a cold tuner"
        );
    }

    #[test]
    fn version_1_tuner_sidecar_starts_cold_and_keeps_tuning() {
        use pgdesign_colt::TunerStateError;
        use pgdesign_durability::{write_snapshot, SharedMemStore};

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

        // Swap in a sidecar written by the last build that spoke tuner
        // codec version 1 (it names a materialized index on table 0):
        // CRC-valid, so it reaches `TunerState::decode`.
        let v1_hex = "0100000007000000000000000100000000000000000100000000000100000000000000\
                      00010000000900000000000000294003000000000000000600000000000000";
        let v1: Vec<u8> = (0..v1_hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&v1_hex[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(TunerState::decode(&v1), Err(TunerStateError::Version(1)));
        write_snapshot(&mut *disk.lock(), TUNER_SIDECAR, &[v1]).unwrap();

        let mut s = open();
        assert!(
            s.current_design().indexes().is_empty(),
            "a version-1 sidecar restores a cold tuner"
        );
        s.observe_all(std::iter::repeat_with(|| q.clone()).take(40));
        assert_eq!(s.reports().len(), 8);
        assert!(!s.current_design().indexes().is_empty(), "and re-warms");
        drop(s);
        // The sidecar written since is the current version: warm again.
        assert!(!open().current_design().indexes().is_empty());
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
