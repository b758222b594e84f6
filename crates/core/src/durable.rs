//! Durable persistence of a [`crate::TuningSession`]'s cost matrix —
//! snapshot + edit-log plumbing and the warm-restore policy.
//!
//! The layering: `pgdesign-durability` owns the storage mechanics (CRC'd
//! record framing, atomic snapshot replacement, batched log appends with
//! one fsync each, torn-tail truncation); `pgdesign_inum::matrix::persist`
//! owns the payload codec (what a cell or an edit means); this module owns
//! *policy* — when a restore is trusted, when it degrades to a cold
//! build, when the log is checkpointed into a fresh snapshot.
//!
//! ## What is on disk
//!
//! A state directory holds two files: `matrix.pgds`, a versioned
//! checksummed snapshot of the last checkpointed *published* matrix
//! generation, and `matrix.pgdl`, an append-only edit log whose header is
//! bound to the snapshot's body CRC (a log can only replay against the
//! exact snapshot it was written for — edits are positional, so replaying
//! them against any other base would be wrong, not just stale).
//!
//! ## The durable unit is a published generation
//!
//! Readers only ever see published generations, so only those are made
//! durable: each sync appends the edits of the generations published
//! since the last one — ending at a `Publish` record — as one write with
//! one fsync. Edits made after the last publish are not durable; no
//! reader ever saw them. Replay stops at the last `Publish` record, so a
//! crash mid-append restores the previous published generation exactly.
//!
//! ## The recovery ladder
//!
//! Recovery degrades gracefully, never wrongly:
//!
//! 1. snapshot reads, decodes, and matches the catalog → warm restore;
//!    cells whose table statistics changed are recomputed (counted in
//!    [`RecoveryStats::cells_invalidated_stale`]), everything else is
//!    adopted without a build.
//! 2. the log replays on top through its last `Publish` record — a torn
//!    or corrupt tail is detected by the per-record CRC and dropped at the
//!    last good record, and complete records after the last `Publish`
//!    (a partly flushed append) are dropped with it.
//! 3. anything structurally wrong with the snapshot (bad magic/CRC,
//!    format-version skew, catalog shape change) → cold build, with the
//!    reason recorded in [`RecoveryStats::cold_start`] and logged.
//!
//! After every open the session immediately checkpoints: the restored (or
//! cold-built) state becomes a fresh snapshot and the log is truncated,
//! so recovery work is never paid twice.

use crate::health::{io_retry_backoff, IO_RETRY_MAX};
use crate::report::{ColdStart, RecoveryStats};
use pgdesign_durability::{
    log_append_retrying, log_open, log_reset, read_snapshot, write_snapshot, DurableStore,
    LogState, SnapshotFileError,
};
use pgdesign_inum::{
    decode_edit, decode_snapshot, encode_edit, restore_matrix, CostMatrix, Inum, MatrixEdit,
    PersistError,
};
use std::io;

/// Snapshot file name within a state directory.
pub(crate) const SNAPSHOT_NAME: &str = "matrix.pgds";
/// Edit-log file name within a state directory.
pub(crate) const LOG_NAME: &str = "matrix.pgdl";

/// How many publishes may accumulate in the edit log before the session
/// folds them into a fresh snapshot and truncates the log.
const CHECKPOINT_EVERY_PUBLISHES: usize = 8;

/// The durable half of a session: the store, the checkpoint bookkeeping,
/// and the recovery counters from open time.
pub(crate) struct DurableHandle {
    store: Box<dyn DurableStore>,
    publishes_since_checkpoint: usize,
    /// Set when a log append fails beyond the retry budget: further
    /// appends are suppressed (a log with a hole would replay to a
    /// *wrong* matrix) until the next checkpoint rewrites the whole
    /// state atomically.
    degraded: bool,
    /// Transient-fsync retries that succeeded, session lifetime.
    io_retries: u64,
    /// Retries since the last checkpoint (drives the Degraded(IoRetries)
    /// health signal; a checkpoint clears it along with `degraded`).
    retries_since_checkpoint: u64,
    /// Times the log suspended (retry budget exhausted or append error).
    io_suspensions: u64,
    pub(crate) recovery: RecoveryStats,
}

/// `PGDESIGN_KILL_AT_CHECKPOINT=<n>` hard-kills the process (exit 137,
/// no destructors) immediately before the `n`-th checkpoint of this
/// process writes its snapshot — the recovery drill's "die mid-
/// checkpoint" lever. Counted process-wide so multi-session drills
/// still die exactly once.
fn kill_at_checkpoint_hook() {
    use std::sync::atomic::{AtomicU64, Ordering};
    static CHECKPOINTS: AtomicU64 = AtomicU64::new(0);
    let Ok(val) = std::env::var("PGDESIGN_KILL_AT_CHECKPOINT") else {
        return;
    };
    let Ok(ordinal) = val.parse::<u64>() else {
        return;
    };
    let n = CHECKPOINTS.fetch_add(1, Ordering::SeqCst) + 1;
    if n == ordinal {
        eprintln!("pgdesign: PGDESIGN_KILL_AT_CHECKPOINT={ordinal}: exiting hard (137)");
        std::process::exit(137);
    }
}

impl DurableHandle {
    pub(crate) fn new(store: Box<dyn DurableStore>, recovery: RecoveryStats) -> Self {
        DurableHandle {
            store,
            publishes_since_checkpoint: 0,
            degraded: false,
            io_retries: 0,
            retries_since_checkpoint: 0,
            io_suspensions: 0,
            recovery,
        }
    }

    /// Whether the edit log is currently suspended (healed by the next
    /// checkpoint).
    pub(crate) fn is_suspended(&self) -> bool {
        self.degraded
    }

    /// `(lifetime retries, retries since last checkpoint, suspensions)`.
    pub(crate) fn io_counters(&self) -> (u64, u64, u64) {
        (
            self.io_retries,
            self.retries_since_checkpoint,
            self.io_suspensions,
        )
    }

    /// Append a drained journal batch — whole published generations, so
    /// it ends in a `Publish` — to the log as one write with one fsync.
    /// A failed fsync is retried up to [`IO_RETRY_MAX`] times with
    /// deterministic backoff; only when the retry budget is exhausted (or
    /// the append itself fails — not retryable, a partial batch may be on
    /// disk) does the handle suspend the log. Nothing further is appended
    /// while suspended; the next checkpoint, which snapshots the published
    /// state, heals it. Returns whether a checkpoint is due.
    pub(crate) fn append_edits(&mut self, edits: &[MatrixEdit]) -> bool {
        if !self.degraded && !edits.is_empty() {
            let records: Vec<Vec<u8>> = edits.iter().map(encode_edit).collect();
            let appended =
                log_append_retrying(&mut *self.store, LOG_NAME, &records, IO_RETRY_MAX, |a| {
                    std::thread::sleep(io_retry_backoff(a))
                });
            match appended {
                Ok(retries) => {
                    self.io_retries += retries as u64;
                    self.retries_since_checkpoint += retries as u64;
                }
                Err(e) => {
                    eprintln!(
                        "pgdesign: durable log append failed after retries ({e}); \
                         suspending the log until the next checkpoint"
                    );
                    self.degraded = true;
                    self.io_suspensions += 1;
                }
            }
        }
        self.publishes_since_checkpoint += edits
            .iter()
            .filter(|e| matches!(e, MatrixEdit::Publish))
            .count();
        self.degraded || self.publishes_since_checkpoint >= CHECKPOINT_EVERY_PUBLISHES
    }

    /// Write `records` (the published matrix state) as a fresh snapshot
    /// and truncate the log against it. Atomic at every step: a crash
    /// mid-checkpoint leaves either the old state or the new one, both
    /// self-consistent.
    pub(crate) fn checkpoint(&mut self, records: &[Vec<u8>]) -> io::Result<()> {
        kill_at_checkpoint_hook();
        let crc = write_snapshot(&mut *self.store, SNAPSHOT_NAME, records)?;
        log_reset(&mut *self.store, LOG_NAME, crc)?;
        self.degraded = false;
        self.retries_since_checkpoint = 0;
        self.publishes_since_checkpoint = 0;
        Ok(())
    }

    /// Read a named auxiliary snapshot ("sidecar") from the same store —
    /// a single-record checksummed file beside the matrix state. `None`
    /// for anything unusable (missing, corrupt, version-skewed): sidecars
    /// are best-effort warm-start accelerators, never load-bearing.
    pub(crate) fn read_sidecar(&mut self, name: &str) -> Option<Vec<u8>> {
        match read_snapshot(&mut *self.store, name) {
            Ok(file) => file.records.into_iter().next(),
            Err(_) => None,
        }
    }

    /// Write a named auxiliary snapshot (atomic replace, CRC-framed).
    pub(crate) fn write_sidecar(&mut self, name: &str, payload: &[u8]) -> io::Result<()> {
        write_snapshot(&mut *self.store, name, &[payload.to_vec()]).map(|_| ())
    }
}

/// Attempt a warm restore from `store` against `inum`'s catalog. Returns
/// the restored matrix (log replayed through its last published
/// generation), or `None` for any cold-start condition — with the reason
/// in the returned [`RecoveryStats`] either way. Only a real I/O error
/// (unreadable device, not corrupt bytes) aborts the open.
pub(crate) fn try_restore<'a>(
    inum: &Inum<'a>,
    store: &mut dyn DurableStore,
) -> io::Result<(Option<CostMatrix<'a>>, RecoveryStats)> {
    let mut recovery = RecoveryStats::default();
    let cold = |reason: ColdStart, detail: &str, recovery: &mut RecoveryStats| {
        if reason != ColdStart::NoState {
            eprintln!("pgdesign: cold start, {reason}: {detail}");
        }
        recovery.cold_start = Some(reason);
    };

    let file = match read_snapshot(store, SNAPSHOT_NAME) {
        Ok(file) => file,
        Err(SnapshotFileError::Missing) => {
            cold(ColdStart::NoState, "", &mut recovery);
            return Ok((None, recovery));
        }
        Err(SnapshotFileError::VersionSkew { found }) => {
            cold(
                ColdStart::VersionSkew,
                &format!("snapshot has format version {found}"),
                &mut recovery,
            );
            return Ok((None, recovery));
        }
        Err(e @ (SnapshotFileError::BadMagic | SnapshotFileError::Corrupt(_))) => {
            cold(ColdStart::SnapshotCorrupt, &e.to_string(), &mut recovery);
            return Ok((None, recovery));
        }
        Err(SnapshotFileError::Io(e)) => return Err(e),
    };

    let decoded = match decode_snapshot(&file.records) {
        Ok(d) => d,
        Err(e) => {
            cold(ColdStart::SnapshotCorrupt, &e.to_string(), &mut recovery);
            return Ok((None, recovery));
        }
    };
    if !decoded.computed_under(inum.optimizer()) {
        cold(
            ColdStart::OptimizerChanged,
            "cost parameters or join control differ from the snapshot's",
            &mut recovery,
        );
        return Ok((None, recovery));
    }
    let (mut matrix, report) = match restore_matrix(inum, decoded) {
        Ok(r) => r,
        // The only restore-time failure is a catalog whose table set no
        // longer matches the snapshot's — per-table *statistics* drift is
        // handled by invalidation, not failure.
        Err(e @ PersistError::Invalid(_)) => {
            cold(ColdStart::CatalogChanged, &e.to_string(), &mut recovery);
            return Ok((None, recovery));
        }
        Err(e @ PersistError::Codec(_)) => {
            cold(ColdStart::SnapshotCorrupt, &e.to_string(), &mut recovery);
            return Ok((None, recovery));
        }
    };
    recovery.snapshot_cells_loaded = report.cells_loaded;
    recovery.cells_invalidated_stale = report.cells_invalidated;

    match log_open(store, LOG_NAME, file.body_crc)? {
        LogState::Replay(scan) => {
            // A CRC-valid but undecodable record makes everything from it
            // untrustworthy, like a torn tail. Complete records after the
            // last `Publish` are a partly flushed append: never published,
            // so not applied either.
            let edits: Vec<MatrixEdit> = scan
                .records
                .iter()
                .map_while(|record| decode_edit(record).ok())
                .collect();
            let published = edits
                .iter()
                .rposition(|e| matches!(e, MatrixEdit::Publish))
                .map_or(0, |last| last + 1);
            for edit in &edits[..published] {
                matrix.apply_edit(edit);
            }
            recovery.log_records_replayed = published as u64;
            recovery.log_records_dropped =
                scan.dropped_records + (scan.records.len() - published) as u64;
        }
        // A log bound to a different snapshot (a crash between snapshot
        // replacement and log truncation): its edits do not apply to this
        // base, so the snapshot alone is the recovered state.
        LogState::Mismatch(_) | LogState::Missing => {}
    }

    Ok((Some(matrix), recovery))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_durability::MemStore;
    use MatrixEdit::{Publish, RetireQuery, SetQueryWeight};

    /// A store that counts appends and syncs on the way to a `MemStore`.
    #[derive(Default)]
    struct Counting {
        inner: MemStore,
        calls: std::rc::Rc<std::cell::Cell<(usize, usize)>>,
    }

    impl DurableStore for Counting {
        fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>> {
            self.inner.read(name)
        }
        fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
            self.inner.write_atomic(name, bytes)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
            let (a, s) = self.calls.get();
            self.calls.set((a + 1, s));
            self.inner.append(name, bytes)
        }
        fn sync(&mut self, name: &str) -> io::Result<()> {
            let (a, s) = self.calls.get();
            self.calls.set((a, s + 1));
            self.inner.sync(name)
        }
        fn remove(&mut self, name: &str) -> io::Result<()> {
            self.inner.remove(name)
        }
    }

    #[test]
    fn each_batch_is_one_append_and_one_sync() {
        let store = Counting::default();
        let calls = std::rc::Rc::clone(&store.calls);
        let mut h = DurableHandle::new(Box::new(store), RecoveryStats::default());

        // Two published generations in one batch: one append, one sync,
        // and both publishes count toward the checkpoint.
        let batch = [RetireQuery(1), Publish, SetQueryWeight(0, 2.0), Publish];
        assert!(!h.append_edits(&batch));
        assert_eq!(calls.get(), (1, 1));
        assert_eq!(h.publishes_since_checkpoint, 2);

        // Nothing published since the last sync: no disk traffic at all.
        assert!(!h.append_edits(&[]));
        assert_eq!(calls.get(), (1, 1));

        // The checkpoint falls due on the publish that reaches the
        // threshold.
        let remaining = CHECKPOINT_EVERY_PUBLISHES - 2;
        assert!(!h.append_edits(&vec![Publish; remaining - 1]));
        assert!(h.append_edits(&[Publish]));
        assert_eq!(calls.get(), (3, 3));
        assert!(!h.is_suspended());
    }
}
