//! On-disk file formats: the checksummed snapshot (`.pgds`) and the
//! append-only edit log (`.pgdl`).
//!
//! Both files are built from one framing unit, the *record*:
//!
//! ```text
//! [len: u32 LE][crc32(payload): u32 LE][payload: len bytes]
//! ```
//!
//! Snapshot file (written atomically, so it is either entirely present or
//! entirely absent — corruption here means bit rot, not a torn write):
//!
//! ```text
//! [magic "PGDS"][format version: u32][body crc32: u32][records...]
//! ```
//!
//! Edit log (appended to one batch of records at a time with one fsync
//! per batch, so the tail may be torn by a crash between append and
//! fsync):
//!
//! ```text
//! [magic "PGDL"][format version: u32][snapshot crc32: u32][records...]
//! ```
//!
//! The log header embeds the body CRC of the snapshot it extends: edit
//! records are positional (candidate/query slot ids), so replaying them
//! against any other base state would be wrong. A log that does not match
//! the snapshot on disk is discarded, never replayed.

use crate::codec::{ByteReader, CodecError};
use crate::crc::crc32;
use crate::store::DurableStore;
use std::io;

/// Bumped whenever the record payload layout changes incompatibly.
/// A reader that sees a different version falls back to a cold build.
pub const FORMAT_VERSION: u32 = 2;

const SNAPSHOT_MAGIC: u32 = u32::from_le_bytes(*b"PGDS");
const LOG_MAGIC: u32 = u32::from_le_bytes(*b"PGDL");
const FILE_HEADER_LEN: usize = 12; // magic + version + crc

/// Little-endian `u32` at `pos`, or `None` past the end — the panic-free
/// primitive the record scanner is built on.
fn read_u32_at(buf: &[u8], pos: usize) -> Option<u32> {
    let bytes: [u8; 4] = buf.get(pos..pos.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

/// Frame one record (length + CRC + payload) onto `out`.
fn frame_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Result of scanning a record stream that may end in a torn tail.
#[derive(Debug, Default)]
pub struct RecordScan {
    /// Complete, CRC-verified records in order.
    pub records: Vec<Vec<u8>>,
    /// Record frames abandoned at the tail (a partial or corrupt frame
    /// counts as one: past the first bad frame nothing can be trusted).
    pub dropped_records: u64,
    /// Bytes abandoned at the tail.
    pub dropped_bytes: u64,
}

/// Scan records until the end of input or the first frame whose length or
/// CRC does not check out; everything from that point on is dropped. This
/// is the WAL discipline: truncate at the last good record.
fn scan_records(buf: &[u8]) -> RecordScan {
    let mut scan = RecordScan::default();
    let mut pos = 0;
    while pos < buf.len() {
        // A frame header or payload running past the end reads as `None`:
        // that is the torn tail.
        let (Some(len), Some(crc)) = (read_u32_at(buf, pos), read_u32_at(buf, pos + 4)) else {
            break; // partial frame header
        };
        let len = len as usize;
        let Some(payload) = buf.get(pos + 8..pos + 8 + len) else {
            break; // partial payload
        };
        if crc32(payload) != crc {
            break; // corrupt payload (torn rewrite or bit rot)
        }
        scan.records.push(payload.to_vec());
        pos += 8 + len;
    }
    if pos < buf.len() {
        scan.dropped_records = 1;
        scan.dropped_bytes = (buf.len() - pos) as u64;
    }
    scan
}

/// Strict variant for the snapshot body, where a torn tail is impossible
/// (atomic replace) and any bad frame means the file is corrupt.
fn read_records_strict(buf: &[u8]) -> Result<Vec<Vec<u8>>, CodecError> {
    let scan = scan_records(buf);
    if scan.dropped_bytes > 0 {
        return Err(CodecError {
            what: "corrupt record in snapshot body",
            at: buf.len() - scan.dropped_bytes as usize,
        });
    }
    Ok(scan.records)
}

// ---------------------------------------------------------------------------
// Snapshot file
// ---------------------------------------------------------------------------

/// Why a snapshot could not be used. Every variant is a *graceful* path:
/// the caller falls back to a cold build with this as the logged reason.
#[derive(Debug)]
pub enum SnapshotFileError {
    /// No snapshot on disk (first run).
    Missing,
    /// The file is not a pgdesign snapshot at all.
    BadMagic,
    /// Written by an incompatible format version.
    VersionSkew {
        found: u32,
    },
    /// Checksum or structure failure (bit rot, flipped byte, truncation).
    Corrupt(&'static str),
    Io(io::Error),
}

impl std::fmt::Display for SnapshotFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotFileError::Missing => write!(f, "no snapshot on disk"),
            SnapshotFileError::BadMagic => write!(f, "bad magic (not a pgdesign snapshot)"),
            SnapshotFileError::VersionSkew { found } => {
                write!(
                    f,
                    "format version skew (found v{found}, want v{FORMAT_VERSION})"
                )
            }
            SnapshotFileError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotFileError::Io(e) => write!(f, "snapshot i/o error: {e}"),
        }
    }
}

/// A verified snapshot: its records and the body CRC that names it (the
/// same CRC a matching edit log must carry in its header).
pub struct SnapshotFile {
    pub records: Vec<Vec<u8>>,
    pub body_crc: u32,
}

/// Atomically write a snapshot file; returns the body CRC identifying it.
pub fn write_snapshot(
    store: &mut dyn DurableStore,
    name: &str,
    records: &[Vec<u8>],
) -> io::Result<u32> {
    let mut body = Vec::new();
    for rec in records {
        frame_record(&mut body, rec);
    }
    let body_crc = crc32(&body);
    let mut file = Vec::with_capacity(FILE_HEADER_LEN + body.len());
    file.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
    file.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    file.extend_from_slice(&body_crc.to_le_bytes());
    file.extend_from_slice(&body);
    store.write_atomic(name, &file)?;
    Ok(body_crc)
}

/// Read and fully verify a snapshot file.
pub fn read_snapshot(
    store: &mut dyn DurableStore,
    name: &str,
) -> Result<SnapshotFile, SnapshotFileError> {
    let bytes = store
        .read(name)
        .map_err(SnapshotFileError::Io)?
        .ok_or(SnapshotFileError::Missing)?;
    if bytes.len() < FILE_HEADER_LEN {
        return Err(SnapshotFileError::Corrupt("file shorter than header"));
    }
    let mut r = ByteReader::new(&bytes);
    let short = |_| SnapshotFileError::Corrupt("file shorter than header");
    let magic = r.get_u32().map_err(short)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotFileError::BadMagic);
    }
    let version = r.get_u32().map_err(short)?;
    if version != FORMAT_VERSION {
        return Err(SnapshotFileError::VersionSkew { found: version });
    }
    let body_crc = r.get_u32().map_err(short)?;
    let body = bytes
        .get(FILE_HEADER_LEN..)
        .ok_or(SnapshotFileError::Corrupt("file shorter than header"))?;
    if crc32(body) != body_crc {
        return Err(SnapshotFileError::Corrupt("body checksum mismatch"));
    }
    let records =
        read_records_strict(body).map_err(|_| SnapshotFileError::Corrupt("bad record frame"))?;
    Ok(SnapshotFile { records, body_crc })
}

// ---------------------------------------------------------------------------
// Edit log
// ---------------------------------------------------------------------------

/// Reset the log to an empty one bound to `snapshot_crc` — this is the
/// checkpoint truncation, done as an atomic replace so a crash during
/// checkpointing leaves either the old log or the fresh empty one.
pub fn log_reset(store: &mut dyn DurableStore, name: &str, snapshot_crc: u32) -> io::Result<()> {
    let mut header = Vec::with_capacity(FILE_HEADER_LEN);
    header.extend_from_slice(&LOG_MAGIC.to_le_bytes());
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&snapshot_crc.to_le_bytes());
    store.write_atomic(name, &header)
}

/// Append a batch of records as one write and make it durable with one
/// fsync, retrying only the *sync*: it is attempted up to
/// `1 + max_retries` times, calling `backoff(attempt)` before each retry
/// (the caller supplies the delay policy — typically a deterministic
/// sleep). Returns the number of retries that were needed; when it
/// returns `Ok`, every record of the batch survives any crash.
///
/// A failed *append* may leave a partial batch on disk; appending it
/// again would land it after the torn frame, where replay's
/// truncate-at-first-bad-frame discipline drops it — so an append error
/// returns immediately and the caller must treat the log as suspect.
pub fn log_append_retrying(
    store: &mut dyn DurableStore,
    name: &str,
    records: &[Vec<u8>],
    max_retries: u32,
    mut backoff: impl FnMut(u32),
) -> io::Result<u32> {
    let mut framed = Vec::with_capacity(records.iter().map(|r| 8 + r.len()).sum());
    for record in records {
        frame_record(&mut framed, record);
    }
    store.append(name, &framed)?;
    let mut attempt = 0u32;
    loop {
        match store.sync(name) {
            Ok(()) => return Ok(attempt),
            Err(e) if attempt >= max_retries => return Err(e),
            Err(_) => {
                backoff(attempt);
                attempt += 1;
            }
        }
    }
}

/// Outcome of opening the edit log against an already-verified snapshot.
#[derive(Debug)]
pub enum LogState {
    /// No log on disk: the snapshot alone is the state.
    Missing,
    /// The log does not extend this snapshot (stale header, wrong magic,
    /// version skew, or it names a different snapshot CRC). It must be
    /// discarded, not replayed.
    Mismatch(&'static str),
    /// Verified records to replay, plus what was dropped at a torn tail.
    Replay(RecordScan),
}

/// Read the log and validate that it extends the snapshot named by
/// `expect_snapshot_crc`. A torn or corrupt tail is truncated at the last
/// good record, never an error.
pub fn log_open(
    store: &mut dyn DurableStore,
    name: &str,
    expect_snapshot_crc: u32,
) -> io::Result<LogState> {
    let bytes = match store.read(name)? {
        None => return Ok(LogState::Missing),
        Some(b) => b,
    };
    if bytes.len() < FILE_HEADER_LEN {
        // The header is written atomically, so a short file is a stale
        // artifact, not a torn tail.
        return Ok(LogState::Mismatch("log shorter than header"));
    }
    let mut r = ByteReader::new(&bytes);
    let (Ok(magic), Ok(version), Ok(snapshot_crc)) = (r.get_u32(), r.get_u32(), r.get_u32()) else {
        return Ok(LogState::Mismatch("log shorter than header"));
    };
    if magic != LOG_MAGIC {
        return Ok(LogState::Mismatch("bad log magic"));
    }
    if version != FORMAT_VERSION {
        return Ok(LogState::Mismatch("log format version skew"));
    }
    if snapshot_crc != expect_snapshot_crc {
        return Ok(LogState::Mismatch("log extends a different snapshot"));
    }
    let body = bytes.get(FILE_HEADER_LEN..).unwrap_or_default();
    Ok(LogState::Replay(scan_records(body)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Failpoint, MemStore};

    #[test]
    fn snapshot_round_trip() {
        let mut s = MemStore::new();
        let recs = vec![b"header".to_vec(), b"cells".to_vec(), Vec::new()];
        let crc = write_snapshot(&mut s, "m.pgds", &recs).unwrap();
        let file = read_snapshot(&mut s, "m.pgds").unwrap();
        assert_eq!(file.records, recs);
        assert_eq!(file.body_crc, crc);
    }

    #[test]
    fn missing_snapshot_is_its_own_error() {
        let mut s = MemStore::new();
        assert!(matches!(
            read_snapshot(&mut s, "nope.pgds"),
            Err(SnapshotFileError::Missing)
        ));
    }

    #[test]
    fn flipped_byte_is_caught_by_checksum() {
        let mut s = MemStore::new();
        write_snapshot(&mut s, "m.pgds", &[b"payload".to_vec()]).unwrap();
        let len = s.read("m.pgds").unwrap().unwrap().len();
        s.corrupt("m.pgds", len - 1);
        assert!(matches!(
            read_snapshot(&mut s, "m.pgds"),
            Err(SnapshotFileError::Corrupt(_))
        ));
    }

    #[test]
    fn version_skew_is_detected() {
        let mut s = MemStore::new();
        write_snapshot(&mut s, "m.pgds", &[b"payload".to_vec()]).unwrap();
        let mut bytes = s.read("m.pgds").unwrap().unwrap();
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        s.write_atomic("m.pgds", &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&mut s, "m.pgds"),
            Err(SnapshotFileError::VersionSkew { .. })
        ));
    }

    #[test]
    fn log_replays_records_and_truncates_torn_tail() {
        let mut s = MemStore::new();
        let batch = |a: &[u8], b: &[u8]| [a.to_vec(), b.to_vec()];
        log_reset(&mut s, "m.pgdl", 0xABCD).unwrap();
        log_append_retrying(&mut s, "m.pgdl", &batch(b"edit-1", b"edit-2"), 0, |_| {}).unwrap();
        // A second batch is appended but the crash happens before fsync;
        // the power cut leaves 5 bytes of it on disk — a torn tail.
        s.arm(Failpoint::FsyncError);
        assert!(
            log_append_retrying(&mut s, "m.pgdl", &batch(b"edit-3", b"edit-4"), 0, |_| {}).is_err()
        );
        s.power_cut(5);
        match log_open(&mut s, "m.pgdl", 0xABCD).unwrap() {
            LogState::Replay(scan) => {
                assert_eq!(scan.records, vec![b"edit-1".to_vec(), b"edit-2".to_vec()]);
                assert_eq!(scan.dropped_records, 1);
                assert_eq!(scan.dropped_bytes, 5);
            }
            other => panic!("expected replay, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_shorter_than_header_is_corrupt_not_a_panic() {
        let mut s = MemStore::new();
        // Every prefix length below the fixed header exercises the
        // guarded slicing in `read_snapshot` — each must surface as a
        // structured `Corrupt`, never an out-of-bounds panic.
        for n in 0..FILE_HEADER_LEN {
            s.write_atomic("m.pgds", &vec![0u8; n]).unwrap();
            assert!(matches!(
                read_snapshot(&mut s, "m.pgds"),
                Err(SnapshotFileError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn log_shorter_than_header_is_mismatch_not_a_panic() {
        let mut s = MemStore::new();
        for n in 1..FILE_HEADER_LEN {
            s.write_atomic("m.pgdl", &vec![0u8; n]).unwrap();
            assert!(matches!(
                log_open(&mut s, "m.pgdl", 0xABCD).unwrap(),
                LogState::Mismatch(_)
            ));
        }
    }

    #[test]
    fn retried_append_survives_transient_fsync_failures() {
        let mut s = MemStore::new();
        log_reset(&mut s, "m.pgdl", 0xABCD).unwrap();
        s.arm(Failpoint::TransientFsync { times: 2 });
        let mut backoffs = Vec::new();
        let batch = [b"edit-1".to_vec(), b"edit-2".to_vec()];
        let retries =
            log_append_retrying(&mut s, "m.pgdl", &batch, 3, |a| backoffs.push(a)).unwrap();
        assert_eq!(retries, 2);
        assert_eq!(backoffs, vec![0, 1]);
        // The batch is durable: a power cut does not lose it.
        s.power_cut(0);
        match log_open(&mut s, "m.pgdl", 0xABCD).unwrap() {
            LogState::Replay(scan) => assert_eq!(scan.records, batch),
            other => panic!("expected replay, got {other:?}"),
        }
    }

    #[test]
    fn retried_append_gives_up_after_the_budget() {
        let mut s = MemStore::new();
        log_reset(&mut s, "m.pgdl", 0xABCD).unwrap();
        s.arm(Failpoint::FsyncError); // permanent, not transient
        let mut attempts = 0;
        let batch = [b"edit-1".to_vec()];
        let err = log_append_retrying(&mut s, "m.pgdl", &batch, 3, |_| attempts += 1)
            .expect_err("permanent fsync failure must surface");
        assert_eq!(attempts, 3, "exactly the retry budget is spent");
        assert!(err.to_string().contains("fsync"));
    }

    #[test]
    fn log_for_a_different_snapshot_is_rejected() {
        let mut s = MemStore::new();
        log_reset(&mut s, "m.pgdl", 0xABCD).unwrap();
        log_append_retrying(&mut s, "m.pgdl", &[b"edit-1".to_vec()], 0, |_| {}).unwrap();
        assert!(matches!(
            log_open(&mut s, "m.pgdl", 0x1234).unwrap(),
            LogState::Mismatch(_)
        ));
    }
}
