//! # pgdesign-durability
//!
//! Crash-safe storage primitives for pgdesign's long-lived tuning
//! sessions. This crate is a dependency leaf — it knows nothing about
//! cost matrices or catalogs; it provides the mechanics every durable
//! layer needs:
//!
//! - [`codec`]: an explicit little-endian [`ByteWriter`]/[`ByteReader`]
//!   pair (the wire format is explicit, versioned, and checked; record
//!   layouts are declared on top of it by `pgdesign-inum`'s `Wire`).
//! - [`crc`]: table-driven CRC-32 guarding every record.
//! - [`store`]: the [`DurableStore`] abstraction with a real filesystem
//!   implementation ([`FsStore`]) and a deterministic fault-injection
//!   double ([`MemStore`]) supporting short writes, fsync failures,
//!   crash-after-N-bytes, and explicit power-cut/restart cycles.
//! - [`mod@file`]: the snapshot (`.pgds`) and edit-log (`.pgdl`) framing —
//!   magic headers, format version, per-record CRC, atomic
//!   rename-into-place for snapshots and checkpoint truncation, one
//!   fsync per appended batch of log records, torn-tail truncation.
//!
//! The semantic payloads (what a matrix cell or an edit record *means*)
//! live upstream in `pgdesign-inum`; recovery policy (when to fall back
//! to a cold build, how staleness is handled) lives in `pgdesign` core.

#![forbid(unsafe_code)]
// Recovery code must never panic on untrusted bytes; `.unwrap()` and
// `.expect()` are compile errors here (tests are exempt — a failed
// assertion is exactly what a test wants).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
pub mod crc;
pub mod file;
pub mod store;

pub use codec::{ByteReader, ByteWriter, CodecError};
pub use crc::crc32;
pub use file::{
    log_append_retrying, log_open, log_reset, read_snapshot, write_snapshot, LogState, RecordScan,
    SnapshotFile, SnapshotFileError, FORMAT_VERSION,
};
pub use store::{DurableStore, Failpoint, FsStore, MemStore, SharedMemStore};
