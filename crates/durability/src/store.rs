//! Storage abstraction for durable session state.
//!
//! [`DurableStore`] models a small flat directory of named files with the
//! three operations recovery correctness depends on: atomic whole-file
//! replacement (write-temp / fsync / rename-into-place), append, and fsync.
//! [`FsStore`] is the real filesystem implementation; [`MemStore`] is a
//! deterministic in-memory double with injectable failpoints (short
//! writes, fsync failures, crash-after-N-bytes) and an explicit
//! power-cut/restart cycle, so every recovery path is exercised by test
//! rather than by argument.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;

/// A named-file store with the durability primitives the snapshot/log
/// layer needs. All methods take `&mut self`: the fault-injecting test
/// implementation mutates internal failpoint state on every call.
pub trait DurableStore {
    /// Full contents of `name`, or `None` if it does not exist.
    fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>>;

    /// Atomically replace `name` with `bytes`: on return the file holds
    /// either the complete old contents or the complete new contents,
    /// never a prefix. Implementations write a temp file, fsync it, and
    /// rename into place.
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Append `bytes` to `name`, creating it if missing. Not durable
    /// until [`DurableStore::sync`] returns.
    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// fsync `name`: all previously appended bytes survive a crash.
    fn sync(&mut self, name: &str) -> io::Result<()>;

    /// Delete `name` (idempotent: missing files are not an error).
    fn remove(&mut self, name: &str) -> io::Result<()>;
}

// ---------------------------------------------------------------------------
// Filesystem store
// ---------------------------------------------------------------------------

/// [`DurableStore`] backed by a real directory.
pub struct FsStore {
    dir: PathBuf,
}

impl FsStore {
    /// Open (creating if needed) the directory that will hold the files.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(FsStore { dir })
    }

    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Best-effort fsync of the directory itself so renames are durable.
    fn sync_dir(&self) {
        if let Ok(d) = fs::File::open(&self.dir) {
            // analyzer:allow(error-discipline): directory fsync is advisory
            // hardening on top of the file's own sync; a failure here does
            // not hole the log — replay re-verifies every record checksum.
            let _ = d.sync_all();
        }
    }
}

impl DurableStore for FsStore {
    fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.path(&format!("{name}.tmp"));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.path(name))?;
        self.sync_dir();
        Ok(())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        f.write_all(bytes)
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        // fsync applies to the file, not to a particular handle's writes,
        // so a fresh handle flushes everything appended so far.
        fs::OpenOptions::new()
            .append(true)
            .open(self.path(name))?
            .sync_all()
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        match fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-injecting in-memory store
// ---------------------------------------------------------------------------

/// A failpoint armed on a [`MemStore`]. Each fires deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failpoint {
    /// Every subsequent `sync` fails; appended bytes stay in the volatile
    /// tail and are lost at the next power cut.
    FsyncError,
    /// The next `times` syncs fail, then the store recovers on its own —
    /// the transient-I/O shape (EINTR, a momentarily full device) that
    /// bounded retry is supposed to ride out.
    TransientFsync {
        /// How many more syncs fail before the store heals.
        times: usize,
    },
    /// The next `append` writes only the first `keep` bytes of its
    /// payload, then the store behaves as crashed (all later ops error).
    ShortWrite { keep: usize },
    /// After `n` more appended bytes (across appends), the store crashes
    /// mid-write: the partial prefix lands in the volatile tail and every
    /// later operation errors until [`MemStore::power_cut`].
    CrashAfterBytes { n: usize },
}

#[derive(Default, Clone)]
struct MemFile {
    /// Bytes guaranteed durable (survive a power cut).
    synced: Vec<u8>,
    /// Bytes appended but not yet fsync'd; a power cut keeps an arbitrary
    /// prefix of these (the torn tail).
    tail: Vec<u8>,
}

/// Deterministic in-memory [`DurableStore`] with failpoints and an
/// explicit crash/restart cycle.
#[derive(Default)]
pub struct MemStore {
    files: BTreeMap<String, MemFile>,
    failpoint: Option<Failpoint>,
    crashed: bool,
    appended_since_arm: usize,
}

impl MemStore {
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Arm a failpoint; replaces any previously armed one.
    pub fn arm(&mut self, f: Failpoint) {
        self.failpoint = Some(f);
        self.appended_since_arm = 0;
    }

    /// Simulate kill -9 followed by restart. Un-fsync'd tails are
    /// truncated; `keep_unsynced` bytes of each file's volatile tail are
    /// allowed to have reached disk anyway (page-cache flush order is not
    /// ours to choose), which is how a torn trailing record is produced.
    /// Clears the crashed flag and any armed failpoint: the store is
    /// usable again, as a restarted process would find it.
    pub fn power_cut(&mut self, keep_unsynced: usize) {
        for file in self.files.values_mut() {
            let keep = keep_unsynced.min(file.tail.len());
            file.synced
                .extend_from_slice(file.tail.get(..keep).unwrap_or_default());
            file.tail.clear();
        }
        self.failpoint = None;
        self.crashed = false;
        self.appended_since_arm = 0;
    }

    /// The names of the files the store holds, in order.
    pub fn file_names(&self) -> Vec<&str> {
        self.files.keys().map(String::as_str).collect()
    }

    /// Flip every bit of one byte of `name`'s durable contents — the
    /// flipped-byte corruption the per-record CRC must catch.
    pub fn corrupt(&mut self, name: &str, offset: usize) {
        if let Some(file) = self.files.get_mut(name) {
            if let Some(byte) = file.synced.get_mut(offset) {
                *byte ^= 0xFF;
            }
        }
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.crashed {
            Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected crash: store is down until power_cut()",
            ))
        } else {
            Ok(())
        }
    }
}

fn whole(file: &MemFile) -> Vec<u8> {
    let mut v = file.synced.clone();
    v.extend_from_slice(&file.tail);
    v
}

impl DurableStore for MemStore {
    fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.check_alive()?;
        Ok(self.files.get(name).map(whole))
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.check_alive()?;
        // Rename-into-place is all-or-nothing: a short write hits the temp
        // file and the destination keeps its old contents.
        if let Some(Failpoint::ShortWrite { .. }) = self.failpoint {
            self.failpoint = None;
            self.crashed = true;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected short write during atomic replace",
            ));
        }
        self.files.insert(
            name.to_string(),
            MemFile {
                synced: bytes.to_vec(),
                tail: Vec::new(),
            },
        );
        Ok(())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.check_alive()?;
        let mut written = bytes.len();
        let mut fail: Option<io::Error> = None;
        match self.failpoint {
            Some(Failpoint::ShortWrite { keep }) => {
                written = keep.min(bytes.len());
                self.failpoint = None;
                self.crashed = true;
                fail = Some(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "injected short write",
                ));
            }
            Some(Failpoint::CrashAfterBytes { n }) if self.appended_since_arm + bytes.len() > n => {
                written = n.saturating_sub(self.appended_since_arm);
                self.failpoint = None;
                self.crashed = true;
                fail = Some(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "injected crash mid-append",
                ));
            }
            _ => {}
        }
        self.appended_since_arm += written;
        let file = self.files.entry(name.to_string()).or_default();
        file.tail
            .extend_from_slice(bytes.get(..written).unwrap_or_default());
        match fail {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        self.check_alive()?;
        if let Some(Failpoint::FsyncError) = self.failpoint {
            return Err(io::Error::other("injected fsync failure"));
        }
        if let Some(Failpoint::TransientFsync { times }) = self.failpoint {
            self.failpoint = if times > 1 {
                Some(Failpoint::TransientFsync { times: times - 1 })
            } else {
                None
            };
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected transient fsync failure",
            ));
        }
        if let Some(file) = self.files.get_mut(name) {
            let tail = std::mem::take(&mut file.tail);
            file.synced.extend_from_slice(&tail);
        }
        Ok(())
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.check_alive()?;
        self.files.remove(name);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Shared handle over one in-memory "disk"
// ---------------------------------------------------------------------------

/// A cloneable handle onto one shared [`MemStore`]: every clone reads and
/// writes the same underlying bytes. Tests hand one handle to a session,
/// drop the session (the "kill -9"), inject a [`MemStore::power_cut`] or
/// [`MemStore::corrupt`] through [`SharedMemStore::lock`], and reopen on
/// another handle — a process restart over one filesystem.
#[derive(Clone, Default)]
pub struct SharedMemStore(std::sync::Arc<std::sync::Mutex<MemStore>>);

impl SharedMemStore {
    pub fn new() -> Self {
        SharedMemStore::default()
    }

    /// Direct access to the underlying store for failpoint arming,
    /// power cuts, and corruption injection.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, MemStore> {
        // A poisoned mutex only means another handle panicked mid-access;
        // the bytes themselves are still the test's single source of truth.
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl DurableStore for SharedMemStore {
    fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.lock().read(name)
    }
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.lock().write_atomic(name, bytes)
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.lock().append(name, bytes)
    }
    fn sync(&mut self, name: &str) -> io::Result<()> {
        self.lock().sync(name)
    }
    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.lock().remove(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_power_cut_drops_unsynced_tail() {
        let mut s = MemStore::new();
        s.append("f", b"durable").unwrap();
        s.sync("f").unwrap();
        s.append("f", b"volatile").unwrap();
        s.power_cut(0);
        assert_eq!(s.read("f").unwrap().unwrap(), b"durable");
    }

    #[test]
    fn mem_store_power_cut_can_leave_a_torn_prefix() {
        let mut s = MemStore::new();
        s.append("f", b"durable").unwrap();
        s.sync("f").unwrap();
        s.append("f", b"volatile").unwrap();
        s.power_cut(3);
        assert_eq!(s.read("f").unwrap().unwrap(), b"durablevol");
    }

    #[test]
    fn crash_after_bytes_leaves_partial_append_and_downs_the_store() {
        let mut s = MemStore::new();
        s.arm(Failpoint::CrashAfterBytes { n: 4 });
        assert!(s.append("f", b"0123456789").is_err());
        assert!(s.read("f").is_err(), "store must be down after crash");
        s.power_cut(usize::MAX);
        assert_eq!(s.read("f").unwrap().unwrap(), b"0123");
    }

    #[test]
    fn transient_fsync_heals_after_n_failures() {
        let mut s = MemStore::new();
        s.append("f", b"abc").unwrap();
        s.arm(Failpoint::TransientFsync { times: 2 });
        assert!(s.sync("f").is_err());
        assert!(s.sync("f").is_err());
        s.sync("f").unwrap();
        s.power_cut(0);
        assert_eq!(s.read("f").unwrap().unwrap(), b"abc");
    }

    #[test]
    fn fsync_failure_keeps_bytes_volatile() {
        let mut s = MemStore::new();
        s.append("f", b"abc").unwrap();
        s.arm(Failpoint::FsyncError);
        assert!(s.sync("f").is_err());
        s.power_cut(0);
        assert_eq!(s.read("f").unwrap().unwrap(), b"");
    }

    #[test]
    fn short_write_fails_atomic_replace_without_touching_destination() {
        let mut s = MemStore::new();
        s.write_atomic("f", b"old").unwrap();
        s.arm(Failpoint::ShortWrite { keep: 1 });
        assert!(s.write_atomic("f", b"new contents").is_err());
        s.power_cut(0);
        assert_eq!(s.read("f").unwrap().unwrap(), b"old");
    }

    #[test]
    fn fs_store_round_trips_through_a_real_directory() {
        let dir = std::env::temp_dir().join(format!("pgds-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut s = FsStore::open(&dir).unwrap();
        assert_eq!(s.read("x").unwrap(), None);
        s.write_atomic("x", b"snapshot").unwrap();
        s.append("y", b"rec1").unwrap();
        s.append("y", b"rec2").unwrap();
        s.sync("y").unwrap();
        assert_eq!(s.read("x").unwrap().unwrap(), b"snapshot");
        assert_eq!(s.read("y").unwrap().unwrap(), b"rec1rec2");
        s.remove("x").unwrap();
        s.remove("x").unwrap(); // idempotent
        assert_eq!(s.read("x").unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }
}
