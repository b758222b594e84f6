//! A counting, timing wrapper around any [`DurableStore`]: what the
//! durability layer asks of the disk, measured at the public trait the
//! session writes through. Used by `bench-trace` on online-durable.

use pgdesign_durability::DurableStore;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::rc::Rc;
use std::time::Instant;

/// Calls of one method on one file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Calls {
    pub count: u64,
    /// Bytes handed to (or returned by) the calls.
    pub bytes: u64,
    pub nanos: u64,
}

/// Everything a [`MeteredStore`] saw, by method and then by file name.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    pub calls: BTreeMap<&'static str, BTreeMap<String, Calls>>,
    /// Duration of every `sync`, in milliseconds.
    pub sync_ms: Vec<f64>,
}

impl Meter {
    /// Calls of `method` summed over the files `keep` accepts.
    pub fn total(&self, method: &str, keep: impl Fn(&str) -> bool) -> Calls {
        let mut sum = Calls::default();
        for (name, c) in self.calls.get(method).into_iter().flatten() {
            if keep(name) {
                sum.count += c.count;
                sum.bytes += c.bytes;
                sum.nanos += c.nanos;
            }
        }
        sum
    }

    /// Nanoseconds inside the store, all methods.
    pub fn nanos(&self) -> u64 {
        self.calls
            .values()
            .flat_map(BTreeMap::values)
            .map(|c| c.nanos)
            .sum()
    }
}

/// The wrapper. The session owns the store, so the meter is shared: keep
/// the handle [`MeteredStore::new`] returns and read it at any time.
pub struct MeteredStore<S> {
    inner: S,
    meter: Rc<RefCell<Meter>>,
}

impl<S: DurableStore> MeteredStore<S> {
    pub fn new(inner: S) -> (Self, Rc<RefCell<Meter>>) {
        let meter = Rc::new(RefCell::new(Meter::default()));
        let store = MeteredStore {
            inner,
            meter: Rc::clone(&meter),
        };
        (store, meter)
    }

    fn metered<T>(
        &mut self,
        method: &'static str,
        name: &str,
        bytes_in: usize,
        call: impl FnOnce(&mut S) -> io::Result<T>,
        bytes_out: impl FnOnce(&T) -> usize,
    ) -> io::Result<T> {
        let start = Instant::now();
        let result = call(&mut self.inner);
        let nanos = start.elapsed().as_nanos() as u64;
        let mut meter = self.meter.borrow_mut();
        if method == "sync" {
            meter.sync_ms.push(nanos as f64 / 1e6);
        }
        let files = meter.calls.entry(method).or_default();
        // No allocation on the hot path: a file's second call finds it.
        if !files.contains_key(name) {
            files.insert(name.to_string(), Calls::default());
        }
        let entry = files.get_mut(name).expect("just inserted");
        entry.count += 1;
        entry.nanos += nanos;
        entry.bytes += (bytes_in + result.as_ref().map_or(0, bytes_out)) as u64;
        result
    }
}

impl<S: DurableStore> DurableStore for MeteredStore<S> {
    fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.metered(
            "read",
            name,
            0,
            |s| s.read(name),
            |found| found.as_ref().map_or(0, Vec::len),
        )
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.metered(
            "write_atomic",
            name,
            bytes.len(),
            |s| s.write_atomic(name, bytes),
            |_| 0,
        )
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.metered(
            "append",
            name,
            bytes.len(),
            |s| s.append(name, bytes),
            |_| 0,
        )
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        self.metered("sync", name, 0, |s| s.sync(name), |_| 0)
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.metered("remove", name, 0, |s| s.remove(name), |_| 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign::colt::ColtConfig;
    use pgdesign::{Designer, OnlineSession};
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_durability::FsStore;
    use pgdesign_query::parse_query;

    #[test]
    fn counts_bytes_and_time_per_method_and_file() {
        let (mut store, meter) = MeteredStore::new(pgdesign_durability::MemStore::new());
        store.append("log", b"abc").unwrap();
        store.append("log", b"de").unwrap();
        store.sync("log").unwrap();
        store.write_atomic("snap", b"0123456789").unwrap();
        assert_eq!(store.read("snap").unwrap().unwrap().len(), 10);
        assert_eq!(store.read("missing").unwrap(), None);
        let m = meter.borrow();
        let appends = m.total("append", |_| true);
        assert_eq!((appends.count, appends.bytes), (2, 5));
        assert_eq!(m.total("sync", |n| n == "log").count, 1);
        assert_eq!(m.sync_ms.len(), 1);
        assert_eq!(m.total("write_atomic", |n| n == "snap").bytes, 10);
        let reads = m.total("read", |_| true);
        assert_eq!((reads.count, reads.bytes), (2, 10));
        assert_eq!(m.total("read", |n| n == "log").count, 0);
    }

    /// Wrapping must not change what recovery reads: a stream journaled
    /// through the meter reopens through a bare `FsStore` warm, and costs
    /// every configuration as the metered session did.
    #[test]
    fn a_metered_pass_reopens_bare_with_the_same_costs() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-metered");
        let _ = std::fs::remove_dir_all(&dir);
        let designer = Designer::new(sdss_catalog(0.01));
        let config = ColtConfig {
            epoch_length: 5,
            ..Default::default()
        };
        let costs = |s: &OnlineSession<'_>| -> Vec<u64> {
            let reader = s.reader();
            let ids: Vec<usize> = reader.candidates().map(|(id, _)| id).collect();
            (0..=ids.len())
                .map(|n| {
                    reader
                        .workload_cost(&reader.config_of(ids[..n].iter().copied()))
                        .to_bits()
                })
                .collect()
        };

        let (store, meter) = MeteredStore::new(FsStore::open(&dir).unwrap());
        let mut metered =
            OnlineSession::open_or_create_on(&designer, config, Box::new(store)).unwrap();
        for i in 0..60 {
            let sql = format!("SELECT ra FROM photoobj WHERE objid = {}", i % 7);
            let _ = metered.observe(parse_query(&designer.catalog.schema, &sql).unwrap());
        }
        let before = costs(&metered);
        assert!(before.len() > 1, "the stream registered candidates");
        drop(metered);
        assert!(meter.borrow().total("sync", |_| true).count > 0);

        let bare = OnlineSession::open_or_create_on(
            &designer,
            config,
            Box::new(FsStore::open(&dir).unwrap()),
        )
        .unwrap();
        let recovery = bare.tuning_stats().recovery.unwrap();
        assert_eq!(recovery.cold_start, None, "warm restore");
        assert_eq!(recovery.log_records_dropped, 0);
        assert_eq!(costs(&bare), before);
        drop(bare);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
