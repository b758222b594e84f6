//! Parallel regions sized by their work.
//!
//! Every parallel region of the crate — the skeleton warm-up, the cold
//! matrix build, bulk query and candidate registration — maps a pure
//! per-item function over a batch with [`fan_out`]. Starting a thread
//! costs tens of microseconds, and on a busy machine the thread may wait
//! far longer for a core, while most regions (an online epoch close, an
//! interactive toggle, a dozen-query recommend) hold well under a
//! millisecond of work. So a region states its serial work in *cells* —
//! one access-path costing, the matrix's unit — and runs on one
//! participant per [`WORK_PER_WORKER`] cells, the calling thread first and
//! at most [`build_threads`] in all: short work spawns nothing.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Serial work, in cells, that pays for one more participant: about a
/// millisecond. A cell costs 250–450 ns serially (`inum.cell_ns` on SDSS
/// and TPC-H, 2-vCPU VM).
pub(crate) const WORK_PER_WORKER: usize = 2048;

/// What planning one interesting-order combination is worth in cells:
/// 2.7 µs against a 250 ns cell on SDSS and 5.1 µs against a 438 ns cell
/// on TPC-H (serial, same VM).
pub(crate) const CELLS_PER_COMBO: usize = 11;

/// The most workers any parallel region runs on: `PGDESIGN_THREADS` when
/// set to a positive integer, otherwise the machine's available
/// parallelism. Read once per process. A cap, not a count: a region gets
/// one worker per ~1 ms of serial work (2,048 matrix cells), the calling
/// thread being the first. `PGDESIGN_THREADS=1` pins every region serial
/// (CI uses this to pin determinism, though parallel results are
/// bit-identical to serial ones by construction).
pub fn build_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        match std::env::var("PGDESIGN_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    })
}

/// How many participants a parallel region runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workers {
    /// As many as the region's work pays for ([`workers_for`]), at most
    /// this many.
    UpTo(usize),
    /// Exactly this many (at most one per item): the seams the
    /// serial-vs-parallel equality tests force workers through.
    Exactly(usize),
}

impl Workers {
    /// What every public entry point runs on: sized by the work, capped
    /// by [`build_threads`].
    pub(crate) fn sized() -> Self {
        Workers::UpTo(build_threads())
    }

    /// The participant count for a region of `work()` cells; `work` is
    /// evaluated only when the count depends on it.
    pub(crate) fn count(self, work: impl FnOnce() -> usize) -> usize {
        match self {
            Workers::Exactly(n) => n,
            Workers::UpTo(cap) if cap <= 1 => 1,
            Workers::UpTo(cap) => workers_for(work(), cap),
        }
    }
}

/// Participants for `work` cells: the calling thread, plus one spawned
/// worker per full [`WORK_PER_WORKER`] cells, `threads` in all at most.
pub(crate) fn workers_for(work: usize, threads: usize) -> usize {
    (1 + work / WORK_PER_WORKER).min(threads).max(1)
}

thread_local! {
    /// Workers spawned by the parallel regions entered on this thread.
    static SPAWNED: Cell<u64> = const { Cell::new(0) };
}

/// Workers spawned so far by the parallel regions entered on the calling
/// thread — what the tests read to pin that short operations run on
/// their caller and long ones fan out.
#[doc(hidden)]
pub fn spawned_workers() -> u64 {
    SPAWNED.with(Cell::get)
}

/// Map `one` over `items` on `workers` participants: the calling thread
/// and `workers - 1` scoped threads, never more participants than items.
/// Participants claim items one at a time, so one the scheduler starves
/// leaves its share to the others; results are placed back in input
/// order, so whenever `one` is a pure function of its item the output is
/// bit-identical to the serial (`workers == 1`) map.
pub(crate) fn fan_out<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    one: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let nt = workers.clamp(1, items.len().max(1));
    if nt <= 1 {
        return items.iter().map(one).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, one(item)));
        }
    };
    SPAWNED.with(|s| s.set(s.get() + (nt - 1) as u64));
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..nt).map(|_| scope.spawn(claim)).collect();
        let mine = claim();
        let theirs = spawned
            .into_iter()
            .map(|worker| worker.join().expect("parallel worker panicked"));
        for done in std::iter::once(mine).chain(theirs) {
            for (i, r) in done {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every item is claimed once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    #[test]
    fn workers_grow_one_per_share_of_work_up_to_the_cap() {
        assert_eq!(workers_for(0, 4), 1, "no work runs on the caller");
        assert_eq!(workers_for(WORK_PER_WORKER - 1, 4), 1);
        assert_eq!(workers_for(WORK_PER_WORKER, 4), 2);
        assert_eq!(workers_for(WORK_PER_WORKER + 1, 4), 2);
        assert_eq!(workers_for(3 * WORK_PER_WORKER - 1, 4), 3);
        assert_eq!(workers_for(usize::MAX, 4), 4, "capped by the threads");
        for work in [0, WORK_PER_WORKER + 1, usize::MAX] {
            assert_eq!(workers_for(work, 1), 1);
            assert_eq!(workers_for(work, 0), 1, "always the caller");
        }
    }

    #[test]
    fn a_fixed_or_serial_count_never_reads_the_work() {
        let never = || -> usize { panic!("work read for a fixed count") };
        assert_eq!(Workers::Exactly(3).count(never), 3);
        assert_eq!(Workers::UpTo(1).count(never), 1);
        assert_eq!(Workers::UpTo(4).count(|| 10 * WORK_PER_WORKER), 4);
        assert_eq!(Workers::UpTo(4).count(|| 1), 1);
    }

    #[test]
    fn fan_out_returns_every_item_once_in_input_order() {
        for workers in [1, 2, 4] {
            for n in [0, 1, 3, 100] {
                let items: Vec<usize> = (0..n).collect();
                let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let before = spawned_workers();
                let out = fan_out(&items, workers, |&i| {
                    calls[i].fetch_add(1, Ordering::Relaxed);
                    i * i
                });
                assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
                assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
                // The caller is one participant; no participant lacks an item.
                let spawned = spawned_workers() - before;
                assert_eq!(
                    spawned,
                    (workers.min(n.max(1)) - 1) as u64,
                    "{workers} on {n}"
                );
            }
        }
    }

    #[test]
    fn the_caller_claims_its_share() {
        // Each item waits (bounded) until every participant holds one, so
        // no participant can take two: the caller must have taken one.
        for workers in [2, 4] {
            let started = AtomicUsize::new(0);
            let items: Vec<usize> = (0..workers).collect();
            let ran_on: Vec<ThreadId> = fan_out(&items, workers, |_| {
                started.fetch_add(1, Ordering::SeqCst);
                let t0 = Instant::now();
                while started.load(Ordering::SeqCst) < workers
                    && t0.elapsed() < Duration::from_secs(10)
                {
                    std::thread::yield_now();
                }
                std::thread::current().id()
            });
            assert!(ran_on.contains(&std::thread::current().id()));
            let distinct: HashSet<ThreadId> = ran_on.into_iter().collect();
            assert_eq!(distinct.len(), workers, "one item per participant");
        }
    }
}
