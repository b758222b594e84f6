//! Shared setup for the experiment benches (E1–E7).
//!
//! Each bench in `benches/` reproduces one of the experiments the README
//! lists under "Benches": it first *prints* the rows/series the paper's
//! demo would display, then runs a Criterion measurement of the
//! underlying operation. Absolute numbers depend on this simulator
//! substrate; the shapes (who wins, by roughly what factor) are the
//! reproduction targets, stated in each bench's own module docs.

#![forbid(unsafe_code)]

pub mod chaos;

use pgdesign_catalog::samples::sdss_catalog;
use pgdesign_catalog::Catalog;
use pgdesign_optimizer::{JoinControl, Optimizer};
use pgdesign_query::generators::sdss_workload;
use pgdesign_query::Workload;

/// Default SDSS scale for experiments (100k-row photoobj).
pub const SCALE: f64 = 0.01;

/// Catalog + optimizer + workload used by most experiments.
pub struct Bench {
    /// SDSS-like catalog.
    pub catalog: Catalog,
    /// Default optimizer.
    pub optimizer: Optimizer,
    /// NLJ-free optimizer (the INUM-comparable oracle).
    pub optimizer_no_nlj: Optimizer,
    /// The experiment workload.
    pub workload: Workload,
}

/// Standard setup: SDSS catalog at [`SCALE`], `n`-query workload.
pub fn setup(n_queries: usize, seed: u64) -> Bench {
    let catalog = sdss_catalog(SCALE);
    let workload = sdss_workload(&catalog, n_queries, seed);
    Bench {
        catalog,
        optimizer: Optimizer::new(),
        optimizer_no_nlj: Optimizer::new().with_control(JoinControl {
            nestloop: false,
            ..Default::default()
        }),
        workload,
    }
}

/// Format bytes as MiB for reports.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
