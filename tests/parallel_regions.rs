//! Parallel regions are sized by their work. With the cap at four
//! workers, the operations a user waits on — an interactive toggle, an
//! online epoch close, a small warm-up — run on the calling thread and
//! spawn nothing, while a thousand-query build fans out.

use pgdesign::Designer;
use pgdesign_catalog::samples::{sdss_catalog, tpch_catalog};
use pgdesign_colt::ColtConfig;
use pgdesign_inum::{build_threads, spawned_workers, CostMatrix, Inum};
use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
use pgdesign_optimizer::Optimizer;
use pgdesign_query::generators::{sdss_workload, tpch_workload, DriftingStream};
use std::sync::Once;

/// Cap every region at four workers. The cap is read once per process,
/// so every test here calls this before anything reads it.
fn four_threads() {
    static SET: Once = Once::new();
    SET.call_once(|| std::env::set_var("PGDESIGN_THREADS", "4"));
    assert_eq!(build_threads(), 4);
}

#[test]
fn adding_a_candidate_to_a_twelve_query_matrix_spawns_nothing() {
    four_threads();
    let c = sdss_catalog(0.01);
    let opt = Optimizer::new();
    let inum = Inum::new(&c, &opt);
    let w = sdss_workload(&c, 12, 42);
    let cands = workload_candidates(&c, &w, &CandidateConfig::default());
    let split = cands.indexes.len() / 2;
    let mut m = CostMatrix::build(&inum, &w, &cands.indexes[..split]);
    let before = spawned_workers();
    for idx in &cands.indexes[split..] {
        m.add_candidate(idx);
    }
    assert!(inum.matrix_stats().cells > 0);
    assert_eq!(spawned_workers(), before);
}

#[test]
fn an_epoch_close_of_the_cli_online_example_spawns_nothing() {
    four_threads();
    // `pgdesign online --scale 0.005 --queries 120 --epoch 10`.
    let designer = Designer::new(sdss_catalog(0.005));
    let config = ColtConfig {
        epoch_length: 10,
        storage_budget_bytes: designer.catalog.data_bytes() / 4,
        ..Default::default()
    };
    let mut session = designer.online_session(config);
    let mut stream = DriftingStream::sdss_default(designer.catalog.clone(), 120 / 6, 7);
    let mut epochs = 0;
    for q in stream.batch(120) {
        let before = spawned_workers();
        if session.observe(q).is_some() {
            epochs += 1;
            assert_eq!(spawned_workers(), before, "epoch {epochs}");
        }
    }
    assert_eq!(epochs, 12);
}

#[test]
fn a_twelve_query_warm_up_spawns_nothing() {
    four_threads();
    let opt = Optimizer::new();
    for (c, w) in [
        {
            let c = sdss_catalog(0.01);
            let w = sdss_workload(&c, 12, 42);
            (c, w)
        },
        {
            let c = tpch_catalog(0.01);
            let w = tpch_workload(&c, 12, 42);
            (c, w)
        },
    ] {
        let inum = Inum::new(&c, &opt);
        let before = spawned_workers();
        inum.prepare_workload(&w);
        assert_eq!(inum.stats().cache_misses, 12);
        assert_eq!(spawned_workers(), before);
    }
}

#[test]
fn a_thousand_query_tpch_build_fans_out() {
    four_threads();
    let c = tpch_catalog(0.01);
    let opt = Optimizer::new();
    let w = tpch_workload(&c, 1000, 42);
    let inum = Inum::new(&c, &opt);
    let before = spawned_workers();
    inum.prepare_workload(&w);
    assert!(spawned_workers() > before, "the warm-up fans out");
    let cands = workload_candidates(&c, &w, &CandidateConfig::default());
    let before = spawned_workers();
    let _m = CostMatrix::build(&inum, &w, &cands.indexes);
    assert!(spawned_workers() > before, "the build fans out");
}
