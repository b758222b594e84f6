//! The rendered reports, pinned: the bytes every per-query table prints
//! for fixed inputs hash to constants taken at the commit before the
//! tables moved onto the fixed-point writer (`crates/core/src/fixed.rs`).
//! A changed constant is a changed report — either a cost moved (and some
//! other pin should say why) or the rendering did. Public API only, so the
//! same file runs at any commit.

use pgdesign::{Designer, OnlineSession};
use pgdesign_catalog::design::{HorizontalPartitioning, Index, VerticalPartitioning};
use pgdesign_catalog::samples::{sdss_catalog, tpch_catalog};
use pgdesign_colt::ColtConfig;
use pgdesign_query::generators::{sdss_workload, tpch_workload, DriftingStream};

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

fn assert_pinned(what: &str, text: &str, pinned: u64) {
    assert_eq!(
        fnv64(text.as_bytes()),
        pinned,
        "{what} rendered differently:\n{text}"
    );
}

#[test]
fn offline_and_joint_reports_match_the_recorded_bytes() {
    let sdss = Designer::new(sdss_catalog(0.005));
    let w = sdss_workload(&sdss.catalog, 40, 5);
    let budget = sdss.catalog.data_bytes() / 2;
    assert_pinned(
        "SDSS offline report",
        &sdss.recommend(&w, budget).to_string(),
        0xf55b_bc38_07aa_ead1,
    );
    assert_pinned(
        "SDSS joint report",
        &sdss.recommend_joint(&w, budget).to_string(),
        0x7c40_2ebe_b324_a685,
    );

    let tpch = Designer::new(tpch_catalog(0.005));
    let w = tpch_workload(&tpch.catalog, 36, 5);
    let budget = tpch.catalog.data_bytes() / 2;
    assert_pinned(
        "TPC-H offline report",
        &tpch.recommend(&w, budget).to_string(),
        0xd380_601d_ad34_30ce,
    );
    assert_pinned(
        "TPC-H joint report",
        &tpch.recommend_joint(&w, budget).to_string(),
        0x3096_f96f_b8dd_d5aa,
    );
}

#[test]
fn interactive_benefit_reports_match_the_recorded_bytes() {
    let d = Designer::new(sdss_catalog(0.005));
    let w = sdss_workload(&d.catalog, 60, 5);
    let photo = d
        .catalog
        .schema
        .table_by_name("photoobj")
        .expect("photoobj");
    let (table, ra) = (photo.id, photo.column_by_name("ra").expect("ra"));
    let ra_stats = d.catalog.table_stats(table).column(ra);
    let bounds = (1..4)
        .map(|i| ra_stats.min + (ra_stats.max - ra_stats.min) * i as f64 / 4.0)
        .collect();

    let mut s = d.session(w);
    // Every step's report, concatenated: the script adds two indexes, a
    // vertical and a horizontal partition, then takes an index away.
    let mut text = s.evaluate().to_string();
    s.add_index_by_name("photoobj", &["objid"])
        .expect("columns");
    text += &s.evaluate().to_string();
    s.add_index_by_name("photoobj", &["type", "r"])
        .expect("columns");
    text += &s.evaluate().to_string();
    s.set_vertical(VerticalPartitioning::new(
        table,
        vec![vec![0, 1, 2], (3..16).collect()],
    ));
    text += &s.evaluate().to_string();
    s.set_horizontal(HorizontalPartitioning::new(table, ra, bounds));
    text += &s.evaluate().to_string();
    assert!(s.remove_index(&Index::new(table, vec![0])));
    text += &s.evaluate().to_string();
    assert_pinned("interactive benefit reports", &text, 0x24ad_05e7_7b0f_8bfb);
}

#[test]
fn online_trajectory_matches_the_recorded_bytes() {
    let d = Designer::new(sdss_catalog(0.005));
    let mut stream = DriftingStream::sdss_default(d.catalog.clone(), 120 / 6, 7);
    let config = ColtConfig {
        epoch_length: 10,
        storage_budget_bytes: d.catalog.data_bytes() / 4,
        ..Default::default()
    };
    let mut s: OnlineSession<'_> = d.online_session(config);
    for q in stream.batch(120) {
        let _ = s.observe(q);
    }
    assert_pinned("online trajectory", &s.trajectory(), 0xf311_d342_2727_74b5);
}
