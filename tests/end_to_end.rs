//! Cross-crate integration tests: the three demo scenarios end-to-end.

use pgdesign::Designer;
use pgdesign_catalog::design::PhysicalDesign;
use pgdesign_catalog::samples::sdss_catalog;
use pgdesign_colt::ColtConfig;
use pgdesign_query::generators::{sdss_workload, DriftingStream};
use pgdesign_query::{parse_query, Workload};

#[test]
fn scenario1_interactive_whatif_roundtrip() {
    let catalog = sdss_catalog(0.01);
    let sqls = [
        "SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 150 AND 160",
        "SELECT objid FROM photoobj WHERE type = 3 AND r < 15 ORDER BY r",
        "SELECT p.ra FROM photoobj p, specobj s WHERE p.objid = s.bestobjid",
    ];
    let workload: Workload = sqls
        .iter()
        .map(|s| parse_query(&catalog.schema, s).unwrap())
        .collect();
    let designer = Designer::new(catalog);
    let mut session = designer.session(workload);

    let baseline = session.evaluate();
    assert_eq!(baseline.average_benefit(), 0.0);

    session
        .add_index_by_name("photoobj", &["type", "r"])
        .unwrap();
    session.add_index_by_name("photoobj", &["objid"]).unwrap();
    session
        .add_index_by_name("specobj", &["bestobjid"])
        .unwrap();

    let tuned = session.evaluate();
    assert!(tuned.average_benefit() > 0.1);
    assert!(tuned.index_bytes > 0, "what-if indexes have real sizes");

    // The graph exists and renders.
    let graph = session.interaction_graph();
    let dot = graph.to_dot(&designer.catalog.schema, 10);
    assert!(dot.contains("graph interactions"));
}

#[test]
fn scenario2_offline_design_shapes_hold() {
    let catalog = sdss_catalog(0.01);
    let workload = sdss_workload(&catalog, 18, 99);
    let designer = Designer::new(catalog);
    let data = designer.catalog.data_bytes();

    let half = designer.recommend(&workload, data / 2);
    // The advisor finds a real improvement.
    assert!(half.average_benefit() > 0.2, "{}", half.average_benefit());
    // Budget respected.
    assert!(half.indexes.total_index_bytes <= data / 2);
    // The interaction-aware schedule is no worse than naive.
    assert!(half.schedule.area <= half.naive_schedule.area + 1e-6);
    // Larger budgets help (weakly).
    let full = designer.recommend(&workload, data * 2);
    assert!(full.combined_cost <= half.combined_cost * 1.05);
}

#[test]
fn scenario3_online_tuning_tracks_drift() {
    let catalog = sdss_catalog(0.01);
    let designer = Designer::new(catalog.clone());
    let mut stream = DriftingStream::sdss_default(catalog, 50, 11);
    let mut session = designer.online_session(ColtConfig {
        epoch_length: 25,
        payback_horizon_epochs: 8.0,
        ..Default::default()
    });
    // Two full cycles through 4 phases.
    let reports: Vec<_> = stream
        .batch(400)
        .into_iter()
        .filter_map(|q| session.observe(q).cloned())
        .collect();
    assert!(reports.len() >= 8);
    // The tuner materialized something and raised events.
    assert!(reports.iter().any(|r| !r.events.is_empty()));
    // After warm-up, tuned epochs beat untuned on average.
    let warm = &reports[4..];
    let untuned: f64 = warm.iter().map(|r| r.untuned_cost).sum();
    let tuned: f64 = warm.iter().map(|r| r.tuned_cost).sum();
    assert!(tuned < untuned, "tuned {tuned} vs untuned {untuned}");
}

/// `n` seeded designs of 1–8 distinct candidates of `workload`.
fn seeded_designs(
    catalog: &pgdesign_catalog::Catalog,
    workload: &Workload,
    n: usize,
) -> Vec<PhysicalDesign> {
    use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let pool = workload_candidates(catalog, workload, &CandidateConfig::default()).indexes;
    let mut rng = StdRng::seed_from_u64(2010);
    (0..n)
        .map(|_| {
            let want = rng.random_range(1..9usize).min(pool.len());
            let mut picked: Vec<usize> = Vec::with_capacity(want);
            while picked.len() < want {
                let i = rng.random_range(0..pool.len());
                if !picked.contains(&i) {
                    picked.push(i);
                }
            }
            PhysicalDesign::with_indexes(picked.into_iter().map(|i| pool[i].clone()))
        })
        .collect()
}

#[test]
fn whatif_costing_is_consistent_between_direct_and_inum_paths() {
    // INUM excludes nested-loop joins (their inner cost is design
    // dependent), so the fair oracle is the NLJ-free optimizer — and
    // against it INUM is exact, to 1e-12 relative, on both catalogs.
    let no_nlj =
        pgdesign_optimizer::Optimizer::new().with_control(pgdesign_optimizer::JoinControl {
            nestloop: false,
            ..Default::default()
        });
    let sdss = sdss_catalog(0.01);
    let tpch = pgdesign_catalog::samples::tpch_catalog(0.01);
    let cases = [
        (sdss_workload(&sdss, 12, 5), Designer::new(sdss)),
        (
            pgdesign_query::generators::tpch_workload(&tpch, 12, 5),
            Designer::new(tpch),
        ),
    ];
    for (workload, designer) in &cases {
        let inum = pgdesign_inum::Inum::new(&designer.catalog, &no_nlj);
        for design in seeded_designs(&designer.catalog, workload, 40) {
            for (q, _) in workload.iter() {
                let direct = no_nlj.cost(&designer.catalog, &design, q);
                let fast = inum.cost(&design, q);
                assert!(
                    (fast - direct).abs() <= 1e-12 * direct.abs(),
                    "{fast} vs {direct} on {design:?}"
                );
                // And INUM never undercuts the *full* optimizer either:
                // nested loops only ever add cheaper plans.
                let full = designer.cost(&design, q);
                assert!(fast >= full * (1.0 - 1e-12), "{fast} vs full {full}");
            }
        }
    }
}

#[test]
fn designer_components_compose_on_tpch_too() {
    // The portability claim: nothing is SDSS-specific.
    let catalog = pgdesign_catalog::samples::tpch_catalog(0.01);
    let workload = pgdesign_query::generators::tpch_workload(&catalog, 12, 3);
    let designer = Designer::new(catalog);
    let report = designer.recommend(&workload, designer.catalog.data_bytes() / 2);
    assert!(report.combined_cost <= report.base_cost);
    assert!(!report.indexes.indexes.is_empty());
}
