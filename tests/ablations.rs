//! Ablations of the design choices the crates' module docs call out,
//! expressed as executable assertions rather than prose.

use pgdesign_catalog::design::{Index, PhysicalDesign};
use pgdesign_catalog::samples::sdss_catalog;
use pgdesign_cophy::merging::augment_with_merges;
use pgdesign_cophy::{greedy_select, CophyAdvisor, CophyConfig};
use pgdesign_inum::{CostMatrix, Inum};
use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
use pgdesign_optimizer::{CostParams, JoinControl, Optimizer};
use pgdesign_query::compress::{compress, Representative};
use pgdesign_query::generators::sdss_workload;

/// Ablation: the random/sequential page-cost ratio drives index adoption.
/// With random I/O priced like sequential (SSD-extreme), far more index
/// scans win; with a punishing ratio, sequential scans dominate.
#[test]
fn random_page_cost_ratio_shifts_index_adoption() {
    let c = sdss_catalog(0.01);
    let w = sdss_workload(&c, 18, 1);
    let budget = c.data_bytes();

    let count_for = |random_page_cost: f64| -> usize {
        let opt = Optimizer::with_params(CostParams {
            random_page_cost,
            ..Default::default()
        });
        let inum = Inum::new(&c, &opt);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let matrix = CostMatrix::build(&inum, &w, &cands.indexes);
        greedy_select(&matrix, budget).chosen.len()
    };
    let ssd = count_for(1.1);
    let disk = count_for(40.0);
    assert!(
        ssd >= disk,
        "cheap random I/O should never select fewer indexes: ssd {ssd} vs disk {disk}"
    );
}

/// Ablation: restricting the candidate pool to single-column indexes (the
/// COLT restriction) costs real benefit on multi-predicate workloads.
#[test]
fn multicolumn_candidates_beat_single_column_pool() {
    let c = sdss_catalog(0.01);
    let w = sdss_workload(&c, 18, 2);
    let opt = Optimizer::new();
    let inum = Inum::new(&c, &opt);
    let budget = c.data_bytes();
    let single = {
        let cands = workload_candidates(&c, &w, &CandidateConfig::single_column());
        greedy_select(&CostMatrix::build(&inum, &w, &cands.indexes), budget).cost
    };
    let multi = {
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        greedy_select(&CostMatrix::build(&inum, &w, &cands.indexes), budget).cost
    };
    assert!(
        multi < single,
        "multi-column candidates must help: {multi} vs {single}"
    );
}

/// Ablation: merged candidates never hurt and the pool stays bounded.
#[test]
fn merge_augmentation_is_weakly_beneficial_across_budgets() {
    let c = sdss_catalog(0.01);
    let w = sdss_workload(&c, 18, 3);
    let opt = Optimizer::new();
    let inum = Inum::new(&c, &opt);
    let base = workload_candidates(&c, &w, &CandidateConfig::default());
    let augmented = augment_with_merges(&c, &base, 4, 64);
    // The matrices are built once; the per-budget greedy runs below are
    // pure lookups against them.
    let base_matrix = CostMatrix::build(&inum, &w, &base.indexes);
    let augmented_matrix = CostMatrix::build(&inum, &w, &augmented.indexes);
    for divisor in [4u64, 16, 64] {
        let budget = c.data_bytes() / divisor;
        let plain = greedy_select(&base_matrix, budget);
        let merged = greedy_select(&augmented_matrix, budget);
        assert!(
            merged.cost <= plain.cost + 1e-6,
            "budget 1/{divisor}: merged {} vs plain {}",
            merged.cost,
            plain.cost
        );
    }
}

/// Ablation: workload compression preserves the recommendation's benefit
/// while shrinking the tuning input.
#[test]
fn compressed_workload_yields_equivalent_designs() {
    let c = sdss_catalog(0.01);
    let trace = sdss_workload(&c, 54, 4); // 9 templates × 6 instances
    let compressed = compress(&trace, Representative::Median);
    assert!(compressed.ratio() > 1.0);

    let opt = Optimizer::new();
    let inum = Inum::new(&c, &opt);
    let budget = c.data_bytes() / 2;
    let advisor = CophyAdvisor::new(
        &inum,
        CophyConfig {
            storage_budget_bytes: budget,
            ..Default::default()
        },
    );
    let from_full = advisor.recommend(&trace);
    let from_compressed = advisor.recommend(&compressed.workload);

    // Evaluate both designs on the FULL trace.
    let eval = |d: &PhysicalDesign| inum.workload_cost(d, &trace);
    let full_cost = eval(&from_full.design);
    let comp_cost = eval(&from_compressed.design);
    assert!(
        comp_cost <= full_cost * 1.10,
        "compression lost too much: {comp_cost} vs {full_cost}"
    );
}

/// Ablation: disabling nested loops (as INUM's space does) hurts join
/// queries with selective outer sides — quantifying what INUM gives up.
#[test]
fn nestloop_matters_for_selective_joins() {
    let c = sdss_catalog(0.02);
    let photo = c.schema.table_by_name("photoobj").unwrap().id;
    let q = pgdesign_query::parse_query(
        &c.schema,
        "SELECT p.ra FROM photoobj p, specobj s \
         WHERE p.objid = s.bestobjid AND s.specobjid = 7",
    )
    .unwrap();
    let d = PhysicalDesign::with_indexes([Index::new(photo, vec![0])]);
    let with_nlj = Optimizer::new().cost(&c, &d, &q);
    let without = Optimizer::new()
        .with_control(JoinControl {
            nestloop: false,
            ..Default::default()
        })
        .cost(&c, &d, &q);
    assert!(
        with_nlj < without / 5.0,
        "index NLJ should dominate here: {with_nlj} vs {without}"
    );
}

/// Ablation: the INUM combination cap is safe — the all-unordered
/// combination alone already upper-bounds the true cost, so capping can
/// only tighten, never break, the estimate.
#[test]
fn inum_estimate_is_always_an_upper_bound_on_no_nlj_cost() {
    let c = sdss_catalog(0.01);
    let opt = Optimizer::new().with_control(JoinControl {
        nestloop: false,
        ..Default::default()
    });
    let inum = Inum::new(&c, &opt);
    let w = sdss_workload(&c, 27, 5);
    let photo = c.schema.table_by_name("photoobj").unwrap().id;
    for design in [
        PhysicalDesign::empty(),
        PhysicalDesign::with_indexes([Index::new(photo, vec![1, 2]), Index::new(photo, vec![6])]),
    ] {
        for (q, _) in w.iter() {
            let fast = inum.cost(&design, q);
            let exact = opt.cost(&c, &design, q);
            assert!(
                fast >= exact * 0.95,
                "INUM undercuts the optimizer: {fast} vs {exact}"
            );
        }
    }
}
