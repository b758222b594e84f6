//! E6 — CoPhy's quality/time trade-off: "CoPhy allows to trade off
//! execution time against the quality of the suggested solutions."
//!
//! Sweeps the branch-and-bound node budget and prints cost, certified gap
//! and wall time at each point, with the greedy baseline as the reference
//! line. Criterion measures one mid-budget solve.

use criterion::{criterion_group, criterion_main, Criterion};
use pgdesign_bench::setup;
use pgdesign_cophy::{greedy_select, CophyAdvisor, CophyConfig};
use pgdesign_inum::{CostMatrix, Inum};
use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
use pgdesign_solver::MilpOptions;
use std::time::Instant;

fn print_report() {
    let bench = setup(27, 0xE6);
    let inum = Inum::new(&bench.catalog, &bench.optimizer);
    inum.prepare_workload(&bench.workload);
    let budget = bench.catalog.data_bytes() / 4;

    // Greedy reference.
    let cands = workload_candidates(&bench.catalog, &bench.workload, &CandidateConfig::default());
    let t = Instant::now();
    let matrix = CostMatrix::build(&inum, &bench.workload, &cands.indexes);
    let greedy = greedy_select(&matrix, budget);
    let greedy_ms = t.elapsed().as_secs_f64() * 1e3;

    println!("=== E6: CoPhy anytime quality (27 queries, budget = 0.25x data) ===");
    println!(
        "greedy baseline: cost {:.0}  ({} indexes, {:.1} ms, {} evaluations)",
        greedy.cost,
        greedy.chosen.len(),
        greedy_ms,
        greedy.evaluations
    );
    println!(
        "{:>10} {:>12} {:>8} {:>8} {:>10} {:>8}",
        "nodes", "cost", "gap%", "#idx", "time(ms)", "status"
    );
    for node_limit in [0usize, 5, 50, 500, 50_000] {
        let advisor = CophyAdvisor::new(
            &inum,
            CophyConfig {
                storage_budget_bytes: budget,
                solver: MilpOptions {
                    node_limit,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let t = Instant::now();
        let rec = advisor.recommend(&bench.workload);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        println!(
            "{:>10} {:>12.0} {:>8.2} {:>8} {:>10.1} {:>8?}",
            node_limit,
            rec.cost,
            100.0 * rec.gap,
            rec.indexes.len(),
            ms,
            rec.status
        );
    }
}

fn bench_solve(c: &mut Criterion) {
    print_report();
    let bench = setup(27, 0xE6);
    let inum = Inum::new(&bench.catalog, &bench.optimizer);
    inum.prepare_workload(&bench.workload);
    let budget = bench.catalog.data_bytes() / 4;
    let mut g = c.benchmark_group("e6");
    g.sample_size(10);
    g.bench_function("cophy_recommend_500_nodes", |b| {
        b.iter(|| {
            let advisor = CophyAdvisor::new(
                &inum,
                CophyConfig {
                    storage_budget_bytes: budget,
                    solver: MilpOptions {
                        node_limit: 500,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            );
            advisor.recommend(&bench.workload)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_solve);
criterion_main!(benches);
