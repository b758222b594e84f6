//! E7 — the zero-size what-if fallacy (§2): Monteiro et al. "assume the
//! size of the indexes to be zero, which severely affects the accuracy of
//! the optimizer when what-if indexes are used".
//!
//! Compares a size-aware advisor against a zero-size advisor (every
//! candidate appears free, so everything beneficial is 'selected') and
//! prints the storage-budget violation and the benefit mis-estimate.

use criterion::{criterion_group, criterion_main, Criterion};
use pgdesign::Designer;
use pgdesign_bench::{mib, setup};
use pgdesign_catalog::design::PhysicalDesign;
use pgdesign_cophy::greedy_select;
use pgdesign_inum::{CostMatrix, Inum};
use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};

fn print_report() {
    let bench = setup(27, 0xE7);
    let inum = Inum::new(&bench.catalog, &bench.optimizer);
    inum.prepare_workload(&bench.workload);
    let budget = bench.catalog.data_bytes() / 4;
    let cands = workload_candidates(&bench.catalog, &bench.workload, &CandidateConfig::default());
    let matrix = CostMatrix::build(&inum, &bench.workload, &cands.indexes);
    let base = inum.workload_cost(&PhysicalDesign::empty(), &bench.workload);

    // Size-aware advisor: greedy under the real budget.
    let aware = greedy_select(&matrix, budget);
    let aware_design =
        PhysicalDesign::with_indexes(aware.chosen.iter().map(|&i| cands.indexes[i].clone()));
    let aware_bytes = aware_design.index_bytes(&bench.catalog.schema, &bench.catalog.stats);

    // Zero-size advisor: believes every index is free, so it takes every
    // candidate with positive benefit ("unlimited" budget); the *claimed*
    // storage is zero, the actual storage is whatever those indexes weigh.
    let zero = greedy_select(&matrix, u64::MAX / 2);
    let zero_design =
        PhysicalDesign::with_indexes(zero.chosen.iter().map(|&i| cands.indexes[i].clone()));
    let zero_bytes = zero_design.index_bytes(&bench.catalog.schema, &bench.catalog.stats);

    println!("=== E7: size-aware vs zero-size what-if indexes (budget = 0.25x data) ===");
    println!(
        "{:<22} {:>10} {:>12} {:>14} {:>14}",
        "advisor", "#indexes", "cost", "claimed MiB", "actual MiB"
    );
    println!(
        "{:<22} {:>10} {:>12.0} {:>14.1} {:>14.1}",
        "size-aware (budget)",
        aware.chosen.len(),
        aware.cost,
        mib(aware_bytes),
        mib(aware_bytes)
    );
    println!(
        "{:<22} {:>10} {:>12.0} {:>14.1} {:>14.1}",
        "zero-size (Monteiro)",
        zero.chosen.len(),
        zero.cost,
        0.0,
        mib(zero_bytes)
    );

    // The offline pipeline (indexes, then partitions around them) under
    // the same budget: replicated fragment bytes are size-accounted
    // exactly like index bytes (the partition half of the what-if size
    // model), so its design stays buildable where the zero-size advisor's
    // is not.
    let designer = Designer {
        catalog: bench.catalog.clone(),
        optimizer: bench.optimizer.clone(),
    };
    let joint = designer.recommend(&bench.workload, budget);
    let joint_bytes = joint.indexes.total_index_bytes + joint.replication_bytes;
    println!(
        "{:<22} {:>10} {:>12.0} {:>14.1} {:>14.1}",
        "joint (idx+partitions)",
        joint.indexes.indexes.len(),
        joint.combined_cost,
        mib(joint_bytes),
        mib(joint_bytes)
    );
    assert!(
        joint_bytes <= budget,
        "the offline design must stay within the shared budget"
    );
    println!(
        "base workload cost: {base:.0}; storage budget: {:.1} MiB",
        mib(budget)
    );
    if zero_bytes > budget {
        println!(
            "zero-size advisor OVERSHOOTS the budget by {:.1}x — the design is unbuildable",
            zero_bytes as f64 / budget as f64
        );
    }
    println!(
        "benefit the zero-size advisor promises but cannot deliver within budget: {:.1}%",
        100.0 * (aware.cost - zero.cost).max(0.0) / base
    );
}

fn bench_selection(c: &mut Criterion) {
    print_report();
    let bench = setup(27, 0xE7);
    let inum = Inum::new(&bench.catalog, &bench.optimizer);
    inum.prepare_workload(&bench.workload);
    let budget = bench.catalog.data_bytes() / 4;
    let cands = workload_candidates(&bench.catalog, &bench.workload, &CandidateConfig::default());
    let matrix = CostMatrix::build(&inum, &bench.workload, &cands.indexes);
    let mut g = c.benchmark_group("e7");
    g.sample_size(10);
    g.bench_function("greedy_select_budgeted", |b| {
        b.iter(|| greedy_select(&matrix, budget))
    });
    g.finish();
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
