//! E4 — the INUM claim (§1): caching "increase[s] the efficiency of the
//! selection tool by orders of magnitude".
//!
//! Costs many candidate configurations through three paths:
//!
//! (a) full re-optimization (`Inum::exact_cost`),
//! (b) the warm skeleton cache (`Inum::cost` — per-design access-path
//!     enumeration on top of cached skeletons), and
//! (c) the precomputed cost matrix (`CostMatrix::cost` — pure lookups).
//!
//! The speedup of (b) over (a) grows with the plan space the skeleton
//! cache short-circuits, so the report breaks the comparison down by join
//! count; (c) over (b) is the second INUM level: configuration costing
//! with no access-path re-enumeration at all. The `e2-offline` row
//! measures the E2 offline-design workload; the trailing `partition` and
//! `joint-index+part` rows run the same three-way comparison over
//! *partitioned* configurations through the partition-aware matrix level
//! (`CostMatrix::joint_workload_cost`), which is what AutoPart's greedy
//! merge search runs on. All rows are recorded in `BENCH_e4.json` (set
//! `BENCH_E4_JSON` to a path, or use `make bench-json`). (The paper's own
//! baseline is the PostgreSQL planner, whose per-call overhead is far
//! larger than this simulator's — absolute ratios here are a lower bound
//! on the effect.)

use criterion::{criterion_group, criterion_main, test_mode, Criterion};
use pgdesign_bench::SCALE;
use pgdesign_catalog::design::HorizontalPartitioning;
use pgdesign_catalog::samples::sdss_catalog;
use pgdesign_catalog::Catalog;
use pgdesign_inum::{CandidateBitset, CostMatrix, Inum, JointConfig};
use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
use pgdesign_optimizer::{JoinControl, Optimizer};
use pgdesign_query::generators::{sdss_template, sdss_workload};
use pgdesign_query::{parse_query, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Random candidate subsets (1–3 indexes) over a candidate list.
fn random_subsets(n_candidates: usize, n: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let k = rng.random_range(1..4usize).min(n_candidates);
            let mut ids: Vec<usize> = (0..k).map(|_| rng.random_range(0..n_candidates)).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        })
        .collect()
}

/// Workload classes by join count.
fn workload_classes(catalog: &Catalog) -> Vec<(&'static str, Workload)> {
    let mut rng = StdRng::seed_from_u64(0xE4);
    let single: Workload = (0..12)
        .map(|i| sdss_template(catalog, [0, 1, 2, 4, 7, 8][i % 6], &mut rng))
        .collect();
    let two: Workload = (0..12)
        .map(|i| sdss_template(catalog, [3, 5, 6][i % 3], &mut rng))
        .collect();
    let three: Workload = (0..6)
        .map(|i| {
            let run = 100 + i * 700;
            parse_query(
                &catalog.schema,
                &format!(
                    "SELECT p.objid, s.zredshift, f.quality FROM photoobj p, specobj s, field f \
                     WHERE p.objid = s.bestobjid AND p.run = f.run AND f.quality = 1 AND p.run = {run}"
                ),
            )
            .unwrap()
        })
        .collect();
    vec![("1-table", single), ("2-table", two), ("3-table", three)]
}

/// Per-class measurement row (microseconds per configuration-cost call).
struct Row {
    name: String,
    exact_us: f64,
    inum_us: f64,
    matrix_us: f64,
    /// |matrix − inum| / inum over the summed costs (should be ~0).
    agreement_err: f64,
}

impl Row {
    fn json(&self) -> String {
        let per_sec = |us: f64| 1e6 / us.max(1e-9);
        format!(
            "    {{\"class\": \"{}\", \"exact_us_per_call\": {:.3}, \"inum_us_per_call\": {:.3}, \
             \"matrix_us_per_call\": {:.3}, \"calls_per_sec_exact\": {:.0}, \
             \"calls_per_sec_inum\": {:.0}, \"calls_per_sec_matrix\": {:.0}, \
             \"speedup_inum_vs_exact\": {:.2}, \"speedup_matrix_vs_inum\": {:.2}, \
             \"speedup_matrix_vs_exact\": {:.2}, \"matrix_vs_inum_relative_error\": {:.3e}}}",
            self.name,
            self.exact_us,
            self.inum_us,
            self.matrix_us,
            per_sec(self.exact_us),
            per_sec(self.inum_us),
            per_sec(self.matrix_us),
            self.exact_us / self.inum_us.max(1e-9),
            self.inum_us / self.matrix_us.max(1e-9),
            self.exact_us / self.matrix_us.max(1e-9),
            self.agreement_err,
        )
    }
}

/// Three-way measurement of one workload over random candidate subsets.
/// `exact_configs` bounds the (expensive) re-optimization leg; the
/// cheaper INUM and matrix legs run over all `configs`.
fn measure(
    inum: &Inum<'_>,
    matrix: &CostMatrix<'_>,
    workload: &Workload,
    configs: &[Vec<usize>],
    exact_configs: usize,
    name: &str,
) -> Row {
    let n_cands = matrix.n_candidates();
    // Designs are pre-built outside every timed region so all three legs
    // measure pure costing (construction cost would slightly inflate the
    // matrix's advantage otherwise).
    let designs: Vec<_> = configs
        .iter()
        .map(|ids| matrix.design_of(&CandidateBitset::from_ids(n_cands, ids.iter().copied())))
        .collect();

    // Full re-optimization.
    let t0 = Instant::now();
    let mut exact_calls = 0usize;
    for design in designs.iter().take(exact_configs) {
        for (q, _) in workload.iter() {
            std::hint::black_box(inum.exact_cost(design, q));
            exact_calls += 1;
        }
    }
    let exact = t0.elapsed().as_secs_f64();

    // Warm skeleton cache, per-design costing.
    let t1 = Instant::now();
    let mut inum_total = 0.0;
    for design in &designs {
        for (q, w) in workload.iter() {
            inum_total += w * inum.cost(design, q);
        }
    }
    let fast = t1.elapsed().as_secs_f64();

    // Matrix lookups (bitset built once per config, outside the per-query
    // loop, mirroring how the advisors use it).
    let mut scratch = CandidateBitset::new(n_cands);
    let t2 = Instant::now();
    let mut matrix_total = 0.0;
    for ids in configs {
        scratch.clear();
        for &id in ids {
            scratch.insert(id);
        }
        matrix_total += matrix.workload_cost(&scratch);
    }
    let lookup = t2.elapsed().as_secs_f64();

    let calls = (configs.len() * workload.len()) as f64;
    Row {
        name: name.to_string(),
        exact_us: exact * 1e6 / exact_calls.max(1) as f64,
        inum_us: fast * 1e6 / calls,
        matrix_us: lookup * 1e6 / calls,
        agreement_err: (matrix_total - inum_total).abs() / inum_total.abs().max(1e-9),
    }
}

/// Random joint (index + partition) configurations: a random disjoint
/// vertical grouping of photoobj's columns, an optional horizontal split,
/// and 0–2 candidate indexes. Fragments/splits are registered on the
/// matrix as a side effect.
fn random_joint_configs(
    matrix: &mut CostMatrix<'_>,
    catalog: &Catalog,
    n: usize,
    with_indexes: bool,
    seed: u64,
) -> Vec<JointConfig> {
    let mut rng = StdRng::seed_from_u64(seed);
    let photo = catalog.schema.table_by_name("photoobj").unwrap().id;
    let width = catalog.schema.table(photo).width();
    let ra_stats = catalog.table_stats(photo).column(1);
    let n_cands = matrix.n_candidates();
    (0..n)
        .map(|_| {
            let mut cfg = matrix.empty_joint();
            // Disjoint grouping: assign every column to one of k groups.
            let k = rng.random_range(2..5usize);
            let mut groups: Vec<Vec<u16>> = vec![Vec::new(); k];
            for c in 0..width {
                groups[rng.random_range(0..k)].push(c);
            }
            for g in groups.iter().filter(|g| !g.is_empty()) {
                let id = matrix.register_fragment(photo, g);
                cfg.fragments.insert(id);
            }
            if rng.random_range(0..2) == 1 {
                let parts = rng.random_range(4..17usize);
                let bounds: Vec<f64> = (1..parts)
                    .map(|i| ra_stats.min + (ra_stats.max - ra_stats.min) * i as f64 / parts as f64)
                    .collect();
                let sid = matrix.register_split(HorizontalPartitioning::new(photo, 1, bounds));
                cfg.splits.insert(sid);
            }
            if with_indexes && n_cands > 0 {
                for _ in 0..rng.random_range(0..3usize) {
                    cfg.indexes.insert(rng.random_range(0..n_cands));
                }
            }
            cfg
        })
        .collect()
}

/// Three-way measurement of joint (partitioned) configurations: exact
/// re-optimization vs per-design `Inum::cost` vs partition-aware matrix
/// lookups. The acceptance gate reads these rows from `BENCH_e4.json`
/// (matrix ≥ 5x the per-design INUM path, agreement within 1e-6).
fn measure_joint(
    inum: &Inum<'_>,
    matrix: &CostMatrix<'_>,
    workload: &Workload,
    configs: &[JointConfig],
    exact_configs: usize,
    name: &str,
) -> Row {
    let designs: Vec<_> = configs.iter().map(|c| matrix.joint_design_of(c)).collect();

    let t0 = Instant::now();
    let mut exact_calls = 0usize;
    for design in designs.iter().take(exact_configs) {
        for (q, _) in workload.iter() {
            std::hint::black_box(inum.exact_cost(design, q));
            exact_calls += 1;
        }
    }
    let exact = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut inum_total = 0.0;
    for design in &designs {
        for (q, w) in workload.iter() {
            inum_total += w * inum.cost(design, q);
        }
    }
    let fast = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let mut matrix_total = 0.0;
    for cfg in configs {
        matrix_total += matrix.joint_workload_cost(cfg);
    }
    let lookup = t2.elapsed().as_secs_f64();

    let calls = (configs.len() * workload.len()) as f64;
    Row {
        name: name.to_string(),
        exact_us: exact * 1e6 / exact_calls.max(1) as f64,
        inum_us: fast * 1e6 / calls,
        matrix_us: lookup * 1e6 / calls,
        agreement_err: (matrix_total - inum_total).abs() / inum_total.abs().max(1e-9),
    }
}

fn print_report() {
    let catalog = sdss_catalog(SCALE);
    let optimizer = Optimizer::new().with_control(JoinControl {
        nestloop: false,
        ..Default::default()
    });
    let inum = Inum::new(&catalog, &optimizer);
    let (n_configs, n_exact) = if test_mode() { (20, 3) } else { (200, 40) };

    let mut rows: Vec<Row> = Vec::new();
    println!("=== E4: matrix vs INUM vs re-optimization ({n_configs} configs per class) ===");
    println!(
        "{:<10} {:>13} {:>13} {:>14} {:>9} {:>9} {:>10}",
        "class",
        "full us/call",
        "inum us/call",
        "matrix us/call",
        "inum/ex",
        "mat/inum",
        "agreement"
    );
    let mut classes = workload_classes(&catalog);
    // The E2 offline-design workload: the perf-trajectory row the JSON
    // acceptance gate reads (matrix ≥ 10x the per-design INUM path).
    classes.push(("e2-offline", sdss_workload(&catalog, 27, 0xE2)));
    for (name, workload) in &classes {
        inum.prepare_workload(workload);
        let candidates = workload_candidates(&catalog, workload, &CandidateConfig::default());
        let matrix = CostMatrix::build(&inum, workload, &candidates.indexes);
        let configs = random_subsets(candidates.indexes.len(), n_configs, 1);
        // Warm both slow paths once (fair caches).
        let _ = measure(
            &inum,
            &matrix,
            workload,
            &configs[..5.min(configs.len())],
            1,
            name,
        );
        let row = measure(&inum, &matrix, workload, &configs, n_exact, name);
        println!(
            "{:<10} {:>13.2} {:>13.2} {:>14.3} {:>8.1}x {:>8.1}x {:>9.2e}",
            row.name,
            row.exact_us,
            row.inum_us,
            row.matrix_us,
            row.exact_us / row.inum_us.max(1e-9),
            row.inum_us / row.matrix_us.max(1e-9),
            row.agreement_err,
        );
        rows.push(row);
    }

    // Partition-costing rows: the same three-way comparison over joint
    // (vertically + horizontally partitioned, optionally indexed)
    // configurations — the second half of the paper's "extended the INUM
    // cost model to include partitions" claim.
    let part_workload = sdss_workload(&catalog, 18, 0xA127);
    inum.prepare_workload(&part_workload);
    let part_cands = workload_candidates(&catalog, &part_workload, &CandidateConfig::default());
    for (name, with_indexes) in [("partition", false), ("joint-index+part", true)] {
        let mut matrix = CostMatrix::build(&inum, &part_workload, &part_cands.indexes);
        let configs = random_joint_configs(&mut matrix, &catalog, n_configs, with_indexes, 3);
        // Warm once (fair caches), then measure.
        let _ = measure_joint(
            &inum,
            &matrix,
            &part_workload,
            &configs[..5.min(configs.len())],
            1,
            name,
        );
        let row = measure_joint(&inum, &matrix, &part_workload, &configs, n_exact, name);
        println!(
            "{:<10} {:>13.2} {:>13.2} {:>14.3} {:>8.1}x {:>8.1}x {:>9.2e}",
            row.name,
            row.exact_us,
            row.inum_us,
            row.matrix_us,
            row.exact_us / row.inum_us.max(1e-9),
            row.inum_us / row.matrix_us.max(1e-9),
            row.agreement_err,
        );
        rows.push(row);
    }

    let stats = inum.stats();
    let mstats = inum.matrix_stats();
    println!(
        "inum cache: {} skeletons for {} queries; {} cost calls served",
        stats.skeletons_built, stats.resident_entries, stats.cost_calls
    );
    println!(
        "cost matrices: {} built ({} cells); {} lookups; ~{} optimizer calls avoided",
        mstats.builds,
        mstats.cells,
        mstats.lookups,
        mstats.whatif_calls_avoided()
    );

    if let Ok(path) = std::env::var("BENCH_E4_JSON") {
        let body: Vec<String> = rows.iter().map(Row::json).collect();
        let json = format!(
            "{{\n  \"experiment\": \"e4\",\n  \"scale\": {SCALE},\n  \
             \"configs_per_class\": {n_configs},\n  \"classes\": [\n{}\n  ],\n  \
             \"matrix_cells_precomputed\": {},\n  \"matrix_lookups\": {}\n}}\n",
            body.join(",\n"),
            mstats.cells,
            mstats.lookups,
        );
        match std::fs::write(&path, json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
}

fn bench_paths(c: &mut Criterion) {
    print_report();
    let catalog = sdss_catalog(SCALE);
    let optimizer = Optimizer::new().with_control(JoinControl {
        nestloop: false,
        ..Default::default()
    });
    let inum = Inum::new(&catalog, &optimizer);
    let classes = workload_classes(&catalog);
    let (_, joins) = &classes[1];
    inum.prepare_workload(joins);
    let candidates = workload_candidates(&catalog, joins, &CandidateConfig::default());
    let matrix = CostMatrix::build(&inum, joins, &candidates.indexes);
    let configs = random_subsets(candidates.indexes.len(), 20, 2);
    let mut g = c.benchmark_group("e4");
    g.sample_size(10);
    g.bench_function("reoptimize_20_configs_joins", |b| {
        b.iter(|| {
            let mut t = 0.0;
            for ids in &configs {
                let design = matrix.design_of(&CandidateBitset::from_ids(
                    candidates.indexes.len(),
                    ids.iter().copied(),
                ));
                for (q, w) in joins.iter() {
                    t += w * inum.exact_cost(&design, q);
                }
            }
            t
        })
    });
    g.bench_function("inum_20_configs_joins", |b| {
        b.iter(|| {
            let mut t = 0.0;
            for ids in &configs {
                let design = matrix.design_of(&CandidateBitset::from_ids(
                    candidates.indexes.len(),
                    ids.iter().copied(),
                ));
                t += inum.workload_cost(&design, joins);
            }
            t
        })
    });
    g.bench_function("matrix_20_configs_joins", |b| {
        let mut scratch = CandidateBitset::new(candidates.indexes.len());
        b.iter(|| {
            let mut t = 0.0;
            for ids in &configs {
                scratch.clear();
                for &id in ids {
                    scratch.insert(id);
                }
                t += matrix.workload_cost(&scratch);
            }
            t
        })
    });
    g.finish();
}

criterion_group!(benches, bench_paths);
criterion_main!(benches);
