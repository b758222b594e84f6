//! `bench-trace`: one traced pass per workload, for the per-layer metrics.
//!
//! ```text
//! bench-trace --workload NAME|all --seed N [--quick] [--out DIR]
//! ```
//!
//! End-to-end numbers never come from here. The interactive and online
//! passes are the very passes `bench` runs, watched through the
//! [`Probe`]: a span (name, start, end, parent, op) around each call into
//! the facade, the program's counters read at the same boundaries, the
//! store metered. `Designer::recommend` hides its stages behind one call,
//! so the offline workloads run a *staged replica* of it built from the
//! public functions of the layers below, pinned to the facade two ways:
//! it must choose the same indexes at the same cost
//! (`trace.replica_matches_facade`), and its time must reconcile with the
//! untraced op (`trace.overhead_share`, `core.unattributed_share`). Spans
//! stay in memory and are written out at exit.

use benchmark::gen::SplitMix64;
use benchmark::layers::PER_LAYER;
use benchmark::report::{driver_line, metric_entry};
use benchmark::stats::{self, Json};
use benchmark::store::{Meter, MeteredStore};
use benchmark::workloads::{
    self, offline_budget, offline_failure, parse_statements, Inputs, PassOutput, Probe, Sizes,
    Unwatched, Workload, EPOCH_LENGTH,
};
use benchmark::Args;
use pgdesign::{Designer, TuningStats};
use pgdesign_autopart::{AutoPartAdvisor, AutoPartConfig};
use pgdesign_catalog::design::PhysicalDesign;
use pgdesign_colt::{ColtTuner, EpochMode};
use pgdesign_cophy::atomic::enumerate_atomic_configs;
use pgdesign_cophy::formulation::{build_ilp, decode_solution, warm_start_assignment};
use pgdesign_cophy::merging::augment_with_merges;
use pgdesign_cophy::{greedy_select, CophyConfig};
use pgdesign_durability::{DurableStore, FsStore, SharedMemStore};
use pgdesign_interaction::{analyze_on, schedule_pair_on, InteractionConfig};
use pgdesign_inum::{decode_snapshot, encode_published, restore_matrix, CostMatrix, Inum};
use pgdesign_optimizer::candidates::workload_candidates;
use pgdesign_query::{parse_query, Workload as QueryWorkload};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span this one ran inside.
    parent: Option<usize>,
    /// The op it belongs to; 0 before the first op (set-up).
    op: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The watching [`Probe`]: everything is kept in memory until the end.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    /// `(op, cumulative counters)` at each boundary the pass reported.
    counters: Vec<(u64, TuningStats)>,
    meters: Vec<Rc<RefCell<Meter>>>,
    /// Put a durable pass on real files instead of the simulated disk.
    on_disk: bool,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counters: Vec::new(),
            meters: Vec::new(),
            on_disk: false,
        }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    fn total_ms(&self, name: &str) -> f64 {
        self.named(name).map(Span::ms).sum()
    }

    fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::ms).collect()
    }

    /// Mean duration in milliseconds, 0 when the stage never ran.
    fn mean_ms(&self, name: &str) -> f64 {
        let n = self.count(name);
        if n == 0 {
            0.0
        } else {
            self.total_ms(name) / n as f64
        }
    }

    /// Milliseconds inside ops covered by a stage (outermost spans only).
    fn attributed_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.op > 0 && s.parent.is_none())
            .map(Span::ms)
            .sum()
    }

    /// Per span name: calls, total time, and self time (the span's
    /// duration minus the part its child spans cover).
    fn table(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut table: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let row = table.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.ms();
            row.2 += s.ms() - child_ms[i];
        }
        table
    }

    /// Raw spans written out per trace: enough to read an op's shape,
    /// not the 10^5 spans of a long stream.
    const SPANS_WRITTEN: usize = 2000;

    fn to_json(&self) -> Json {
        let table = self.table().into_iter().map(|(name, (calls, total, own))| {
            let row = Json::obj([
                ("calls", Json::Num(calls as f64)),
                ("total_ms", Json::Num(total)),
                ("self_ms", Json::Num(own)),
            ]);
            (name, row)
        });
        let spans = self.spans.iter().take(Self::SPANS_WRITTEN).map(|s| {
            Json::obj([
                ("name", Json::Str(s.name.into())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("op", Json::Num(s.op as f64)),
            ])
        });
        Json::obj([
            ("stages", Json::obj(table)),
            ("spans_recorded", Json::Num(self.spans.len() as f64)),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

impl Probe for Recorder {
    fn stage<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let result = f();
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        result
    }

    fn begin_op(&mut self) {
        self.op += 1;
    }

    fn counters(&mut self, read: impl FnOnce() -> TuningStats) {
        self.counters.push((self.op, read()));
    }

    fn store(&mut self, disk: SharedMemStore, dir: &Path) -> io::Result<Box<dyn DurableStore>> {
        let (store, meter): (Box<dyn DurableStore>, _) = if self.on_disk {
            let (metered, meter) = MeteredStore::new(FsStore::open(dir)?);
            (Box::new(metered), meter)
        } else {
            let (metered, meter) = MeteredStore::new(disk);
            (Box::new(metered), meter)
        };
        self.meters.push(meter);
        Ok(store)
    }
}

/// Per-layer metric values by name; what is not set is reported as 0.
type Values = BTreeMap<&'static str, f64>;

struct Traced {
    values: Values,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    recorder: Recorder,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run `f`; its result and the seconds it took.
fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench-trace: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("bench-trace: {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let mut lines = Vec::new();
    let mut all_correct = true;
    for &workload in &args.workloads {
        let traced = match workload {
            Workload::OfflineSdss | Workload::OfflineTpch => trace_offline(workload, &args),
            Workload::InteractiveWhatif => trace_interactive(&args),
            Workload::OnlineMem | Workload::OnlineDurable => trace_online(workload, &args),
        };
        let correct = print_and_write(workload, &traced, &args);
        all_correct &= correct;
        let metrics = PER_LAYER.iter().map(|spec| {
            let value = traced.values.get(spec.name).copied().unwrap_or(0.0);
            (spec.name, metric_entry(value, spec.unit))
        });
        lines.push(driver_line(
            correct,
            traced.attempted.max(1),
            traced.failed,
            Json::obj(metrics),
        ));
    }
    for line in lines {
        println!("{line}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_and_write(workload: Workload, traced: &Traced, args: &Args) -> bool {
    let unknown: Vec<&&str> = traced
        .values
        .keys()
        .filter(|k| !PER_LAYER.iter().any(|m| m.name == **k))
        .collect();
    assert!(unknown.is_empty(), "metrics not in PER_LAYER: {unknown:?}");
    println!(
        "== {} (traced pass 0, seed {}, {} threads) ==",
        workload.name(),
        args.seed,
        benchmark::threads()
    );
    for spec in &PER_LAYER {
        let value = traced.values.get(spec.name).copied().unwrap_or(0.0);
        println!("   {:<34} {value:>22} {}", spec.name, spec.unit);
    }
    println!("   stage                          calls      total ms       self ms");
    for (name, (calls, total, own)) in traced.recorder.table() {
        println!("   {name:<28} {calls:>7} {total:>13.3} {own:>13.3}");
    }
    for share in ["trace.overhead_share", "core.unattributed_share"] {
        let value = traced.values.get(share).copied().unwrap_or(0.0);
        if value.abs() > 0.1 {
            println!("   FLAG: {share} is {value:.3}, beyond 10%");
        }
    }
    for f in &traced.failures {
        println!("   FAILED: {f}");
    }
    let finite = traced.values.values().all(|v| v.is_finite());
    let file = Json::obj([
        ("workload", Json::Str(workload.name().into())),
        ("seed", Json::Num(args.seed as f64)),
        ("quick", Json::Bool(args.quick)),
        (
            "metrics",
            Json::obj(traced.values.iter().map(|(k, v)| (*k, Json::Num(*v)))),
        ),
        ("trace", traced.recorder.to_json()),
    ]);
    let path = args.out_dir.join(format!("trace-{}.json", workload.name()));
    if let Err(e) = std::fs::write(&path, format!("{file}\n")) {
        eprintln!("bench-trace: {}: {e}", path.display());
        return false;
    }
    traced.failed == 0 && finite
}

/// Nanoseconds per `cost` and per `joint_cost` lookup, over batches of
/// seeded configurations on every active query.
fn lookup_ns(matrix: &CostMatrix<'_>, seed: u64) -> (f64, f64) {
    const CONFIGS: usize = 64;
    const ROUNDS: usize = 20;
    let queries: Vec<usize> = matrix.active_query_ids().collect();
    let live: Vec<usize> = matrix.candidates().map(|(id, _)| id).collect();
    let mut rng = SplitMix64::new(seed);
    let sets: Vec<Vec<usize>> = (0..CONFIGS).map(|_| rng.subset(&live)).collect();
    let plain: Vec<_> = sets
        .iter()
        .map(|ids| matrix.config_of(ids.iter().copied()))
        .collect();
    let joint: Vec<_> = sets
        .iter()
        .map(|ids| {
            let mut cfg = matrix.empty_joint();
            for &id in ids {
                cfg.indexes.insert(id);
            }
            cfg
        })
        .collect();
    let lookups = (ROUNDS * CONFIGS * queries.len()) as f64;
    let ((), plain_s) = secs(|| {
        for _ in 0..ROUNDS {
            for cfg in &plain {
                for &q in &queries {
                    black_box(matrix.cost(q, black_box(cfg)));
                }
            }
        }
    });
    let ((), joint_s) = secs(|| {
        for _ in 0..ROUNDS {
            for cfg in &joint {
                for &q in &queries {
                    black_box(matrix.joint_cost(q, black_box(cfg)));
                }
            }
        }
    });
    (ratio(plain_s * 1e9, lookups), ratio(joint_s * 1e9, lookups))
}

/// Exact-optimizer and INUM cost of each query under `design`, in
/// microseconds per call (skeletons already cached).
fn cost_call_us(
    designer: &Designer,
    inum: &Inum<'_>,
    w: &QueryWorkload,
    design: &PhysicalDesign,
) -> (f64, f64) {
    let empty = PhysicalDesign::empty();
    let ((), exact_s) = secs(|| {
        for (q, _) in w.iter() {
            black_box(designer.optimizer.cost(&designer.catalog, &empty, q));
        }
    });
    let ((), cached_s) = secs(|| {
        for (q, _) in w.iter() {
            black_box(inum.cost(design, q));
        }
    });
    let n = w.len() as f64;
    (ratio(exact_s * 1e6, n), ratio(cached_s * 1e6, n))
}

/// What the staged replica counted, summed over the pass's instances.
#[derive(Default)]
struct ReplicaSums {
    statements: f64,
    candidates: f64,
    atomic_configs: f64,
    ilp_vars: f64,
    ilp_rows: f64,
    nodes: f64,
    /// The largest gap of any instance, not a sum.
    gap: f64,
    iterations: f64,
    skeletons: f64,
    cells: f64,
    build_nanos: f64,
    lookups: f64,
    partition_lookups: f64,
    root_lp_ms: f64,
    exact_cost_us: f64,
    inum_cost_us: f64,
    lookup_ns: f64,
    joint_lookup_ns: f64,
    /// Seconds of the whole staged op, stages and the glue between them.
    replica_s: f64,
    /// Seconds of the same ops through the facade, untraced.
    facade_s: f64,
}

fn trace_offline(workload: Workload, args: &Args) -> Traced {
    let mut rec = Recorder::new();
    let designer = Designer::new(rec.stage("catalog.build", || workload.catalog()));
    let inputs = Inputs::generate(workload, args.sizes(), args.seed, 0);
    let budget = offline_budget(&designer);
    let mut counts = ReplicaSums::default();
    let mut matches = true;
    let mut out = PassOutput::default();
    for statements in &inputs.statements {
        out.attempted += 1;
        counts.statements += statements.len() as f64;

        // The untraced op, exactly as `bench` runs it.
        let (report, facade_s) = secs(|| {
            let w = parse_statements(&designer, statements).expect("generated statements parse");
            let report = designer.recommend(&w, budget);
            black_box(report.to_string());
            report
        });
        counts.facade_s += facade_s;
        if let Some(why) = offline_failure(&report, budget) {
            out.fail(why);
        }

        // Its staged replica: the calls `TuningSession::new`,
        // `OfflineAdvisor::advise` and `CophyAdvisor::recommend_on` make,
        // in their order, each under a span.
        rec.begin_op();
        let start = Instant::now();
        let w = rec
            .stage("query.parse", || parse_statements(&designer, statements))
            .expect("generated statements parse");
        let inum = Inum::new(&designer.catalog, &designer.optimizer);
        rec.stage("inum.prepare", || inum.prepare_workload(&w));
        let mut matrix = rec.stage("inum.build", || CostMatrix::build(&inum, &w, &[]));
        let config = CophyConfig {
            storage_budget_bytes: budget,
            ..Default::default()
        };
        let base = rec.stage("optimizer.candidates", || {
            workload_candidates(
                &designer.catalog,
                &matrix.active_workload(),
                &config.candidates,
            )
        });
        let pool = rec.stage("cophy.merge", || {
            augment_with_merges(
                &designer.catalog,
                &base,
                config.merge_max_width,
                config.merged_candidates,
            )
        });
        rec.stage("inum.add_candidates", || {
            matrix.add_candidates(&pool.indexes)
        });
        let sizes: BTreeMap<usize, f64> = matrix
            .candidates()
            .map(|(id, idx)| {
                let stats = designer.catalog.table_stats(idx.table);
                (id, idx.size_bytes(&designer.catalog.schema, stats))
            })
            .filter(|&(_, bytes)| bytes <= budget)
            .map(|(id, bytes)| (id, bytes as f64))
            .collect();
        let mut configs = rec.stage("cophy.atomic", || {
            enumerate_atomic_configs(&matrix, config.max_configs_per_query)
        });
        for qc in &mut configs {
            qc.configs
                .retain(|c| c.candidate_ids.iter().all(|id| sizes.contains_key(id)));
        }
        let weights: Vec<f64> = configs
            .iter()
            .map(|qc| matrix.query_weight(qc.query_id))
            .collect();
        let model = rec.stage("cophy.formulate", || {
            build_ilp(&weights, &configs, &sizes, &BTreeMap::new(), budget as f64)
        });
        let greedy = rec.stage("cophy.greedy", || greedy_select(&matrix, budget));
        let warm = warm_start_assignment(&model, &configs, &greedy.chosen);
        let solved = rec.stage("solver.milp", || {
            model
                .milp
                .solve_with_warm_start(&config.solver, Some(&warm))
        });
        let ilp_ids = if solved.x.is_empty() {
            greedy.chosen.clone()
        } else {
            decode_solution(&model, &solved.x)
        };
        let ilp_cost = matrix.workload_cost(&matrix.config_of(ilp_ids.iter().copied()));
        let chosen_ids = if ilp_cost <= greedy.cost {
            ilp_ids
        } else {
            greedy.chosen.clone()
        };
        let chosen_cost = matrix.workload_cost(&matrix.config_of(chosen_ids.iter().copied()));
        rec.stage("inum.publish", || matrix.publish());
        let partitions = rec.stage("autopart.search", || {
            let config = AutoPartConfig {
                replication_budget_bytes: budget / 10,
                ..Default::default()
            };
            AutoPartAdvisor::new(&inum, config).recommend_on(&mut matrix)
        });
        let analysis = rec.stage("interaction.analyze", || {
            analyze_on(&matrix, &chosen_ids, &InteractionConfig::default())
        });
        black_box(analysis.graph());
        black_box(rec.stage("interaction.schedule", || {
            schedule_pair_on(&matrix, &chosen_ids)
        }));
        black_box(rec.stage("core.render", || report.to_string()));
        counts.replica_s += start.elapsed().as_secs_f64();

        let mut chosen: Vec<_> = chosen_ids
            .iter()
            .map(|&id| matrix.candidate(id).expect("chosen ids are live").clone())
            .collect();
        let mut facade = report.indexes.indexes.clone();
        chosen.sort();
        facade.sort();
        if chosen != facade || chosen_cost.to_bits() != report.indexes.cost.to_bits() {
            matches = false;
            out.fail(format!(
                "replica chose {} indexes at cost {chosen_cost}, the facade {} at {}",
                chosen.len(),
                facade.len(),
                report.indexes.cost
            ));
        }

        // Counts at the same boundary, then the measurements that are
        // not stages of the op.
        let (l1, l2) = (inum.stats(), inum.matrix_stats());
        counts.candidates += pool.indexes.len() as f64;
        counts.atomic_configs += configs.iter().map(|qc| qc.configs.len()).sum::<usize>() as f64;
        counts.ilp_vars += model.milp.lp.num_vars() as f64;
        counts.ilp_rows += model.milp.lp.num_constraints() as f64;
        counts.nodes += solved.nodes as f64;
        counts.gap = counts.gap.max(solved.gap);
        counts.iterations += partitions.iterations as f64;
        counts.skeletons += l1.skeletons_built as f64;
        counts.cells += l2.cells as f64;
        counts.build_nanos += l2.build_nanos as f64;
        counts.lookups += l2.lookups as f64;
        counts.partition_lookups += l2.partition_lookups as f64;
        counts.root_lp_ms += secs(|| black_box(model.milp.lp.solve().ok())).1 * 1e3;
        let design = matrix.design_of(&matrix.config_of(chosen_ids.iter().copied()));
        let (exact, cached) = cost_call_us(&designer, &inum, &w, &design);
        counts.exact_cost_us += exact;
        counts.inum_cost_us += cached;
        let (plain, joint) = lookup_ns(&matrix, args.seed);
        counts.lookup_ns += plain;
        counts.joint_lookup_ns += joint;
    }

    let ops = out.attempted as f64;
    let per_op = |sum: f64| ratio(sum, ops);
    let op_ms = per_op(counts.replica_s * 1e3);
    let milp_ms = rec.mean_ms("solver.milp");
    let lookups = per_op(counts.lookups);
    let joint_ns = per_op(counts.joint_lookup_ns);
    let values = Values::from([
        (
            "query.parse_us",
            ratio(rec.total_ms("query.parse") * 1e3, counts.statements),
        ),
        ("catalog.build_ms", rec.mean_ms("catalog.build")),
        (
            "optimizer.candidates_ms",
            rec.mean_ms("optimizer.candidates"),
        ),
        ("optimizer.candidates", per_op(counts.candidates)),
        ("optimizer.exact_cost_us", per_op(counts.exact_cost_us)),
        ("inum.prepare_ms", rec.mean_ms("inum.prepare")),
        ("inum.skeletons_built", per_op(counts.skeletons)),
        (
            "inum.skeleton_us",
            ratio(rec.total_ms("inum.prepare") * 1e3, counts.skeletons),
        ),
        ("inum.cost_us", per_op(counts.inum_cost_us)),
        ("inum.build_ms", rec.mean_ms("inum.build")),
        ("inum.cells_computed", per_op(counts.cells)),
        ("inum.cell_ns", ratio(counts.build_nanos, counts.cells)),
        ("inum.add_candidates_ms", rec.mean_ms("inum.add_candidates")),
        ("inum.publish_us", rec.mean_ms("inum.publish") * 1e3),
        ("inum.lookups", lookups),
        ("inum.lookup_ns", per_op(counts.lookup_ns)),
        ("inum.joint_lookup_ns", joint_ns),
        (
            "inum.partition_lookup_share",
            ratio(counts.partition_lookups, counts.lookups),
        ),
        (
            "inum.lookup_time_share",
            ratio(lookups * joint_ns / 1e6, op_ms),
        ),
        ("cophy.merge_ms", rec.mean_ms("cophy.merge")),
        ("cophy.atomic_ms", rec.mean_ms("cophy.atomic")),
        ("cophy.atomic_configs", per_op(counts.atomic_configs)),
        ("cophy.formulate_ms", rec.mean_ms("cophy.formulate")),
        ("cophy.ilp_vars", per_op(counts.ilp_vars)),
        ("cophy.ilp_rows", per_op(counts.ilp_rows)),
        ("cophy.greedy_ms", rec.mean_ms("cophy.greedy")),
        ("solver.milp_ms", milp_ms),
        ("solver.nodes", per_op(counts.nodes)),
        (
            "solver.node_ms",
            ratio(rec.total_ms("solver.milp"), counts.nodes),
        ),
        ("solver.root_lp_ms", per_op(counts.root_lp_ms)),
        ("solver.gap", counts.gap),
        ("solver.share", ratio(milp_ms, op_ms)),
        ("autopart.search_ms", rec.mean_ms("autopart.search")),
        ("autopart.iterations", per_op(counts.iterations)),
        ("interaction.analyze_ms", rec.mean_ms("interaction.analyze")),
        (
            "interaction.schedule_ms",
            rec.mean_ms("interaction.schedule"),
        ),
        ("core.render_us", rec.mean_ms("core.render") * 1e3),
        (
            "core.unattributed_share",
            ratio(
                counts.replica_s * 1e3 - rec.attributed_ms(),
                counts.replica_s * 1e3,
            ),
        ),
        (
            "trace.overhead_share",
            ratio(counts.replica_s - counts.facade_s, counts.facade_s),
        ),
        ("trace.replica_matches_facade", f64::from(u8::from(matches))),
    ]);
    Traced {
        values,
        attempted: out.attempted,
        failed: out.failed,
        failures: out.failures,
        recorder: rec,
    }
}

/// Run pass 0 unwatched, then again under a recorder.
fn watched_pass(workload: Workload, args: &Args) -> (PassOutput, PassOutput, Recorder) {
    let dir = workloads::state_dir(&args.out_dir, workload, 0);
    let plain = workloads::run_pass(workload, args.sizes(), args.seed, 0, &dir, &mut Unwatched);
    let mut rec = Recorder::new();
    let traced = workloads::run_pass(workload, args.sizes(), args.seed, 0, &dir, &mut rec);
    (plain, traced, rec)
}

/// Counter deltas over the ops of a watched pass: `(last - first)` of a
/// cumulative counter, where the first reading is the pass's baseline.
fn delta(rec: &Recorder, read: impl Fn(&TuningStats) -> u64) -> f64 {
    match (rec.counters.first(), rec.counters.last()) {
        (Some((_, first)), Some((_, last))) => (read(last) - read(first)) as f64,
        _ => 0.0,
    }
}

/// The metrics every watched pass shares.
fn watched_values(plain: &PassOutput, traced: &PassOutput, rec: &Recorder) -> Values {
    let traced_ms = traced.busy_s * 1e3;
    Values::from([
        ("catalog.build_ms", rec.mean_ms("catalog.build")),
        (
            "core.unattributed_share",
            ratio(traced_ms - rec.attributed_ms(), traced_ms),
        ),
        (
            "trace.overhead_share",
            ratio(traced.busy_s - plain.busy_s, plain.busy_s),
        ),
    ])
}

fn trace_interactive(args: &Args) -> Traced {
    let workload = Workload::InteractiveWhatif;
    let (plain, traced, rec) = watched_pass(workload, args);
    let mut values = watched_values(&plain, &traced, &rec);
    let steps = traced.attempted as f64;
    let step_ms = ratio(traced.busy_s * 1e3, steps);

    // The session's own stages and the lookup cost, on a session opened
    // here the way the pass opens its own.
    let designer = Designer::new(workload.catalog());
    let inputs = Inputs::generate(workload, args.sizes(), args.seed, 0);
    let w = parse_statements(&designer, &inputs.statements[0]).expect("generated statements parse");
    let inum = Inum::new(&designer.catalog, &designer.optimizer);
    let ((), prepare_s) = secs(|| inum.prepare_workload(&w));
    let (matrix, build_s) = secs(|| CostMatrix::build(&inum, &w, &[]));
    let (prepare_ms, build_ms) = (prepare_s * 1e3, build_s * 1e3);
    let skeletons = inum.stats().skeletons_built as f64;
    let (exact_us, inum_us) = cost_call_us(&designer, &inum, &w, &PhysicalDesign::empty());
    drop(matrix);
    let mut session = designer.session(w);
    for line in &inputs.script[..inputs.script.len().min(2 * benchmark::gen::MAX_SELECTED)] {
        workloads::apply_script_line(&designer, &mut session, line).expect("script line applies");
    }
    let publish_us = secs(|| session.publish()).1 * 1e6;
    let (plain_ns, joint_ns) = lookup_ns(session.tuning_session().matrix(), args.seed);

    let lookups = ratio(delta(&rec, |s| s.matrix.lookups), steps - 1.0);
    let graph = rec.durations_ms("interaction.graph");
    values.extend([
        ("optimizer.exact_cost_us", exact_us),
        ("inum.prepare_ms", prepare_ms),
        ("inum.skeletons_built", skeletons),
        ("inum.skeleton_us", ratio(prepare_ms * 1e3, skeletons)),
        ("inum.cost_us", inum_us),
        ("inum.build_ms", build_ms),
        (
            "inum.cells_computed",
            ratio(delta(&rec, |s| s.matrix.cells), steps - 1.0),
        ),
        (
            "inum.cell_ns",
            ratio(
                delta(&rec, |s| s.matrix.build_nanos),
                delta(&rec, |s| s.matrix.cells),
            ),
        ),
        ("inum.publish_us", publish_us),
        ("inum.lookups", lookups),
        ("inum.lookup_ns", plain_ns),
        ("inum.joint_lookup_ns", joint_ns),
        (
            "inum.partition_lookup_share",
            ratio(
                delta(&rec, |s| s.matrix.partition_lookups),
                delta(&rec, |s| s.matrix.lookups),
            ),
        ),
        (
            "inum.lookup_time_share",
            ratio(lookups * joint_ns / 1e6, step_ms),
        ),
        (
            "interaction.graph_ms_p50",
            stats::median(&graph).unwrap_or(0.0),
        ),
        (
            "interaction.graph_ms_p99",
            stats::percentile(&graph, 99.0).unwrap_or(0.0),
        ),
        (
            "interaction.graph_share",
            ratio(rec.total_ms("interaction.graph"), traced.busy_s * 1e3),
        ),
        ("core.toggle_us", rec.mean_ms("core.toggle") * 1e3),
        ("core.evaluate_us", rec.mean_ms("core.evaluate") * 1e3),
        ("core.render_us", rec.mean_ms("core.render") * 1e3),
    ]);
    finish(vec![plain, traced], values, rec)
}

/// The trace of a workload whose passes (unwatched, watched, and on
/// disk if any) ran their own output checks.
fn finish(passes: Vec<PassOutput>, values: Values, recorder: Recorder) -> Traced {
    Traced {
        values,
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        failures: passes.into_iter().flat_map(|p| p.failures).collect(),
        recorder,
    }
}

fn trace_online(workload: Workload, args: &Args) -> Traced {
    let (plain, traced, rec) = watched_pass(workload, args);
    let mut values = watched_values(&plain, &traced, &rec);
    let statements = rec.count("query.parse") as f64;
    let epochs = traced.latency_ms.len() as f64;
    // Counter readings are one per epoch close: deltas span all epochs
    // but the first.
    let later_epochs = (epochs - 1.0).max(0.0);
    let later_statements = later_epochs * EPOCH_LENGTH as f64;
    let cells = delta(&rec, |s| s.matrix.cells);
    let reused = delta(&rec, |s| s.matrix.cells_reused);
    let lookups = ratio(delta(&rec, |s| s.matrix.lookups), later_statements);
    values.extend([
        ("query.parse_us", rec.mean_ms("query.parse") * 1e3),
        (
            "inum.skeletons_built",
            ratio(delta(&rec, |s| s.inum.skeletons_built), later_statements),
        ),
        (
            "inum.cost_calls_per_observe",
            ratio(delta(&rec, |s| s.inum.cost_calls), later_statements),
        ),
        ("inum.cells_computed", ratio(cells, later_statements)),
        (
            "inum.cell_ns",
            ratio(delta(&rec, |s| s.matrix.build_nanos), cells),
        ),
        (
            "inum.rotate_ms",
            ratio(delta(&rec, |s| s.matrix.build_nanos) / 1e6, later_epochs),
        ),
        ("inum.cells_reused_share", ratio(reused, cells + reused)),
        ("inum.lookups", lookups),
        (
            "inum.partition_lookup_share",
            ratio(
                delta(&rec, |s| s.matrix.partition_lookups),
                delta(&rec, |s| s.matrix.lookups),
            ),
        ),
    ]);

    // COLT alone: the tuner on a bare matrix, no session and no store,
    // over the same statements; then the persistence codec on the state
    // that stream leaves behind.
    let designer = Designer::new(workload.catalog());
    let inputs = Inputs::generate(workload, args.sizes(), args.seed, 0);
    let queries: Vec<_> = inputs.statements[0]
        .iter()
        .map(|sql| parse_query(&designer.catalog.schema, sql).expect("generated statements parse"))
        .collect();
    let inum = Inum::new(&designer.catalog, &designer.optimizer);
    let mut matrix = CostMatrix::build(&inum, &QueryWorkload::new(), &[]);
    let config = workloads::colt_config(&designer);
    let mut tuner = ColtTuner::new(&designer.catalog, &designer.optimizer, config);
    let (mut observe_s, mut epoch_s, mut bare_epochs) = (0.0, 0.0, 0.0);
    let (mut whatif, mut dropped, mut full) = (0.0, 0.0, 0.0);
    for q in queries {
        let (report, elapsed) = secs(|| tuner.observe(q, &mut matrix));
        observe_s += elapsed;
        if let Some(r) = report {
            epoch_s += elapsed;
            bare_epochs += 1.0;
            whatif += r.whatif_calls as f64;
            dropped += r.candidates_dropped as f64;
            full += f64::from(u8::from(r.mode == EpochMode::Full));
        }
    }
    let (plain_ns, joint_ns) = lookup_ns(&matrix, args.seed);
    values.extend([
        ("colt.observe_us", ratio(observe_s * 1e6, statements)),
        ("colt.epoch_ms", ratio(epoch_s * 1e3, bare_epochs)),
        ("colt.whatif_calls_per_epoch", ratio(whatif, bare_epochs)),
        (
            "colt.candidates_dropped_per_epoch",
            ratio(dropped, bare_epochs),
        ),
        ("colt.full_epoch_share", ratio(full, bare_epochs)),
        ("inum.lookup_ns", plain_ns),
        ("inum.joint_lookup_ns", joint_ns),
        (
            "inum.lookup_time_share",
            ratio(
                lookups * joint_ns / 1e3,
                ratio(traced.busy_s * 1e6, statements),
            ),
        ),
    ]);

    let mut passes = vec![plain, traced];
    if workload == Workload::OnlineDurable {
        let (records, encode_s) = secs(|| encode_published(&matrix));
        let fresh = Inum::new(&designer.catalog, &designer.optimizer);
        let (restored, restore_s) = secs(|| {
            decode_snapshot(&records)
                .ok()
                .and_then(|decoded| restore_matrix(&fresh, decoded).ok())
        });
        assert!(restored.is_some(), "a fresh snapshot restores");
        // Counts come from the watched pass on the simulated disk, where
        // they repeat exactly; times from a third pass on real files, and
        // are this sandbox's disk, not a device's. Each pass metered two
        // stores: the one the stream wrote through, the one the reopen
        // read from.
        let mut disk_rec = Recorder::new();
        disk_rec.on_disk = true;
        let dir = workloads::state_dir(&args.out_dir, workload, 0);
        // A tenth of the stream is five thousand syncs: enough for the
        // disk's numbers, and seconds not minutes when the disk is slow.
        let sizes = Sizes {
            durable_statements: args.sizes().durable_statements / 10,
            ..*args.sizes()
        };
        let disk = workloads::run_pass(workload, &sizes, args.seed, 0, &dir, &mut disk_rec);
        let writer = rec.meters[0].borrow().clone();
        let [disk_writer, disk_reader] = [0, 1].map(|i| disk_rec.meters[i].borrow().clone());
        let appends = writer.total("append", |_| true);
        let atomic = writer.total("write_atomic", |_| true);
        let snapshots = disk_writer.total("write_atomic", |n| n == "matrix.pgds");
        let checkpoint = disk_writer.total("write_atomic", |n| n.starts_with("matrix."));
        values.extend([
            ("inum.encode_ms", encode_s * 1e3),
            (
                "inum.snapshot_bytes",
                records.iter().map(Vec::len).sum::<usize>() as f64,
            ),
            ("inum.restore_ms", restore_s * 1e3),
            (
                "durability.appends_per_epoch",
                ratio(appends.count as f64, epochs),
            ),
            (
                "durability.syncs_per_epoch",
                ratio(writer.total("sync", |_| true).count as f64, epochs),
            ),
            (
                "durability.bytes_per_epoch",
                ratio((appends.bytes + atomic.bytes) as f64, epochs),
            ),
            (
                "durability.sync_ms_p50",
                stats::median(&disk_writer.sync_ms).unwrap_or(0.0),
            ),
            (
                "durability.checkpoints",
                writer.total("write_atomic", |n| n == "matrix.pgds").count as f64,
            ),
            (
                "durability.checkpoint_ms",
                ratio(checkpoint.nanos as f64 / 1e6, snapshots.count as f64),
            ),
            (
                "durability.read_ms",
                disk_reader.total("read", |_| true).nanos as f64 / 1e6,
            ),
            (
                "durability.store_share",
                ratio(disk_writer.nanos() as f64 / 1e9, disk.busy_s + disk.setup_s),
            ),
            ("durability.state_bytes", disk.state_bytes as f64),
        ]);
        passes.push(disk);
    }
    finish(passes, values, rec)
}
