//! `bench`: the untraced runs the end-to-end metrics come from.
//!
//! ```text
//! bench --workload NAME|all --seed N --seconds S [--quick] [--out DIR]
//! bench compare A.json B.json
//! bench spec                      (prints BENCHMARK.json from the tables)
//! ```
//!
//! A run is a closed loop of one client: passes are child processes of
//! this one, started one at a time and waited for. Each pass is a fixed
//! amount of work (see `workloads`); a workload gets passes until it has
//! been measured for `--seconds` and its tail percentile has ten samples
//! beyond it. With several workloads the passes are interleaved, so a
//! noisy minute on a shared machine lands in every workload's tail and in
//! no workload's median.

use benchmark::report::{self, Verdict, WorkloadResult, END_TO_END};
use benchmark::stats::{self, Json};
use benchmark::workloads::{self, Inputs, PassOutput, Unwatched, Workload};
use benchmark::Args;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("spec") => {
            print!("{}", report::benchmark_json());
            Ok(true)
        }
        _ => Args::parse(&args).and_then(|a| match a.pass {
            Some(pass) => {
                child_pass(&a, pass);
                Ok(true)
            }
            None => run(&a),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Child mode: run one pass in this fresh process and print it.
fn child_pass(args: &Args, pass: u64) {
    let workload = args.workloads[0];
    let dir = workloads::state_dir(&args.out_dir, workload, pass);
    let out = workloads::run_pass(
        workload,
        args.sizes(),
        args.seed,
        pass,
        &dir,
        &mut Unwatched,
    );
    println!("{}", out.to_json());
}

/// Start one pass as a child process and wait for it.
fn spawn_pass(args: &Args, workload: Workload, pass: u64, quick: bool) -> Option<PassOutput> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--pass", &pass.to_string()])
        .arg("--out")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().ok()?;
    if !output.status.success() {
        eprintln!(
            "bench: pass {pass} of {} exited with {}",
            workload.name(),
            output.status
        );
        return None;
    }
    let stdout = String::from_utf8(output.stdout).ok()?;
    PassOutput::from_json(&Json::parse(stdout.lines().last()?).ok()?)
}

/// Latency samples a workload needs before its tail percentile has ten
/// samples beyond it.
fn sample_floor(workload: Workload) -> usize {
    stats::tail_floor(workload.latency_of().1).expect("tails are percentiles of the ladder")
}

fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let mut results: Vec<WorkloadResult> = Vec::new();
    for &workload in &args.workloads {
        let inputs = Inputs::generate(workload, args.sizes(), args.seed, 0);
        let path = args.out_dir.join(format!("{}.sql", workload.name()));
        std::fs::write(&path, inputs.to_file_text())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        // One discarded warm-up pass. Every pass is a fresh process, so
        // what it warms is the machine (the binary in the page cache),
        // and the smoke size is enough for that.
        let _ = spawn_pass(args, workload, 0, true);
        results.push(WorkloadResult {
            workload,
            passes: Vec::new(),
            lost_passes: 0,
            measured_s: 0.0,
        });
    }

    loop {
        let mut progressed = false;
        for r in &mut results {
            let done = r.passes.len() as u64 + r.lost_passes;
            let wanted = if args.quick {
                done == 0
            } else {
                // Another pass only if it ends nearer the target than now.
                let mean_pass = r.measured_s / done.max(1) as f64;
                r.measured_s + mean_pass / 2.0 < args.seconds
                    || (r.latency_samples() < sample_floor(r.workload) && r.lost_passes == 0)
            };
            if !wanted {
                continue;
            }
            progressed = true;
            let start = Instant::now();
            match spawn_pass(args, r.workload, done, args.quick) {
                Some(out) => r.passes.push(out),
                None => r.lost_passes += 1,
            }
            r.measured_s += start.elapsed().as_secs_f64();
        }
        if !progressed {
            break;
        }
    }

    let mut all_correct = true;
    for r in &results {
        print_workload(r);
        all_correct &= r.correct();
    }
    let file = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("quick", Json::Bool(args.quick)),
        ("threads", Json::Num(benchmark::threads() as f64)),
        (
            "workloads",
            Json::obj(results.iter().map(|r| (r.workload.name(), r.to_json()))),
        ),
    ]);
    let path = args.out_dir.join("results.json");
    std::fs::write(&path, format!("{file}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    // The driver reads the last line; it runs one workload at a time.
    for r in &results {
        println!("{}", r.driver_line());
    }
    Ok(all_correct)
}

fn print_workload(r: &WorkloadResult) {
    let w = r.workload;
    let (unit_of_latency, tail) = w.latency_of();
    println!(
        "== {} == {} passes in {:.1} s, {} threads, closed loop of 1 client",
        w.name(),
        r.passes.len(),
        r.measured_s,
        benchmark::threads()
    );
    println!("   why: {}", w.why());
    println!(
        "   op = one {}; attempted {} failed {} (share {})",
        w.op(),
        r.attempted(),
        r.failed(),
        r.failed() as f64 / r.attempted().max(1) as f64
    );
    println!(
        "   each metric is the median over the {} passes of the value a pass alone gives; \
         {} {unit_of_latency} times and {} opens in all",
        r.passes.len(),
        r.latency_samples(),
        r.passes.iter().map(|p| p.open_ms.len()).sum::<usize>()
    );
    let per_pass = report::per_pass(w, &r.passes);
    for ((spec, value), passes) in END_TO_END.iter().zip(r.metrics()).zip(per_pass) {
        let note = match spec.name {
            "setup_s" => "catalog, designer, input text".to_string(),
            "open_ms" => "median open of the pass".to_string(),
            "op_p50_ms" if w.is_offline() => {
                format!("geometric mean of the pass's {unit_of_latency} times")
            }
            "op_p50_ms" => format!("median of the pass's {unit_of_latency} times"),
            "op_tail_ms" => format!("p{tail} of the pass's {unit_of_latency} times"),
            "ops_per_s" => format!("{}s over the time inside them", w.op()),
            "cost_ratio" => "design cost over empty-design cost, geometric mean".to_string(),
            _ => "largest over passes".to_string(),
        };
        let value = value.map_or("missing".to_string(), |v| format!("{v}"));
        let spread =
            stats::spread(&passes).map_or("-".to_string(), |s| format!("{:.1}%", 100.0 * s));
        println!(
            "   {:<12} {value:>22} {:<6} {} is better, bound {:.0}%, quartiles of the passes {spread} apart; {note}",
            spec.name,
            spec.unit,
            spec.better.as_str(),
            100.0 * spec.bound
        );
    }
    if r.latency_samples() < sample_floor(w) {
        let supported = stats::supported_tail(r.latency_samples())
            .map_or("only the median".to_string(), |p| format!("p{p}"));
        println!(
            "   note: p{tail} wants {} latency samples, these {} support {supported}",
            sample_floor(w),
            r.latency_samples()
        );
    }
    for p in &r.passes {
        for f in &p.failures {
            println!("   FAILED: {f}");
        }
    }
    if r.lost_passes > 0 {
        println!(
            "   FAILED: {} passes died or printed no result",
            r.lost_passes
        );
    }
}

fn compare(files: &[String]) -> Result<bool, String> {
    let [base, new] = files else {
        return Err("usage: bench compare A.json B.json".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = report::compare(&load(base)?, &load(new)?)?;
    println!(
        "{:<20} {:<13} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "new", "worse by", "bound"
    );
    let mut ok = true;
    for row in &rows {
        println!(
            "{:<20} {:<13} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%  {}",
            row.workload,
            row.metric,
            row.base,
            row.new,
            100.0 * row.worse_by,
            100.0 * row.bound,
            row.verdict.as_str()
        );
        ok &= row.verdict != Verdict::Regressed;
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    Ok(ok)
}
