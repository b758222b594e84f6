//! From passes to metrics: the end-to-end metric table with its bounds,
//! the line the driver reads, the results file, and `compare`.

use crate::stats::{self, Json};
use crate::workloads::{PassOutput, Workload};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before it
    /// counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics. Every workload reports every one of them, so
/// each is defined by the scenario's own unit of work rather than named
/// after one scenario; README.md says what each is on each workload.
///
/// Every timing carries the widest bound the contract allows. Ten runs
/// at ten seeds spread 3 to 9% on a quiet machine, but this one is
/// shared: in the runs that sized the benchmark a quarter of them sat in
/// episodes 15 to 25% slower (every timing of a run together, whatever
/// the seed), and the quartile distance over ten runs reached 18%. The
/// two quality metrics are deterministic given the seed and move 0.1 to
/// 1% between seeds.
pub const END_TO_END: [MetricSpec; 7] = [
    MetricSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricSpec {
        name: "open_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricSpec {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricSpec {
        name: "op_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricSpec {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    MetricSpec {
        name: "cost_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
    },
    MetricSpec {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
    },
];

/// The end-to-end metrics one pass alone gives, in [`END_TO_END`] order;
/// `None` where the pass holds no sample for one.
pub fn pass_metrics(workload: Workload, pass: &PassOutput) -> [Option<f64>; 7] {
    // Recommend time is log-normal across instances and each instance is
    // timed once: the geometric mean estimates the same median with less
    // variance than the sample median does.
    let typical = if workload.is_offline() {
        stats::geometric_mean(&pass.latency_ms)
    } else {
        stats::median(&pass.latency_ms)
    };
    [
        Some(pass.setup_s),
        stats::median(&pass.open_ms),
        typical,
        stats::percentile(&pass.latency_ms, workload.latency_of().1),
        (pass.busy_s > 0.0).then(|| pass.attempted as f64 / pass.busy_s),
        stats::geometric_mean(&pass.cost_ratios),
        Some(pass.peak_rss_mb),
    ]
}

/// For each metric of [`END_TO_END`], the value each pass alone gives.
pub fn per_pass(workload: Workload, passes: &[PassOutput]) -> Vec<Vec<f64>> {
    let rows: Vec<[Option<f64>; 7]> = passes.iter().map(|p| pass_metrics(workload, p)).collect();
    (0..END_TO_END.len())
        .map(|i| rows.iter().filter_map(|row| row[i]).collect())
        .collect()
}

/// The end-to-end metrics of a run's passes: for each metric the median
/// over passes of the value each pass alone gives (for `peak_rss_mb` the
/// largest). The machine is shared and slows by a quarter for seconds to
/// minutes at a time; a median over passes shrugs off an episode shorter
/// than half the run, where a pooled mean or a pooled p99 would carry it.
pub fn end_to_end(workload: Workload, passes: &[PassOutput]) -> Vec<Option<f64>> {
    END_TO_END
        .iter()
        .zip(per_pass(workload, passes))
        .map(|(spec, values)| {
            if spec.name == "peak_rss_mb" {
                values.into_iter().reduce(f64::max)
            } else {
                stats::median(&values)
            }
        })
        .collect()
}

/// Everything a run learned about one workload.
pub struct WorkloadResult {
    pub workload: Workload,
    pub passes: Vec<PassOutput>,
    /// Passes whose process died or printed no result.
    pub lost_passes: u64,
    pub measured_s: f64,
}

impl WorkloadResult {
    pub fn attempted(&self) -> u64 {
        self.passes.iter().map(|p| p.attempted).sum::<u64>() + self.lost_passes
    }

    pub fn failed(&self) -> u64 {
        self.passes.iter().map(|p| p.failed).sum::<u64>() + self.lost_passes
    }

    pub fn metrics(&self) -> Vec<Option<f64>> {
        end_to_end(self.workload, &self.passes)
    }

    /// Output checks passed and every metric was measured.
    pub fn correct(&self) -> bool {
        self.failed() == 0
            && self
                .metrics()
                .iter()
                .all(|m| m.is_some_and(|v| v.is_finite() && v > 0.0))
    }

    /// The object the driver reads from the last line of standard output.
    pub fn driver_line(&self) -> Json {
        let metrics = END_TO_END.iter().zip(self.metrics()).map(|(spec, value)| {
            (
                spec.name,
                metric_entry(value.unwrap_or(f64::NAN), spec.unit),
            )
        });
        driver_line(
            self.correct(),
            self.attempted().max(1),
            self.failed(),
            Json::obj(metrics),
        )
    }

    /// This workload's entry of the results file: each metric with the
    /// value each pass alone gives, which is what `compare` pairs up.
    pub fn to_json(&self) -> Json {
        let metrics = END_TO_END
            .iter()
            .zip(self.metrics())
            .zip(per_pass(self.workload, &self.passes))
            .map(|((spec, value), passes)| {
                let entry = Json::obj([
                    ("value", Json::Num(value.unwrap_or(f64::NAN))),
                    ("unit", Json::Str(spec.unit.into())),
                    ("per_pass", Json::nums(&passes)),
                ]);
                (spec.name, entry)
            });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted() as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            ("passes", Json::Num(self.passes.len() as f64)),
            ("measured_s", Json::Num(self.measured_s)),
            ("latency_samples", Json::Num(self.latency_samples() as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    pub fn latency_samples(&self) -> usize {
        self.passes.iter().map(|p| p.latency_ms.len()).sum()
    }
}

/// How long one run measures each workload, in seconds. Sized with the
/// instance sizes in `workloads::Sizes::FULL`: long enough for some 700
/// offline instances, short enough for the driver's 114 runs.
pub const RUN_SECONDS: u64 = 24;

/// BENCHMARK.json, from the tables in this crate: top-level entries and
/// the members of its lists one to a line.
pub fn benchmark_json() -> String {
    use crate::layers::PER_LAYER;
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    let workloads = Workload::ALL.map(|w| {
        Json::obj([
            ("name", Json::Str(w.name().into())),
            ("why", Json::Str(w.why().into())),
        ])
    });
    let end_to_end = END_TO_END.map(|m| {
        Json::obj([
            ("name", Json::Str(m.name.into())),
            ("unit", Json::Str(m.unit.into())),
            ("better", Json::Str(m.better.as_str().into())),
            ("bound", Json::Num(m.bound)),
        ])
    });
    let per_layer = PER_LAYER.map(|m| {
        Json::obj([
            ("name", Json::Str(m.name.into())),
            ("unit", Json::Str(m.unit.into())),
            ("better", Json::Str(m.better.as_str().into())),
        ])
    });
    let list = |items: &[Json]| {
        let lines: Vec<String> = items.iter().map(|i| format!("    {i}")).collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    [
        format!("{{\n  \"command\": {}", strs(&["bash", "benchmark/run.sh"])),
        format!("  \"paths\": {}", strs(&["benchmark"])),
        format!("  \"run_seconds\": {RUN_SECONDS}"),
        format!("  \"workloads\": {}", list(&workloads)),
        format!("  \"end_to_end\": {}", list(&end_to_end)),
        format!("  \"per_layer\": {}\n}}\n", list(&per_layer)),
    ]
    .join(",\n")
}

/// One metric of a result line.
pub fn metric_entry(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

pub fn driver_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Worse than the bound allows, but the passes disagree by more than
    /// the bound: neither a regression nor the absence of one is shown.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of a comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base: f64,
    pub new: f64,
    /// By what share of the baseline the new value is worse (negative:
    /// better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judge one metric from the values each pass gave on either side. Pass
/// `i` has the same inputs on both sides, so the passes are paired: the
/// median of the per-pass changes is the change, their quartile distance
/// the noise.
pub fn judge(
    spec: &MetricSpec,
    base: f64,
    new: f64,
    base_passes: &[f64],
    new_passes: &[f64],
) -> (f64, Verdict) {
    let worse = |b: f64, n: f64| match spec.better {
        Better::Lower => (n - b) / b.abs(),
        Better::Higher => (b - n) / b.abs(),
    };
    let worse_by = worse(base, new);
    if worse_by <= spec.bound {
        return (worse_by, Verdict::Ok);
    }
    let paired: Vec<f64> = base_passes
        .iter()
        .zip(new_passes)
        .map(|(&b, &n)| worse(b, n))
        .collect();
    let noisy = stats::quartiles(&paired).is_none_or(|(q1, q3)| q3 - q1 > spec.bound);
    let unanimous = !paired.is_empty() && paired.iter().all(|&w| w > 0.0);
    if noisy && !unanimous {
        (worse_by, Verdict::Unresolved)
    } else {
        (worse_by, Verdict::Regressed)
    }
}

/// Compare two results files, workload by workload and metric by metric.
/// A workload's share of failed ops may not rise at all; it is judged as
/// a row named `failed_share`.
pub fn compare(base: &Json, new: &Json) -> Result<Vec<Row>, String> {
    let workloads = |j: &Json| -> Result<BTreeMap<String, Json>, String> {
        j.get("workloads")
            .and_then(Json::as_obj)
            .cloned()
            .ok_or_else(|| "no \"workloads\" object".to_string())
    };
    let (base, new) = (workloads(base)?, workloads(new)?);
    let mut rows = Vec::new();
    for (name, b) in &base {
        let Some(n) = new.get(name) else {
            return Err(format!("workload {name} is missing from the second file"));
        };
        let share = |j: &Json| -> Option<f64> {
            Some(j.get("failed")?.as_f64()? / j.get("attempted")?.as_f64()?.max(1.0))
        };
        let (bf, nf) = (
            share(b).ok_or("no failed/attempted")?,
            share(n).ok_or("no failed/attempted")?,
        );
        rows.push(Row {
            workload: name.clone(),
            metric: "failed_share",
            base: bf,
            new: nf,
            worse_by: nf - bf,
            bound: 0.0,
            verdict: if nf > bf {
                Verdict::Regressed
            } else {
                Verdict::Ok
            },
        });
        for spec in &END_TO_END {
            let entry = |j: &Json| -> Option<(f64, Vec<f64>)> {
                let m = j.get("metrics")?.get(spec.name)?;
                Some((m.get("value")?.as_f64()?, m.get("per_pass")?.as_f64s()))
            };
            let (Some((bv, bp)), Some((nv, np))) = (entry(b), entry(n)) else {
                return Err(format!("{name}: metric {} is missing or null", spec.name));
            };
            let (worse_by, verdict) = judge(spec, bv, nv, &bp, &np);
            rows.push(Row {
                workload: name.clone(),
                metric: spec.name,
                base: bv,
                new: nv,
                worse_by,
                bound: spec.bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(latency: &[f64], setup_s: f64) -> PassOutput {
        PassOutput {
            setup_s,
            open_ms: vec![2.0, 4.0],
            latency_ms: latency.to_vec(),
            attempted: latency.len() as u64,
            failed: 0,
            busy_s: latency.iter().sum::<f64>() / 1e3,
            cost_ratios: vec![0.25, 1.0],
            peak_rss_mb: 10.0 + setup_s,
            state_bytes: 0,
            failures: Vec::new(),
        }
    }

    fn result(workload: Workload, scale: f64) -> WorkloadResult {
        let passes = (0..6)
            .map(|i| {
                let l: Vec<f64> = (1..=20).map(|k| scale * (k + i) as f64).collect();
                pass(&l, 0.5)
            })
            .collect();
        WorkloadResult {
            workload,
            passes,
            lost_passes: 0,
            measured_s: 1.0,
        }
    }

    fn results_file(scale: f64) -> Json {
        let entries = Workload::ALL.map(|w| (w.name(), result(w, scale).to_json()));
        Json::obj([("workloads", Json::obj(entries))])
    }

    /// BENCHMARK.json at the repo root is generated (`bench spec`), never
    /// edited: the tables here are the one place a metric is declared.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(
            committed == benchmark_json(),
            "regenerate it: bench spec > BENCHMARK.json"
        );
        let json = Json::parse(&committed).unwrap();
        let keys: Vec<&String> = json.as_obj().unwrap().keys().collect();
        let expected = [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads",
        ];
        assert_eq!(keys, expected);
        assert!(committed.len() < 64 * 1024);
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(crate::layers::PER_LAYER.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn metrics_follow_their_definitions() {
        let one = pass(&[1.0, 4.0, 16.0], 0.5);
        let m = pass_metrics(Workload::OfflineSdss, &one);
        assert_eq!(m[0], Some(0.5));
        assert_eq!(m[1], Some(3.0), "median open");
        assert!(
            (m[2].unwrap() - 4.0).abs() < 1e-12,
            "geometric mean offline"
        );
        assert!((m[3].unwrap() - 13.6).abs() < 1e-12, "p90");
        assert!(
            (m[4].unwrap() - 3.0 / 0.021).abs() < 1e-9,
            "ops over busy time"
        );
        assert!((m[5].unwrap() - 0.5).abs() < 1e-12, "geometric mean ratio");
        assert_eq!(m[6], Some(10.5));
        let m = pass_metrics(Workload::OnlineMem, &pass(&[1.0, 2.0, 16.0], 0.5));
        assert_eq!(m[2], Some(2.0), "median elsewhere");

        // A run reports the median over its passes, the largest for rss.
        let passes = [pass(&[1.0], 0.5), pass(&[2.0], 1.5), pass(&[40.0], 1.0)];
        let m = end_to_end(Workload::OnlineMem, &passes);
        assert_eq!((m[0], m[2], m[6]), (Some(1.0), Some(2.0), Some(11.5)));
        assert_eq!(end_to_end(Workload::OnlineMem, &[])[2], None);
    }

    #[test]
    fn driver_line_has_every_end_to_end_metric_and_nothing_else() {
        let r = result(Workload::InteractiveWhatif, 1.0);
        let line = r.driver_line();
        let keys: Vec<&String> = line.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        let mut names: Vec<&str> = END_TO_END.iter().map(|s| s.name).collect();
        names.sort_unstable();
        assert_eq!(
            metrics.keys().map(String::as_str).collect::<Vec<_>>(),
            names
        );
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("attempted"), Some(&Json::Num(120.0)));
    }

    #[test]
    fn lost_pass_or_failed_op_is_not_correct() {
        let mut r = result(Workload::OnlineMem, 1.0);
        r.lost_passes = 1;
        assert!(!r.correct());
        assert_eq!(r.failed(), 1);
        let mut r = result(Workload::OnlineMem, 1.0);
        r.passes[0].failed = 2;
        assert!(!r.correct());
    }

    #[test]
    fn compare_calls_equal_runs_ok_and_a_slowdown_regressed() {
        let rows = compare(&results_file(1.0), &results_file(1.0)).unwrap();
        assert_eq!(rows.len(), 5 * (END_TO_END.len() + 1));
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));

        // Twice the latency on every pass: latency and throughput rows
        // regress, the others hold; the reverse comparison is an
        // improvement and so ok.
        let rows = compare(&results_file(1.0), &results_file(2.0)).unwrap();
        for row in &rows {
            let slowed = matches!(row.metric, "op_p50_ms" | "op_tail_ms" | "ops_per_s");
            assert_eq!(row.verdict == Verdict::Regressed, slowed, "{row:?}");
        }
        let rows = compare(&results_file(2.0), &results_file(1.0)).unwrap();
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn compare_flags_a_higher_failed_share() {
        let mut worse = result(Workload::OnlineMem, 1.0);
        worse.passes[0].failed = 1;
        let file = |r: &WorkloadResult| {
            Json::obj([("workloads", Json::obj([(r.workload.name(), r.to_json())]))])
        };
        let rows = compare(&file(&result(Workload::OnlineMem, 1.0)), &file(&worse)).unwrap();
        let row = rows.iter().find(|r| r.metric == "failed_share").unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved_unless_unanimous() {
        let spec = &MetricSpec {
            bound: 0.15,
            ..END_TO_END[2]
        };
        let base = [10.0, 10.0, 10.0, 10.0];
        // Worse overall, but the passes scatter from better to far worse.
        let (_, v) = judge(spec, 10.0, 12.0, &base, &[8.0, 9.0, 14.0, 17.0]);
        assert_eq!(v, Verdict::Unresolved);
        // Scattered just as widely, but every pass is worse.
        let (_, v) = judge(spec, 10.0, 13.0, &base, &[11.0, 12.0, 15.0, 18.0]);
        assert_eq!(v, Verdict::Regressed);
        // Within the bound: ok whatever the scatter.
        let (_, v) = judge(spec, 10.0, 11.0, &base, &[8.0, 9.0, 14.0, 17.0]);
        assert_eq!(v, Verdict::Ok);
        // A missing value is never ok.
        let (_, v) = judge(spec, 10.0, f64::NAN, &base, &[]);
        assert_ne!(v, Verdict::Ok);
    }
}
