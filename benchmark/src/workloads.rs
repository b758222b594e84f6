//! The five scenario workloads, driven in-process through the facade the
//! CLI uses: SQL text in, rendered report out.
//!
//! One *pass* is a fixed amount of work decided by `(workload, seed, pass
//! number)` alone. It runs in a process of its own and redoes its own
//! set-up, so set-up time and peak memory belong to one workload and
//! start as cold as a CLI invocation. Each op performs exactly the CLI's
//! steps; nothing here reaches below `pgdesign::Designer` and the session
//! types it hands out. The [`Probe`] a pass takes lets `bench-trace` watch
//! the same calls without a second copy of the op.

use crate::gen::{self, SplitMix64};
use crate::stats::Json;
use pgdesign::catalog::design::{HorizontalPartitioning, Index, VerticalPartitioning};
use pgdesign::catalog::samples::{sdss_catalog, tpch_catalog};
use pgdesign::catalog::Catalog;
use pgdesign::colt::{ColtConfig, EpochMode};
use pgdesign::cophy::CophyConfig;
use pgdesign::query::{parse_query, Workload as QueryWorkload};
use pgdesign::solver::MilpStatus;
use pgdesign::{
    Designer, InteractiveSession, OfflineReport, OnlineSession, ServiceHealth, TuningStats,
};
use pgdesign_durability::{DurableStore, SharedMemStore};
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Catalog scale of both sample catalogs (the CLI's default).
pub const SCALE: f64 = 0.01;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OfflineSdss,
    OfflineTpch,
    InteractiveWhatif,
    OnlineMem,
    OnlineDurable,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::OfflineSdss,
        Workload::OfflineTpch,
        Workload::InteractiveWhatif,
        Workload::OnlineMem,
        Workload::OnlineDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineSdss => "offline-sdss",
            Workload::OfflineTpch => "offline-tpch",
            Workload::InteractiveWhatif => "interactive-whatif",
            Workload::OnlineMem => "online-mem",
            Workload::OnlineDurable => "online-durable",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (the `why` of BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Workload::OfflineSdss => {
                "recommend on many small SDSS instances: B&B node throughput is nearly all of the op, lookups and matrix build almost none"
            }
            Workload::OfflineTpch => {
                "same pipeline on TPC-H (portability): few B&B nodes over a large dense LP, so LP size moves it and node warm starts barely do"
            }
            Workload::InteractiveWhatif => {
                "a scripted DBA toggling indexes and partitions: the read side (the 2^k interaction sweep over matrix lookups) does all the work, the solver never runs"
            }
            Workload::OnlineMem => {
                "a long drifting stream through COLT in memory: matrix rotation, skeleton building and probing with no solver and no disk; long enough to show unbounded growth"
            }
            Workload::OnlineDurable => {
                "the same stream journaled to a simulated disk, with a power cut and reopen per pass: edit encoding, record framing, checkpoints, restore; must not move online-mem"
            }
        }
    }

    /// What one op is, and so what `attempted` counts.
    pub fn op(self) -> &'static str {
        match self {
            Workload::OfflineSdss | Workload::OfflineTpch => "recommend",
            Workload::InteractiveWhatif => "step",
            Workload::OnlineMem | Workload::OnlineDurable => "observe",
        }
    }

    /// What `op_p50_ms` / `op_tail_ms` time on this workload, and the
    /// percentile of the tail.
    pub fn latency_of(self) -> (&'static str, f64) {
        match self {
            Workload::OfflineSdss | Workload::OfflineTpch => ("recommend", 90.0),
            Workload::InteractiveWhatif => ("step", 99.0),
            Workload::OnlineMem | Workload::OnlineDurable => ("epoch close", 99.0),
        }
    }

    pub fn is_offline(self) -> bool {
        matches!(self, Workload::OfflineSdss | Workload::OfflineTpch)
    }

    /// The sample catalog the workload runs on.
    pub fn catalog(self) -> Catalog {
        match self {
            Workload::OfflineTpch => tpch_catalog(SCALE),
            _ => sdss_catalog(SCALE),
        }
    }
}

/// Storage budget of the offline workloads: half the data, the CLI's
/// default `--budget-frac`.
pub fn offline_budget(designer: &Designer) -> u64 {
    designer.catalog.data_bytes() / 2
}

/// How much work a pass does.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Instances per offline pass, each one op.
    pub instances: usize,
    pub sdss_queries: usize,
    pub tpch_queries: usize,
    /// Queries of the interactive session's workload.
    pub session_queries: usize,
    pub script_steps: usize,
    /// Times an interactive pass opens its session (the last one is
    /// kept), for a steadier median.
    pub opens: usize,
    pub mem_statements: usize,
    pub durable_statements: usize,
    pub phase_len: usize,
}

impl Sizes {
    /// Recommend time is log-normal in the literals: the sd of its log is
    /// about 0.5 on SDSS and 0.3 on TPC-H at every size measured (12 to 40
    /// and 24 to 90 queries). A run therefore needs several hundred
    /// instances before its typical time, and above all its p90, hold
    /// still from seed to seed, and these are the largest instances that
    /// fit that many into a run: 18-query instances gave 144 per run and
    /// a p90 whose quartiles over ten seeds lay 14% apart.
    pub const FULL: Sizes = Sizes {
        instances: 32,
        sdss_queries: 12,
        tpch_queries: 36,
        session_queries: 200,
        script_steps: 200,
        opens: 5,
        mem_statements: 60_000,
        durable_statements: 25_000,
        phase_len: 250,
    };

    /// The smoke-test sizes of `--quick`; never recorded.
    pub const QUICK: Sizes = Sizes {
        instances: 2,
        sdss_queries: 8,
        tpch_queries: 8,
        session_queries: 20,
        script_steps: 40,
        opens: 1,
        mem_statements: 500,
        durable_statements: 500,
        phase_len: 50,
    };
}

/// COLT epoch length of the online workloads (the CLI's default).
pub const EPOCH_LENGTH: usize = 25;

/// Configurations whose costs must survive a kill and reopen bit for bit.
const RESTORE_PROBES: usize = 32;

/// What a pass shows to whoever is watching it. `bench` runs with
/// [`Unwatched`], which compiles to the bare calls; `bench-trace` records
/// a span per stage, the program's counters at the same boundaries, and
/// meters the store.
pub trait Probe {
    /// Run one stage of an op (a call into the program).
    fn stage<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T;
    /// The next op starts: stages until the next call belong to it.
    fn begin_op(&mut self) {}
    /// The program's cumulative counters at the end of an op or an epoch.
    fn counters(&mut self, _read: impl FnOnce() -> TuningStats) {}
    /// The store a durable session is about to open: the pass's simulated
    /// disk, unless the watcher puts real files in `dir` instead.
    fn store(&mut self, disk: SharedMemStore, _dir: &Path) -> io::Result<Box<dyn DurableStore>> {
        Ok(Box::new(disk))
    }
}

pub struct Unwatched;

impl Probe for Unwatched {
    #[inline(always)]
    fn stage<T>(&mut self, _name: &'static str, f: impl FnOnce() -> T) -> T {
        f()
    }
}

/// The text a pass feeds the program.
pub struct Inputs {
    /// Offline: one statement list per instance. Otherwise one list: the
    /// session's workload or the stream.
    pub statements: Vec<Vec<String>>,
    /// Interactive only: the DBA script.
    pub script: Vec<String>,
}

impl Inputs {
    pub fn generate(workload: Workload, sizes: &Sizes, seed: u64, pass: u64) -> Inputs {
        let mut rng = SplitMix64::fork(seed, pass);
        let mut script = Vec::new();
        let statements = match workload {
            Workload::OfflineSdss | Workload::OfflineTpch => {
                let (tpch, queries) = match workload {
                    Workload::OfflineTpch => (true, sizes.tpch_queries),
                    _ => (false, sizes.sdss_queries),
                };
                (0..sizes.instances)
                    .map(|_| gen::offline_workload(tpch, queries, &mut rng))
                    .collect()
            }
            Workload::InteractiveWhatif => {
                let queries = gen::offline_workload(false, sizes.session_queries, &mut rng);
                script = gen::dba_script(sizes.script_steps, &mut rng);
                vec![queries]
            }
            Workload::OnlineMem | Workload::OnlineDurable => {
                let statements = match workload {
                    Workload::OnlineMem => sizes.mem_statements,
                    _ => sizes.durable_statements,
                };
                vec![gen::drifting_stream(statements, sizes.phase_len, &mut rng)]
            }
        };
        Inputs { statements, script }
    }

    /// The inputs as the text of a workload file.
    pub fn to_file_text(&self) -> String {
        let mut text = String::new();
        for (i, list) in self.statements.iter().enumerate() {
            if self.statements.len() > 1 {
                text.push_str(&format!("-- instance {i}\n"));
            }
            text.push_str(&gen::to_file_text(list));
        }
        if !self.script.is_empty() {
            text.push_str("-- script\n");
            for line in &self.script {
                text.push_str(&format!("-- {line}\n"));
            }
        }
        text
    }
}

/// What a pass measured; the child process prints it as one JSON line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassOutput {
    pub setup_s: f64,
    /// Time to open the scenario's session to an answerable state.
    pub open_ms: Vec<f64>,
    /// Latency of the scenario's unit: one recommend, one step, or the
    /// observe that closes an epoch.
    pub latency_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Seconds inside ops.
    pub busy_s: f64,
    /// Design cost over empty-design cost: per instance, per step, or of
    /// the whole stream.
    pub cost_ratios: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Snapshot + log + sidecar at the end of a durable pass that was
    /// watched on a real disk; 0 otherwise.
    pub state_bytes: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl PassOutput {
    /// Count a failed op (or output check), keeping the first few reasons.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }

    /// Count an op that took `elapsed`; returns that in milliseconds.
    fn op_done(&mut self, elapsed: Duration) -> f64 {
        self.attempted += 1;
        self.busy_s += elapsed.as_secs_f64();
        elapsed.as_secs_f64() * 1e3
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("setup_s", Json::Num(self.setup_s)),
            ("open_ms", Json::nums(&self.open_ms)),
            ("latency_ms", Json::nums(&self.latency_ms)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("busy_s", Json::Num(self.busy_s)),
            ("cost_ratios", Json::nums(&self.cost_ratios)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("state_bytes", Json::Num(self.state_bytes as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    pub fn from_json(json: &Json) -> Option<PassOutput> {
        let num = |key: &str| json.get(key).and_then(Json::as_f64);
        Some(PassOutput {
            setup_s: num("setup_s")?,
            open_ms: json.get("open_ms")?.as_f64s(),
            latency_ms: json.get("latency_ms")?.as_f64s(),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            busy_s: num("busy_s")?,
            cost_ratios: json.get("cost_ratios")?.as_f64s(),
            peak_rss_mb: num("peak_rss_mb")?,
            state_bytes: num("state_bytes")? as u64,
            failures: json
                .get("failures")?
                .as_arr()?
                .iter()
                .filter_map(|m| m.as_str().map(str::to_string))
                .collect(),
        })
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`), in MB; 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Parse a statement list the way the CLI parses a workload file.
pub fn parse_statements(
    designer: &Designer,
    statements: &[String],
) -> Result<QueryWorkload, String> {
    let mut w = QueryWorkload::new();
    for sql in statements {
        let q = parse_query(&designer.catalog.schema, sql).map_err(|e| format!("{sql}: {e}"))?;
        w.push(q, 1.0);
    }
    Ok(w)
}

/// Why an offline op counts as failed, if it does.
pub fn offline_failure(report: &OfflineReport, budget: u64) -> Option<String> {
    let rec = &report.indexes;
    // False for a cost that is not a number, too.
    let no_worse = report.combined_cost <= report.base_cost;
    if !no_worse {
        return Some(format!(
            "adopted design costs {} against {} untuned",
            report.combined_cost, report.base_cost
        ));
    }
    if rec.total_index_bytes > budget {
        return Some(format!(
            "indexes take {} bytes of a {budget} byte budget",
            rec.total_index_bytes
        ));
    }
    match rec.status {
        MilpStatus::Optimal => None,
        // Stopped short of the node limit means stopped by the wall
        // clock: the answer then depends on the machine.
        MilpStatus::Feasible if rec.nodes >= CophyConfig::default().solver.node_limit => None,
        MilpStatus::Feasible => Some(format!(
            "solver cut by the wall clock after {} nodes",
            rec.nodes
        )),
        other => Some(format!("solver status {other:?}")),
    }
}

/// Run one pass. `state_dir` is where a durable pass watched on a real
/// disk keeps its files; it is emptied first and removed after.
pub fn run_pass(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    pass: u64,
    state_dir: &Path,
    probe: &mut impl Probe,
) -> PassOutput {
    let mut out = PassOutput::default();
    let setup = Instant::now();
    let designer = Designer::new(probe.stage("catalog.build", || workload.catalog()));
    let inputs = Inputs::generate(workload, sizes, seed, pass);
    match workload {
        Workload::OfflineSdss | Workload::OfflineTpch => {
            out.setup_s = setup.elapsed().as_secs_f64();
            offline_pass(&designer, &inputs, probe, &mut out);
        }
        Workload::InteractiveWhatif => {
            // Parsing is not in the step, so it is set-up.
            let queries = parse_statements(&designer, &inputs.statements[0])
                .expect("generated statements parse");
            out.setup_s = setup.elapsed().as_secs_f64();
            interactive_pass(&designer, queries, &inputs.script, sizes, probe, &mut out);
        }
        Workload::OnlineMem => {
            out.setup_s = setup.elapsed().as_secs_f64();
            let config = colt_config(&designer);
            // In memory a restart is cold: the session answers once its
            // first epoch is published, so that is when it is open.
            let opened = Instant::now();
            let mut session = designer.online_session(config);
            let statements = &inputs.statements[0];
            stream(
                &designer,
                &mut session,
                statements,
                Some(opened),
                probe,
                &mut out,
            );
        }
        Workload::OnlineDurable => {
            // Creating the state (first checkpoint included) is set-up.
            let _ = std::fs::remove_dir_all(state_dir);
            let disk = SharedMemStore::new();
            let mut session =
                open_durable(&designer, &disk, state_dir, probe).expect("fresh state opens");
            out.setup_s = setup.elapsed().as_secs_f64();
            stream(
                &designer,
                &mut session,
                &inputs.statements[0],
                None,
                probe,
                &mut out,
            );
            kill_and_reopen(
                &designer,
                session,
                &disk,
                state_dir,
                seed ^ pass,
                probe,
                &mut out,
            );
            let _ = std::fs::remove_dir_all(state_dir);
        }
    }
    out.peak_rss_mb = peak_rss_mb();
    out
}

fn offline_pass(
    designer: &Designer,
    inputs: &Inputs,
    probe: &mut impl Probe,
    out: &mut PassOutput,
) {
    let budget = offline_budget(designer);
    let mut all = QueryWorkload::new();
    for statements in &inputs.statements {
        probe.begin_op();
        let start = Instant::now();
        let parsed = probe.stage("query.parse", || parse_statements(designer, statements));
        let result = parsed.map(|w| {
            let report = probe.stage("core.recommend", || designer.recommend(&w, budget));
            let text = probe.stage("core.render", || report.to_string());
            black_box(text);
            probe.counters(|| report.stats);
            (w, report)
        });
        let ms = out.op_done(start.elapsed());
        out.latency_ms.push(ms);
        match result {
            Ok((w, report)) => {
                match offline_failure(&report, budget) {
                    Some(why) => out.fail(why),
                    None => out
                        .cost_ratios
                        .push(report.combined_cost / report.base_cost),
                }
                for (q, weight) in w.iter() {
                    all.push(q.clone(), weight);
                }
            }
            Err(e) => out.fail(e),
        }
    }
    // The session `recommend` opens inside each op, timed alone and over
    // all the pass's queries at once: over one instance's dozen it is a
    // third of a millisecond of mostly thread start-up, which follows the
    // host's scheduler more than the program.
    let start = Instant::now();
    let session = designer.tuning_session(all);
    out.open_ms.push(ms_since(start));
    drop(session);
}

/// One line of the DBA script applied the way `pgdesign session` applies
/// its flags.
pub fn apply_script_line(
    designer: &Designer,
    session: &mut InteractiveSession<'_>,
    line: &str,
) -> Result<(), String> {
    let schema = &designer.catalog.schema;
    let (verb, spec) = line
        .split_once(' ')
        .ok_or_else(|| format!("bad script line {line:?}"))?;
    let table_of = |name: &str| {
        schema
            .table_by_name(name)
            .ok_or_else(|| format!("unknown table {name:?}"))
    };
    let columns_of = |table: &str, names: &str| -> Result<Vec<u16>, String> {
        let t = table_of(table)?;
        names
            .split(',')
            .map(|c| {
                t.column_by_name(c)
                    .ok_or_else(|| format!("unknown column {table}.{c}"))
            })
            .collect()
    };
    match verb {
        "+index" | "-index" => {
            let (table, cols) = spec.split_once(':').ok_or("index needs table:cols")?;
            if verb == "+index" {
                let names: Vec<&str> = cols.split(',').collect();
                session.add_index_by_name(table, &names)?;
            } else {
                session.remove_index(&Index::new(table_of(table)?.id, columns_of(table, cols)?));
            }
        }
        "+vertical" => {
            let (table, groups) = spec.split_once(':').ok_or("vertical needs table:groups")?;
            let groups: Result<Vec<Vec<u16>>, String> =
                groups.split('|').map(|g| columns_of(table, g)).collect();
            session.set_vertical(VerticalPartitioning::new(table_of(table)?.id, groups?));
        }
        "-vertical" => session.clear_vertical(table_of(spec)?.id),
        "+horizontal" => {
            let parts: Vec<&str> = spec.split(':').collect();
            let [table, col, n] = parts.as_slice() else {
                return Err(format!("horizontal needs table:col:N, got {spec:?}"));
            };
            let t = table_of(table)?;
            let c = columns_of(table, col)?[0];
            let n: usize = n
                .parse()
                .map_err(|_| format!("bad partition count {n:?}"))?;
            let stats = designer.catalog.table_stats(t.id).column(c);
            let bounds = (1..n)
                .map(|i| stats.min + (stats.max - stats.min) * i as f64 / n as f64)
                .collect();
            session.set_horizontal(HorizontalPartitioning::new(t.id, c, bounds));
        }
        "-horizontal" => session.clear_horizontal(table_of(spec)?.id),
        other => return Err(format!("unknown script verb {other:?}")),
    }
    Ok(())
}

fn interactive_pass(
    designer: &Designer,
    queries: QueryWorkload,
    script: &[String],
    sizes: &Sizes,
    probe: &mut impl Probe,
    out: &mut PassOutput,
) {
    let mut session = None;
    for _ in 0..sizes.opens {
        let w = queries.clone();
        drop(session.take());
        let start = Instant::now();
        session = Some(probe.stage("core.session_open", || designer.session(w)));
        out.open_ms.push(ms_since(start));
    }
    let mut session = session.expect("at least one open");
    let schema = &designer.catalog.schema;
    for line in script {
        probe.begin_op();
        let start = Instant::now();
        let applied = probe.stage("core.toggle", || {
            apply_script_line(designer, &mut session, line)
        });
        let eval = probe.stage("core.evaluate", || session.evaluate());
        let graph = probe.stage("interaction.graph", || session.interaction_graph());
        let text = probe.stage("core.render", || {
            (eval.to_string(), graph.to_text(schema, 10))
        });
        black_box(text);
        let ms = out.op_done(start.elapsed());
        out.latency_ms.push(ms);
        probe.counters(|| session.tuning_stats());
        if let Err(e) = applied {
            out.fail(e);
        } else if !(eval.whatif_cost.is_finite() && eval.base_cost.is_finite()) {
            out.fail(format!("step {line:?} evaluated to a non-finite cost"));
        } else {
            out.cost_ratios.push(eval.whatif_cost / eval.base_cost);
        }
    }
    // A concurrent reader of the published state must agree with the live
    // session bit for bit (readers cost index configurations only).
    for table in schema.tables() {
        session.clear_vertical(table.id);
        session.clear_horizontal(table.id);
    }
    session.publish();
    let live = session.evaluate();
    let selected = session.design();
    let ids: Vec<usize> = {
        let matrix = session.tuning_session().matrix();
        selected
            .indexes()
            .iter()
            .filter_map(|i| matrix.candidate_id(i))
            .collect()
    };
    let (base, whatif) = session.reader().evaluate(&ids);
    if (base.to_bits(), whatif.to_bits()) != (live.base_cost.to_bits(), live.whatif_cost.to_bits())
    {
        out.fail(format!(
            "reader evaluates ({base}, {whatif}), the session ({}, {})",
            live.base_cost, live.whatif_cost
        ));
    }
}

/// COLT as `pgdesign online` configures it: budget a quarter of the data.
pub fn colt_config(designer: &Designer) -> ColtConfig {
    ColtConfig {
        epoch_length: EPOCH_LENGTH,
        storage_budget_bytes: designer.catalog.data_bytes() / 4,
        ..Default::default()
    }
}

fn open_durable<'a>(
    designer: &'a Designer,
    disk: &SharedMemStore,
    dir: &Path,
    probe: &mut impl Probe,
) -> io::Result<OnlineSession<'a>> {
    let store = probe.store(disk.clone(), dir)?;
    OnlineSession::open_or_create_on(designer, colt_config(designer), store)
}

/// Feed the stream: one op is parse + observe of one statement. With
/// `opened`, the first epoch close ends the open that began then.
fn stream(
    designer: &Designer,
    session: &mut OnlineSession<'_>,
    statements: &[String],
    mut opened: Option<Instant>,
    probe: &mut impl Probe,
    out: &mut PassOutput,
) {
    for sql in statements {
        probe.begin_op();
        let start = Instant::now();
        let parsed = probe.stage("query.parse", || parse_query(&designer.catalog.schema, sql));
        let closed =
            parsed.map(|q| probe.stage("core.observe", || session.observe(q).map(|r| r.mode)));
        let ms = out.op_done(start.elapsed());
        match closed {
            Ok(Some(mode)) => {
                if let Some(opened) = opened.take() {
                    out.open_ms.push(ms_since(opened));
                }
                probe.counters(|| session.tuning_stats());
                out.latency_ms.push(ms);
                if mode != EpochMode::Full {
                    out.fail(format!("epoch closed in mode {mode:?}"));
                }
            }
            Ok(None) => {}
            Err(e) => out.fail(format!("{sql}: {e}")),
        }
    }
    let stats = session.tuning_stats();
    if stats.health != ServiceHealth::Healthy || stats.io_suspensions > 0 {
        out.fail(format!(
            "stream ended {} with {} log suspensions",
            stats.health, stats.io_suspensions
        ));
    }
    let (untuned, tuned) = session.cumulative_costs();
    out.cost_ratios.push(tuned / untuned);
}

/// Workload costs of seeded index configurations on the published state.
fn probe_costs(session: &OnlineSession<'_>, seed: u64) -> Vec<u64> {
    let reader = session.reader();
    let live: Vec<usize> = reader.candidates().map(|(id, _)| id).collect();
    let mut rng = SplitMix64::new(seed);
    (0..RESTORE_PROBES)
        .map(|_| {
            let config = reader.config_of(rng.subset(&live));
            reader.workload_cost(&config).to_bits()
        })
        .collect()
}

/// Kill the session (dropped with no shutdown call) and cut the power
/// (bytes never synced are gone, which a process kill alone would leave
/// in the operating system's cache), reopen the state, and check that it
/// answers exactly as the published state did before.
fn kill_and_reopen(
    designer: &Designer,
    session: OnlineSession<'_>,
    disk: &SharedMemStore,
    dir: &Path,
    probe_seed: u64,
    probe: &mut impl Probe,
    out: &mut PassOutput,
) {
    let before = probe_costs(&session, probe_seed);
    drop(session);
    disk.lock().power_cut(0);
    out.state_bytes = dir_bytes(dir);
    out.attempted += 1;
    let start = Instant::now();
    let reopened = open_durable(designer, disk, dir, probe);
    out.open_ms.push(ms_since(start));
    let session = match reopened {
        Ok(s) => s,
        Err(e) => return out.fail(format!("reopen failed: {e}")),
    };
    let recovery = session.tuning_stats().recovery.unwrap_or_default();
    if let Some(reason) = recovery.cold_start {
        out.fail(format!("reopen started cold: {reason}"));
    } else if recovery.log_records_dropped > 0 {
        out.fail(format!(
            "reopen dropped {} log records",
            recovery.log_records_dropped
        ));
    } else if probe_costs(&session, probe_seed) != before {
        out.fail("restored state costs a probe configuration differently".into());
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Where a pass keeps durable state below the output directory.
pub fn state_dir(out_dir: &Path, workload: Workload, pass: u64) -> PathBuf {
    out_dir
        .join("state")
        .join(format!("{}-{pass}", workload.name()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_pass(workload: Workload) -> PassOutput {
        let dir = state_dir(Path::new(env!("CARGO_MANIFEST_DIR")), workload, 0);
        run_pass(workload, &Sizes::QUICK, 2010, 0, &dir, &mut Unwatched)
    }

    #[test]
    fn every_workload_passes_its_output_checks_at_quick_size() {
        for workload in Workload::ALL {
            let out = quick_pass(workload);
            assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.failures);
            assert!(out.attempted > 0 && !out.latency_ms.is_empty());
            assert!(!out.open_ms.is_empty() && !out.cost_ratios.is_empty());
            assert!(out.cost_ratios.iter().all(|r| r.is_finite() && *r > 0.0));
        }
    }

    #[test]
    fn pass_output_round_trips_through_json() {
        let out = quick_pass(Workload::OfflineSdss);
        let text = out.to_json().to_string();
        assert_eq!(
            PassOutput::from_json(&Json::parse(&text).unwrap()),
            Some(out)
        );
    }

    #[test]
    fn same_seed_and_pass_give_the_same_inputs() {
        for workload in Workload::ALL {
            let text =
                |seed, pass| Inputs::generate(workload, &Sizes::QUICK, seed, pass).to_file_text();
            assert_eq!(text(2010, 0), text(2010, 0));
            assert_ne!(text(2010, 0), text(2010, 1));
            assert_ne!(text(2010, 0), text(7, 0));
        }
    }

    #[test]
    fn offline_failure_predicates() {
        let designer = Designer::new(sdss_catalog(SCALE));
        let inputs = Inputs::generate(Workload::OfflineSdss, &Sizes::QUICK, 1, 0);
        let w = parse_statements(&designer, &inputs.statements[0]).unwrap();
        let budget = designer.catalog.data_bytes() / 2;
        let good = designer.recommend(&w, budget);
        assert_eq!(offline_failure(&good, budget), None);

        let mut worse = good.clone();
        worse.combined_cost = worse.base_cost * 1.5;
        assert!(offline_failure(&worse, budget).is_some());
        let mut nan = good.clone();
        nan.combined_cost = f64::NAN;
        assert!(offline_failure(&nan, budget).is_some());
        assert!(offline_failure(&good, 1).is_some(), "over budget");
        let mut cut = good.clone();
        cut.indexes.status = MilpStatus::Feasible;
        assert!(offline_failure(&cut, budget).is_some(), "wall-clock cut");
        cut.indexes.nodes = CophyConfig::default().solver.node_limit;
        assert_eq!(offline_failure(&cut, budget), None, "node-limit cut");
        let mut none = good;
        none.indexes.status = MilpStatus::NoSolution;
        assert!(offline_failure(&none, budget).is_some());
    }

    #[test]
    fn a_failed_op_is_counted() {
        let designer = Designer::new(sdss_catalog(SCALE));
        let inputs = Inputs {
            statements: vec![vec!["SELECT nothing FROM nowhere".into()]],
            script: Vec::new(),
        };
        let mut out = PassOutput::default();
        offline_pass(&designer, &inputs, &mut Unwatched, &mut out);
        assert_eq!((out.attempted, out.failed), (1, 1));
        assert_eq!(out.failures.len(), 1);
    }

    #[test]
    fn script_lines_edit_the_session_like_the_cli_flags() {
        let designer = Designer::new(sdss_catalog(SCALE));
        let inputs = Inputs::generate(Workload::InteractiveWhatif, &Sizes::QUICK, 1, 0);
        let w = parse_statements(&designer, &inputs.statements[0]).unwrap();
        let mut s = designer.session(w);
        let mut apply = |line: &str| apply_script_line(&designer, &mut s, line);
        apply("+index photoobj:type,r").unwrap();
        apply("+vertical photoobj:objid,ra|dec,type,u,g,r,i,z,run,camcol,field,flags,status,rowc,colc").unwrap();
        apply("+horizontal photoobj:ra:4").unwrap();
        assert!(apply("+index photoobj:nope").is_err());
        assert!(apply("frobnicate photoobj").is_err());
        let photo = designer
            .catalog
            .schema
            .table_by_name("photoobj")
            .unwrap()
            .id;
        let design = s.design();
        assert_eq!(design.index_count(), 1);
        assert_eq!(design.vertical(photo).unwrap().groups.len(), 2);
        assert_eq!(design.horizontal(photo).unwrap().partitions(), 4);
        let mut apply = |line: &str| apply_script_line(&designer, &mut s, line);
        apply("-index photoobj:type,r").unwrap();
        apply("-vertical photoobj").unwrap();
        apply("-horizontal photoobj").unwrap();
        let design = s.design();
        assert_eq!(design.index_count(), 0);
        assert!(design.vertical(photo).is_none() && design.horizontal(photo).is_none());
    }
}
