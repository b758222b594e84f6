//! `pgdesign` — command-line front end to the designer.
//!
//! The demo drives the tool through a GUI; this binary is the terminal
//! equivalent. Subcommands map to the three scenarios:
//!
//! ```text
//! pgdesign recommend --catalog sdss --scale 0.01 --workload w.sql --budget-frac 0.5
//! pgdesign evaluate  --catalog sdss --workload w.sql --index photoobj:type,r --index specobj:bestobjid
//! pgdesign session   --catalog sdss --workload w.sql --index photoobj:objid --vertical "photoobj:objid,ra|type,r"
//! pgdesign online    --catalog sdss --queries 600 --epoch 25
//! pgdesign explain   --catalog sdss --sql "SELECT ra FROM photoobj WHERE objid = 5"
//! ```
//!
//! Workload files contain one SQL statement per non-empty, non-`--` line
//! (semicolons optional). Pass `--workload builtin:N` for an N-query
//! generated SDSS/TPC-H workload.

#![forbid(unsafe_code)]

use pgdesign::{Designer, InteractiveSession, OnlineSession};
use pgdesign_catalog::samples::{sdss_catalog, tpch_catalog};
use pgdesign_catalog::Catalog;
use pgdesign_colt::ColtConfig;
use pgdesign_query::generators::{sdss_workload, tpch_workload, DriftingStream};
use pgdesign_query::{parse_query, Workload};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  pgdesign recommend --catalog <sdss|tpch> [--scale S] --workload <FILE|builtin:N> [--budget-frac F] [--joint] [--stats]
  pgdesign evaluate  --catalog <sdss|tpch> [--scale S] --workload <FILE|builtin:N> [--index table:col1,col2]...
  pgdesign session   --catalog <sdss|tpch> [--scale S] --workload <FILE|builtin:N> [--index t:c1,c2]... [--vertical t:c1,c2|c3]... [--horizontal t:col:N]... [--state DIR] [--stats]
  pgdesign online    --catalog <sdss|tpch> [--scale S] [--queries N] [--epoch N] [--deadline-ms T] [--state DIR] [--kill-after N] [--expect-warm] [--stats]
  pgdesign explain   --catalog <sdss|tpch> [--scale S] --sql <QUERY>
  pgdesign --help";

const HELP: &str = "pgdesign — automated, interactive, portable DB designer

Subcommands (one per usage scenario of the SIGMOD 2010 demo):
  evaluate    Scenario 1 (interactive): what-if evaluation of DBA-chosen
              indexes, with benefit panel and index-interaction graph
  session     Scenario 1, step by step: a TuningSession applying each
              what-if structure in turn — every re-evaluation after the
              one-off warm-up is pure cost-matrix lookups
  recommend   Scenario 2 (offline): automatic index recommendation for a
              workload under a storage budget
  online      Scenario 3 (online): continuous COLT-style tuning over a
              drifting query stream
  explain     Show the what-if optimizer's plan for one SQL statement

Common flags:
  --catalog <sdss|tpch>   Built-in sample catalog (default sdss)
  --scale S               Catalog scale factor (default 0.01)
  --workload <FILE|builtin:N>
                          One SQL statement per line, or a generated
                          N-query built-in workload

Per-subcommand flags:
  recommend   --budget-frac F        Index budget as a fraction of data size
              --joint                Joint index + partition mode: one
                                     partition-aware cost matrix serves both
                                     searches under the single budget
              --stats                Print INUM/cost-matrix counters (matrix
                                     builds, lookups, optimizer calls avoided)
  evaluate    --index table:c1,c2    Hypothetical index (repeatable)
  session     --index table:c1,c2    Hypothetical index (repeatable)
              --vertical t:c1,c2|c3  Hypothetical vertical partitioning:
                                     column groups separated by '|'
              --horizontal t:col:N   Hypothetical N-way range partitioning
              --state DIR            Durable state directory: the cost matrix
                                     persists as a checksummed snapshot + edit
                                     log, and a reopened session resumes on it
                                     without a rebuild
              --stats                Print INUM/cost-matrix counters (plus
                                     recovery counters when --state is set)
  online      --queries N --epoch N  Stream length and COLT epoch length
              --deadline-ms T        Bound each epoch close to T ms of wall
                                     clock: over-budget epochs degrade down
                                     the ladder (incremental-only, then
                                     publish-nothing) instead of stalling;
                                     --stats reports health and staleness
              --state DIR            Durable state directory; a restarted
                                     stream resumes on the persisted matrix
              --kill-after N         Exit hard (code 137, no shutdown path)
                                     after observing N queries — the crash
                                     half of a recovery drill
              --expect-warm          Fail unless this run warm-restored the
                                     matrix (builds == 0, cells reused)
  explain     --sql QUERY            Statement to explain";

/// Minimal flag parser: `--key value` pairs after the subcommand;
/// repeatable keys collect into a list.
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, found {:?}", args[i]))?;
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            pairs.push((key.to_string(), value.clone()));
            i += 2;
        }
        Ok(Flags { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_all(&self, key: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }
}

fn load_catalog(flags: &Flags) -> Result<Catalog, String> {
    let scale: f64 = flags
        .get("scale")
        .map(|s| s.parse().map_err(|_| format!("bad --scale {s:?}")))
        .transpose()?
        .unwrap_or(0.01);
    match flags.get("catalog").unwrap_or("sdss") {
        "sdss" => Ok(sdss_catalog(scale)),
        "tpch" => Ok(tpch_catalog(scale)),
        other => Err(format!("unknown catalog {other:?} (sdss or tpch)")),
    }
}

/// Parse a workload file's text into queries (used by tests too).
fn parse_workload_text(catalog: &Catalog, text: &str) -> Result<Workload, String> {
    let mut w = Workload::new();
    for (lineno, line) in text.lines().enumerate() {
        let stmt = line.trim().trim_end_matches(';').trim();
        if stmt.is_empty() || stmt.starts_with("--") {
            continue;
        }
        let q =
            parse_query(&catalog.schema, stmt).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        w.push(q, 1.0);
    }
    if w.is_empty() {
        return Err("workload file contains no statements".into());
    }
    Ok(w)
}

fn load_workload(catalog: &Catalog, flags: &Flags) -> Result<Workload, String> {
    let spec = flags
        .get("workload")
        .ok_or_else(|| "missing --workload".to_string())?;
    if let Some(n) = spec.strip_prefix("builtin:") {
        let n: usize = n.parse().map_err(|_| format!("bad builtin size {n:?}"))?;
        let is_tpch = flags.get("catalog") == Some("tpch");
        return Ok(if is_tpch {
            tpch_workload(catalog, n, 42)
        } else {
            sdss_workload(catalog, n, 42)
        });
    }
    let text = std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec:?}: {e}"))?;
    parse_workload_text(catalog, &text)
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("missing subcommand".into());
    };
    // A bare `help` only counts in subcommand position, and `--help`/`-h`
    // only in flag-key positions — later args could be flag *values* that
    // legitimately spell "help" or "-h" (e.g. a workload file named -h).
    let help_after_subcommand = || {
        let mut i = 0;
        while i < rest.len() {
            match rest[i].as_str() {
                "--help" | "-h" => return true,
                "--stats" | "--joint" | "--expect-warm" => i += 1, // the valueless flags
                s if s.starts_with("--") => i += 2,                // skip the flag's value
                _ => return false, // malformed; let Flags::parse report it
            }
        }
        false
    };
    if matches!(cmd.as_str(), "--help" | "-h" | "help") || help_after_subcommand() {
        println!("{HELP}");
        println!();
        println!("{USAGE}");
        return Ok(());
    }
    // Validate the subcommand before the (multi-second) catalog build so
    // typos fail instantly.
    if !matches!(
        cmd.as_str(),
        "recommend" | "evaluate" | "session" | "online" | "explain"
    ) {
        return Err(format!("unknown subcommand {cmd:?}"));
    }
    // `--stats`, `--joint`, and `--expect-warm` are the valueless flags;
    // extract them before the `--key value` pair parser sees the argument
    // list. Each is honoured by specific subcommands — elsewhere they
    // would be silently ignored, so fail loudly.
    let show_stats = rest.iter().any(|a| a == "--stats");
    let joint = rest.iter().any(|a| a == "--joint");
    let expect_warm = rest.iter().any(|a| a == "--expect-warm");
    if show_stats && !matches!(cmd.as_str(), "recommend" | "session" | "online") {
        return Err(format!(
            "--stats is only supported by `recommend`, `session` and `online`, not `{cmd}`"
        ));
    }
    if joint && cmd != "recommend" {
        return Err(format!(
            "--joint is only supported by `recommend`, not `{cmd}`"
        ));
    }
    if expect_warm && cmd != "online" {
        return Err(format!(
            "--expect-warm is only supported by `online`, not `{cmd}`"
        ));
    }
    let rest: Vec<String> = rest
        .iter()
        .filter(|a| *a != "--stats" && *a != "--joint" && *a != "--expect-warm")
        .cloned()
        .collect();
    let flags = Flags::parse(&rest)?;
    if flags.get("state").is_some() && !matches!(cmd.as_str(), "session" | "online") {
        return Err(format!(
            "--state is only supported by `session` and `online`, not `{cmd}`"
        ));
    }
    if flags.get("kill-after").is_some() && cmd != "online" {
        return Err(format!(
            "--kill-after is only supported by `online`, not `{cmd}`"
        ));
    }
    let catalog = load_catalog(&flags)?;
    let designer = Designer::new(catalog);

    match cmd.as_str() {
        "recommend" => {
            let workload = load_workload(&designer.catalog, &flags)?;
            let frac: f64 = flags
                .get("budget-frac")
                .map(|s| s.parse().map_err(|_| format!("bad --budget-frac {s:?}")))
                .transpose()?
                .unwrap_or(0.5);
            let budget = (designer.catalog.data_bytes() as f64 * frac) as u64;
            if joint {
                let report = designer.recommend_joint(&workload, budget);
                println!("{report}");
                println!("Index definitions:");
                for idx in &report.joint.indexes {
                    println!(
                        "  CREATE INDEX ON {};",
                        idx.display(&designer.catalog.schema)
                    );
                }
                if show_stats {
                    println!();
                    print!("{}", report.stats);
                }
                return Ok(());
            }
            let report = designer.recommend(&workload, budget);
            println!("{report}");
            println!("Index definitions:");
            for idx in &report.indexes.indexes {
                println!(
                    "  CREATE INDEX ON {};",
                    idx.display(&designer.catalog.schema)
                );
            }
            if show_stats {
                println!();
                print!("{}", report.stats);
            }
            Ok(())
        }
        "evaluate" => {
            let workload = load_workload(&designer.catalog, &flags)?;
            let mut session = designer.session(workload);
            for spec in flags.get_all("index") {
                let (table, cols) = spec
                    .split_once(':')
                    .ok_or_else(|| format!("--index must be table:col1,col2; got {spec:?}"))?;
                let cols: Vec<&str> = cols.split(',').collect();
                session.add_index_by_name(table, &cols)?;
            }
            println!("{}", session.evaluate());
            let graph = session.interaction_graph();
            if graph.edge_count() > 0 {
                println!("Index interactions:");
                print!("{}", graph.to_text(&designer.catalog.schema, 10));
            }
            Ok(())
        }
        "session" => {
            let workload = load_workload(&designer.catalog, &flags)?;
            let n_queries = workload.len();
            let mut session = match flags.get("state") {
                Some(dir) => InteractiveSession::open_or_create(&designer, workload, dir)
                    .map_err(|e| format!("cannot open state dir {dir:?}: {e}"))?,
                None => designer.session(workload),
            };
            let baseline = session.evaluate();
            println!(
                "warm-up: {n_queries} queries cached, workload cost {:.1}",
                baseline.base_cost
            );
            let schema = &designer.catalog.schema;
            let mut step = 0usize;
            for (key, spec) in &flags.pairs {
                let label = match key.as_str() {
                    "index" => {
                        let (table, cols) = spec.split_once(':').ok_or_else(|| {
                            format!("--index must be table:col1,col2; got {spec:?}")
                        })?;
                        let cols: Vec<&str> = cols.split(',').collect();
                        session.add_index_by_name(table, &cols)?;
                        format!("+index {table}({})", cols.join(", "))
                    }
                    "vertical" => {
                        let (table, groups) = spec.split_once(':').ok_or_else(|| {
                            format!("--vertical must be table:c1,c2|c3,...; got {spec:?}")
                        })?;
                        let t = schema
                            .table_by_name(table)
                            .ok_or_else(|| format!("unknown table {table:?}"))?;
                        let mut col_groups: Vec<Vec<u16>> = Vec::new();
                        for group in groups.split('|') {
                            let mut ids = Vec::new();
                            for name in group.split(',') {
                                ids.push(
                                    t.column_by_name(name.trim())
                                        .ok_or_else(|| format!("unknown column {table}.{name}"))?,
                                );
                            }
                            col_groups.push(ids);
                        }
                        session.set_vertical(pgdesign_catalog::design::VerticalPartitioning::new(
                            t.id, col_groups,
                        ));
                        format!(
                            "+vertical {table} ({} fragments)",
                            groups.split('|').count()
                        )
                    }
                    "horizontal" => {
                        let parts: Vec<&str> = spec.split(':').collect();
                        let [table, col, n] = parts.as_slice() else {
                            return Err(format!("--horizontal must be table:col:N; got {spec:?}"));
                        };
                        let t = schema
                            .table_by_name(table)
                            .ok_or_else(|| format!("unknown table {table:?}"))?;
                        let c = t
                            .column_by_name(col)
                            .ok_or_else(|| format!("unknown column {table}.{col}"))?;
                        let n: usize = n
                            .parse()
                            .map_err(|_| format!("bad partition count {n:?}"))?;
                        if n < 2 {
                            return Err("horizontal partitioning needs ≥ 2 partitions".into());
                        }
                        let stats = designer.catalog.table_stats(t.id).column(c);
                        let bounds: Vec<f64> = (1..n)
                            .map(|i| stats.min + (stats.max - stats.min) * i as f64 / n as f64)
                            .collect();
                        session.set_horizontal(
                            pgdesign_catalog::design::HorizontalPartitioning::new(t.id, c, bounds),
                        );
                        format!("+horizontal {table}.{col} ({n} partitions)")
                    }
                    _ => continue,
                };
                step += 1;
                // Instant re-evaluation: each step is pure matrix lookups.
                let eval = session.evaluate();
                println!(
                    "step {step}: {label:<44} cost {:>12.1}  ({:>5.1}%)",
                    eval.whatif_cost,
                    100.0 * eval.average_benefit()
                );
            }
            println!();
            println!("{}", session.evaluate());
            let graph = session.interaction_graph();
            if graph.edge_count() > 0 {
                println!("Index interactions:");
                print!("{}", graph.to_text(schema, 10));
            }
            let frags = session.fragment_report();
            if !frags.is_empty() {
                println!("Rewritten-query report:");
                print!("{frags}");
            }
            if show_stats {
                // Publish the explored state and serve one evaluation from
                // a concurrent reader, so the stats cover the lock-free
                // snapshot path too.
                session.publish();
                let reader = session.reader();
                let _ = reader.evaluate(&[]);
                println!();
                print!("{}", session.tuning_stats());
            }
            Ok(())
        }
        "online" => {
            let queries: usize = flags
                .get("queries")
                .map(|s| s.parse().map_err(|_| format!("bad --queries {s:?}")))
                .transpose()?
                .unwrap_or(600);
            let epoch: usize = flags
                .get("epoch")
                .map(|s| s.parse().map_err(|_| format!("bad --epoch {s:?}")))
                .transpose()?
                .unwrap_or(25);
            let kill_after: Option<usize> = flags
                .get("kill-after")
                .map(|s| s.parse().map_err(|_| format!("bad --kill-after {s:?}")))
                .transpose()?;
            let deadline_ms: Option<u64> = flags
                .get("deadline-ms")
                .map(|s| s.parse().map_err(|_| format!("bad --deadline-ms {s:?}")))
                .transpose()?;
            if expect_warm && flags.get("state").is_none() {
                return Err("--expect-warm requires --state".into());
            }
            let mut stream = DriftingStream::sdss_default(designer.catalog.clone(), queries / 6, 7);
            let config = ColtConfig {
                epoch_length: epoch,
                storage_budget_bytes: designer.catalog.data_bytes() / 4,
                epoch_deadline: deadline_ms.map(std::time::Duration::from_millis),
                ..Default::default()
            };
            let mut session = match flags.get("state") {
                Some(dir) => OnlineSession::open_or_create(&designer, config, dir)
                    .map_err(|e| format!("cannot open state dir {dir:?}: {e}"))?,
                None => designer.online_session(config),
            };
            // The stream is seed-deterministic, so a restarted run re-draws
            // the same query mix: its first epoch dedupes against the
            // restored residents — that is the warm-restart contract
            // `--expect-warm` checks.
            let mut fed = 0usize;
            for q in stream.batch(queries) {
                let _ = session.observe(q);
                fed += 1;
                if kill_after == Some(fed) {
                    // A real hard kill: no destructors, no final sync —
                    // recovery must work from whatever the last epoch
                    // boundary fsync'd.
                    eprintln!("pgdesign: --kill-after {fed}: exiting hard (137)");
                    std::process::exit(137);
                }
            }
            if expect_warm {
                let stats = session.tuning_stats();
                let warm = stats.matrix.builds == 0 && stats.matrix.cells_reused > 0;
                if !warm {
                    return Err(format!(
                        "--expect-warm: run was not warm (builds {}, cells_reused {}, recovery: {})",
                        stats.matrix.builds,
                        stats.matrix.cells_reused,
                        stats
                            .recovery
                            .and_then(|r| r.cold_start)
                            .map_or("none".to_string(), |c| c.to_string()),
                    ));
                }
            }
            print!("{}", session.trajectory());
            let (untuned, tuned) = session.cumulative_costs();
            println!(
                "cumulative: untuned {untuned:.0}, tuned {tuned:.0} ({:.1}% saved)",
                // Signed: tuning that cost more than it saved must say so.
                100.0 * (untuned - tuned) / untuned.max(1e-9)
            );
            println!();
            print!("{}", session.tuning_stats());
            Ok(())
        }
        "explain" => {
            let sql = flags
                .get("sql")
                .ok_or_else(|| "missing --sql".to_string())?;
            let q = parse_query(&designer.catalog.schema, sql).map_err(|e| e.to_string())?;
            print!("{}", designer.explain(&designer.catalog.base_design, &q));
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_pairs_and_repeats() {
        let args: Vec<String> = ["--a", "1", "--b", "2", "--a", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = Flags::parse(&args).unwrap();
        assert_eq!(f.get("b"), Some("2"));
        assert_eq!(f.get_all("a"), vec!["1", "3"]);
        assert!(f.get("c").is_none());
    }

    #[test]
    fn flags_reject_danglers() {
        let args: Vec<String> = ["--a"].iter().map(|s| s.to_string()).collect();
        assert!(Flags::parse(&args).is_err());
        let args: Vec<String> = ["b", "1"].iter().map(|s| s.to_string()).collect();
        assert!(Flags::parse(&args).is_err());
    }

    #[test]
    fn workload_text_skips_comments_and_blanks() {
        let catalog = sdss_catalog(0.005);
        let text = "-- comment\n\nSELECT ra FROM photoobj WHERE objid = 1;\n   \nSELECT dec FROM photoobj WHERE type = 2\n";
        let w = parse_workload_text(&catalog, text).unwrap();
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn workload_text_reports_line_numbers() {
        let catalog = sdss_catalog(0.005);
        let text = "SELECT ra FROM photoobj;\nSELECT bogus FROM photoobj;";
        let err = parse_workload_text(&catalog, text).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn empty_workload_rejected() {
        let catalog = sdss_catalog(0.005);
        assert!(parse_workload_text(&catalog, "-- nothing\n").is_err());
    }

    #[test]
    fn run_explain_smoke() {
        let args: Vec<String> = [
            "explain",
            "--catalog",
            "sdss",
            "--scale",
            "0.005",
            "--sql",
            "SELECT ra FROM photoobj WHERE objid = 5",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
    }

    #[test]
    fn help_spelled_as_a_flag_value_is_not_help() {
        // "-h" here is the *value* of --catalog, not a help request: the
        // command must fail on the bad catalog instead of exiting 0.
        let args: Vec<String> = ["explain", "--catalog", "-h", "--sql", "SELECT 1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run(&args).unwrap_err();
        assert!(err.contains("unknown catalog"), "{err}");
    }

    #[test]
    fn run_unknown_subcommand_fails() {
        let args: Vec<String> = ["frobnicate", "--catalog", "sdss"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&args).is_err());
    }
}
