//! Smoke tests driving the compiled `pgdesign` binary end to end, so the
//! CLI surface is covered by `cargo test`.

use std::process::Command;

fn pgdesign(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pgdesign"))
        .args(args)
        .output()
        .expect("spawn pgdesign")
}

#[test]
fn help_lists_the_three_scenario_subcommands() {
    let out = pgdesign(&["--help"]);
    assert!(out.status.success(), "--help should exit 0");
    let text = String::from_utf8(out.stdout).unwrap();
    for subcommand in ["evaluate", "recommend", "online"] {
        assert!(
            text.contains(subcommand),
            "--help must list the scenario subcommand {subcommand:?}:\n{text}"
        );
    }
    // Each scenario is labelled with its number from the paper.
    for scenario in ["Scenario 1", "Scenario 2", "Scenario 3"] {
        assert!(
            text.contains(scenario),
            "--help must mention {scenario}:\n{text}"
        );
    }
}

#[test]
fn help_spellings_are_equivalent() {
    let long = pgdesign(&["--help"]);
    let short = pgdesign(&["-h"]);
    let word = pgdesign(&["help"]);
    assert!(short.status.success() && word.status.success());
    assert_eq!(long.stdout, short.stdout);
    assert_eq!(long.stdout, word.stdout);
}

#[test]
fn subcommand_followed_by_help_prints_help() {
    let out = pgdesign(&["recommend", "--help"]);
    assert!(out.status.success(), "recommend --help should exit 0");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("Scenario 2"),
        "should print the help text:\n{text}"
    );
}

#[test]
fn unknown_subcommand_fails_fast() {
    let out = pgdesign(&["recomend", "--scale", "0.1"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown subcommand"), "{err}");
}

#[test]
fn missing_subcommand_fails_with_usage() {
    let out = pgdesign(&[]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("usage:"), "stderr should carry usage:\n{err}");
}

#[test]
fn recommend_stats_prints_inum_and_matrix_counters() {
    let out = pgdesign(&[
        "recommend",
        "--scale",
        "0.003",
        "--workload",
        "builtin:5",
        "--budget-frac",
        "0.3",
        "--stats",
    ]);
    assert!(out.status.success(), "recommend --stats should exit 0");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("Physical design recommendation"),
        "the report itself must still print:\n{text}"
    );
    for needle in [
        "INUM / cost-matrix statistics",
        "skeleton cache:",
        "cost matrices:",
        "matrix lookups:",
        "optimizer calls avoided",
    ] {
        assert!(
            text.contains(needle),
            "--stats must print {needle:?}:\n{text}"
        );
    }
}

#[test]
fn recommend_joint_prints_the_joint_report() {
    let out = pgdesign(&[
        "recommend",
        "--scale",
        "0.003",
        "--workload",
        "builtin:5",
        "--budget-frac",
        "0.3",
        "--joint",
        "--stats",
    ]);
    assert!(out.status.success(), "recommend --joint should exit 0");
    let text = String::from_utf8(out.stdout).unwrap();
    for needle in [
        "Joint index + partition recommendation",
        "Suggested partitions",
        "Benefit per query",
        "partition-aware",
        "partition cells",
    ] {
        assert!(
            text.contains(needle),
            "--joint must print {needle:?}:\n{text}"
        );
    }
}

#[test]
fn joint_flag_is_rejected_outside_recommend() {
    let out = pgdesign(&["explain", "--sql", "SELECT ra FROM photoobj", "--joint"]);
    assert!(!out.status.success(), "--joint is recommend-only");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("--joint is only supported by `recommend`"),
        "{err}"
    );
}

#[test]
fn stats_flag_is_rejected_outside_recommend() {
    let out = pgdesign(&["explain", "--sql", "SELECT ra FROM photoobj", "--stats"]);
    assert!(
        !out.status.success(),
        "--stats is recommend/session/online-only"
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("--stats is only supported by `recommend`, `session` and `online`"),
        "{err}"
    );
}

#[test]
fn recommend_without_stats_omits_counters() {
    let out = pgdesign(&[
        "recommend",
        "--scale",
        "0.003",
        "--workload",
        "builtin:5",
        "--budget-frac",
        "0.3",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        !text.contains("INUM / cost-matrix statistics"),
        "counters are opt-in:\n{text}"
    );
}

/// Stdout of one run under a given matrix-build thread count (`None` =
/// the machine's default), minus the one line that reports a wall-clock
/// measurement.
fn stdout_with_threads(args: &[&str], threads: Option<&str>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pgdesign"));
    cmd.args(args);
    match threads {
        Some(n) => cmd.env("PGDESIGN_THREADS", n),
        None => cmd.env_remove("PGDESIGN_THREADS"),
    };
    let out = cmd.output().expect("spawn pgdesign");
    assert!(out.status.success(), "{args:?} should exit 0");
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .filter(|l| !l.contains("matrix build time"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Two runs, and runs with 1 and 4 build threads, render the same bytes.
fn assert_same_bytes_at_any_thread_count(args: &[&str]) -> String {
    let first = stdout_with_threads(args, None);
    assert_eq!(first, stdout_with_threads(args, None), "two runs differ");
    for n in ["1", "4"] {
        assert_eq!(
            first,
            stdout_with_threads(args, Some(n)),
            "PGDESIGN_THREADS={n} differs"
        );
    }
    first
}

#[test]
fn recommend_is_a_function_of_its_inputs_alone() {
    // Scenario 2 on 40 SDSS queries: the solver is budgeted in nodes, not
    // seconds, so the output — node and pivot counts included — depends
    // on nothing but the arguments.
    let text = assert_same_bytes_at_any_thread_count(&[
        "recommend",
        "--catalog",
        "sdss",
        "--scale",
        "0.01",
        "--workload",
        "builtin:40",
        "--budget-frac",
        "0.5",
    ]);
    let status = text
        .lines()
        .find(|l| l.contains("solver gap"))
        .unwrap_or_else(|| panic!("no solver line:\n{text}"));
    assert!(status.contains("status: Optimal"), "{status}");
    assert!(
        status.contains("nodes: ") && status.contains("pivots: "),
        "the solver line must carry the search effort: {status}"
    );
}

#[test]
fn tpch_recommend_and_its_skeleton_counters_ignore_the_thread_count() {
    // The warm-up plans distinct queries on all cores; verbatim repeats
    // (the three-way join among them) must count as the same hits at any
    // thread count.
    let statements = [
        "SELECT o.o_orderkey, o.o_orderdate FROM customer c, orders o, lineitem l \
         WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey \
         AND c.c_mktsegment = 3 AND o.o_orderdate < 9500 ORDER BY o_orderdate LIMIT 10",
        "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = 4242 AND o_orderstatus = 1",
        "SELECT s.s_suppkey, count(*) FROM supplier s, lineitem l \
         WHERE s.s_suppkey = l.l_suppkey AND l.l_shipdate > 10000 GROUP BY s_suppkey",
        "SELECT p_partkey, p_retailprice FROM part WHERE p_brand = 7 AND p_size BETWEEN 3 AND 11",
    ];
    let lines: Vec<&str> = [0, 1, 2, 0, 3, 1, 0].map(|i| statements[i]).to_vec();
    let file = std::env::temp_dir().join(format!(
        "pgdesign-cli-smoke-tpch-repeats-{}.sql",
        std::process::id()
    ));
    std::fs::write(&file, lines.join("\n") + "\n").expect("write the workload file");
    let text = assert_same_bytes_at_any_thread_count(&[
        "recommend",
        "--catalog",
        "tpch",
        "--scale",
        "0.01",
        "--workload",
        file.to_str().expect("temp path is UTF-8"),
        "--stats",
    ]);
    let _ = std::fs::remove_file(&file);
    let line = text
        .lines()
        .find(|l| l.contains("skeleton cache:"))
        .unwrap_or_else(|| panic!("no skeleton-cache line:\n{text}"));
    // Warm-up: 4 misses, 3 repeats; the matrix build: 7 hits.
    assert!(
        line.contains("(10 hits / 4 misses, "),
        "four distinct statements are planned once each: {line}"
    );
}

#[test]
fn session_is_a_function_of_its_inputs_alone() {
    let text = assert_same_bytes_at_any_thread_count(&[
        "session",
        "--scale",
        "0.003",
        "--workload",
        "builtin:4",
        "--index",
        "photoobj:objid",
        "--vertical",
        "photoobj:objid,ra,dec|type,r",
        "--horizontal",
        "photoobj:ra:8",
    ]);
    assert!(text.contains("step 3: +horizontal photoobj.ra"), "{text}");
}

#[test]
fn online_is_a_function_of_its_inputs_alone() {
    // The trajectory, the alerts and every counter — cells computed and
    // reused included — are the same at any build-thread count.
    let text = assert_same_bytes_at_any_thread_count(&[
        "online",
        "--scale",
        "0.003",
        "--queries",
        "60",
        "--epoch",
        "10",
    ]);
    assert!(
        text.contains("cumulative:") && text.contains("cells reused"),
        "{text}"
    );
}

#[test]
fn session_steps_through_whatif_structures() {
    let out = pgdesign(&[
        "session",
        "--scale",
        "0.003",
        "--workload",
        "builtin:4",
        "--index",
        "photoobj:objid",
        "--vertical",
        "photoobj:objid,ra,dec|type,r",
        "--horizontal",
        "photoobj:ra:8",
        "--stats",
    ]);
    assert!(out.status.success(), "session should exit 0");
    let text = String::from_utf8(out.stdout).unwrap();
    for needle in [
        "warm-up:",
        "step 1: +index photoobj(objid)",
        "step 2: +vertical photoobj",
        "step 3: +horizontal photoobj.ra",
        "average workload benefit",
        "Rewritten-query report:",
        "INUM / cost-matrix statistics",
        // The explicit publish before --stats pins generation 1, and the
        // snapshot evaluation routes through the lock-free reader path.
        "published snapshot: generation 1 (",
    ] {
        assert!(
            text.contains(needle),
            "session must print {needle:?}:\n{text}"
        );
    }
    // The TuningSession pin, end to end: after warm-up every evaluation is
    // matrix lookups, so the skeleton cache records zero cost calls.
    assert!(
        text.contains("0 cost calls"),
        "interactive evaluation must not issue per-design cost calls:\n{text}"
    );
}

/// Sixteen single-column and six composite photoobj indexes.
fn twenty_two_index_flags() -> Vec<String> {
    "objid ra dec type u g r i z run camcol field flags status rowc colc \
     type,r r,type u,g g,r run,camcol ra,dec"
        .split(' ')
        .flat_map(|cols| ["--index".to_string(), format!("photoobj:{cols}")])
        .collect()
}

#[test]
fn more_than_twenty_indexes_still_get_a_graph() {
    // Scenario 1's two front doors used to die in the interaction
    // analysis past 20 selected indexes.
    for subcommand in ["evaluate", "session"] {
        let mut args = vec![subcommand.to_string()];
        args.extend(["--workload", "builtin:20"].map(String::from));
        args.extend(twenty_two_index_flags());
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = pgdesign(&args);
        assert!(out.status.success(), "{subcommand} with 22 indexes");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(
            text.contains("Index interactions:\n") && text.contains("  ~  photoobj("),
            "{subcommand} must print the interaction graph:\n{text}"
        );
    }
}

#[test]
fn recommend_schedules_more_than_twenty_chosen_indexes() {
    let workload = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/wide_workload.sql"
    );
    let out = pgdesign(&["recommend", "--workload", workload, "--budget-frac", "10"]);
    assert!(out.status.success(), "recommend on the wide workload");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.matches("CREATE INDEX").count() > 20,
        "the repro needs more than 20 chosen indexes:\n{text}"
    );
    for needle in [
        "-- Index interactions: ",
        "interaction-aware order: [",
        "naive order: ",
    ] {
        assert!(text.contains(needle), "must print {needle:?}:\n{text}");
    }
}

#[test]
fn session_rejects_malformed_structure_specs() {
    let out = pgdesign(&[
        "session",
        "--scale",
        "0.003",
        "--workload",
        "builtin:2",
        "--vertical",
        "photoobj",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--vertical must be"), "{err}");
}

#[test]
fn online_prints_trajectory_and_matrix_counters() {
    let out = pgdesign(&[
        "online",
        "--scale",
        "0.003",
        "--queries",
        "30",
        "--epoch",
        "10",
    ]);
    assert!(out.status.success(), "online should exit 0");
    let text = String::from_utf8(out.stdout).unwrap();
    for needle in [
        "epoch",
        "dropped",
        "cumulative:",
        "INUM / cost-matrix statistics",
        "cells reused",
        "matrix build time",
    ] {
        assert!(
            text.contains(needle),
            "online must print {needle:?}:\n{text}"
        );
    }
}

#[test]
fn online_reports_a_loss_as_a_loss() {
    // This stream ends with the tuned run dearer than the untuned one
    // (index builds that never pay back); the summary used to clamp that
    // to "0.0% saved".
    let out = pgdesign(&[
        "online",
        "--scale",
        "0.005",
        "--queries",
        "120",
        "--epoch",
        "10",
    ]);
    assert!(out.status.success(), "online should exit 0");
    let text = String::from_utf8(out.stdout).unwrap();
    let line = text
        .lines()
        .find(|l| l.starts_with("cumulative:"))
        .unwrap_or_else(|| panic!("no cumulative line:\n{text}"));
    // "cumulative: untuned U, tuned T (P% saved)"
    let number = |word: usize| -> f64 {
        let digits = |c: char| c.is_ascii_digit() || c == '.' || c == '-';
        line.split_whitespace()
            .nth(word)
            .and_then(|w| w.trim_matches(|c| !digits(c)).parse().ok())
            .unwrap_or_else(|| panic!("no number at word {word} of {line:?}"))
    };
    let (untuned, tuned, printed) = (number(2), number(4), number(5));
    assert!(
        (printed - 100.0 * (untuned - tuned) / untuned).abs() < 0.06,
        "{line:?} does not say what its own totals say"
    );
    assert!(tuned > untuned, "this stream is known to lose: {line:?}");
    assert!(printed < 0.0, "a loss must print negative: {line:?}");
}

#[test]
fn explain_prints_a_plan() {
    let out = pgdesign(&[
        "explain",
        "--scale",
        "0.005",
        "--sql",
        "SELECT ra FROM photoobj WHERE objid = 5",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("Scan"),
        "plan should contain a scan node:\n{text}"
    );
}
