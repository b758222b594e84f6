//! `pgdesign-analyzer` — an interprocedural architectural lint pass over
//! the workspace's own sources.
//!
//! The repo's load-bearing invariants (advisors cost via matrix lookups
//! only; recovery never panics on corrupt bytes; f64 summation order is
//! deterministic; no costing under a publish write guard; locks acquired
//! in one global order; no dropped `Result`s on durability paths) were
//! previously enforced only
//! per file, which sees the sites a file happens to contain. This crate
//! makes them *transitive*: a hand-rolled Rust lexer (same idiom as the
//! SQL lexer in `pgdesign-query`, no external parser) tokenizes every
//! source file into a fact base ([`facts`]), each file is condensed into
//! a position-free fact module ([`summary`]), a workspace call graph is
//! resolved over those modules ([`graph`]), and Datalog-style derived
//! relations ([`infer`]) — `reaches_cost`, `may_panic`,
//! `holds_lock_then_acquires`, `drops_result` — are computed to fixpoint
//! by semi-naive iteration. Diagnostics for the transitive rules print
//! the full call chain.
//!
//! ## Rule scoping
//!
//! | rule             | applies to                                   | relaxed in                       |
//! |------------------|----------------------------------------------|----------------------------------|
//! | cost-purity      | everything                                   | matrix build, colt probe, durable restore (the sanctioned boundary) |
//! | panic-freedom    | decode/replay surface (`crates/durability`, `inum/persist.rs`, `query/parser.rs`) | `#[cfg(test)]`/`#[test]` spans, `examples/`, `tests/` harnesses |
//! | fp-determinism   | everything                                   | test spans                       |
//! | lock-discipline  | everything                                   | —                                |
//! | lock-order       | everything                                   | test spans                       |
//! | error-discipline | durability/health paths                      | test spans                       |
//!
//! The walk covers `crates/*/src/**.rs` plus the repo-root `src/`,
//! `examples/`, and `tests/` trees; harness files (root `examples/` and
//! `tests/`) get panic-freedom's test-aware relaxation because they *are*
//! drivers, not recovery code.
//!
//! `unsafe` needs no rule here: every crate root carries
//! `#![forbid(unsafe_code)]`, and CI greps for it.
//!
//! Run it with `make lint-arch`; it exits non-zero if any error-severity
//! diagnostic survives the `// analyzer:allow(<rule>): <reason>` escape
//! hatch.

#![forbid(unsafe_code)]

pub mod facts;
pub mod graph;
pub mod infer;
pub mod lexer;
pub mod rules;
pub mod summary;

pub use rules::{analyze_source, ChainLink, Config, Diagnostic, InferStats, Severity, RULE_NAMES};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;
use summary::FileSummary;

/// Timing and size accounting for one workspace run.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunStats {
    /// Files walked (and summarized).
    pub files: usize,
    /// Call-graph size and fixpoint rounds.
    pub infer: InferStats,
    /// Wall-clock: extraction and inference.
    pub extract_ms: u128,
    pub infer_ms: u128,
}

/// Diagnostics plus run accounting.
pub struct RunReport {
    pub diags: Vec<Diagnostic>,
    pub stats: RunStats,
}

/// Every `.rs` file the analyzer covers, workspace-relative, sorted.
fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    // Repo-root trees: the binary crate's own src plus the integration
    // harnesses (panic-freedom treats the latter as test code).
    for top in ["src", "examples", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Analyze the workspace at `root`: summarize every covered file, then
/// run the rules over the summaries.
pub fn analyze_workspace(root: &Path, cfg: &Config) -> io::Result<RunReport> {
    let files = workspace_files(root)?;
    let mut summaries: Vec<FileSummary> = Vec::with_capacity(files.len());
    let t0 = Instant::now();
    for file in &files {
        let text = fs::read_to_string(file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        summaries.push(summary::summarize(&rel, &text));
    }
    summaries.sort_by(|a, b| a.path.cmp(&b.path));
    let extract_ms = t0.elapsed().as_millis();

    let t1 = Instant::now();
    let (diags, infer) = rules::analyze_summaries(&summaries, cfg);
    let infer_ms = t1.elapsed().as_millis();

    Ok(RunReport {
        diags,
        stats: RunStats {
            files: files.len(),
            infer,
            extract_ms,
            infer_ms,
        },
    })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
