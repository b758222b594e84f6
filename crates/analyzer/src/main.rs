//! CLI entry point:
//! `pgdesign-analyzer [workspace-root] [--format human|json]`.
//!
//! Analyzes every covered `.rs` file (see the crate rustdoc for the
//! walk and scoping table) and prints one `path:line: rule: message`
//! diagnostic per violation; interprocedural findings include the full
//! call chain. `--format json` emits a machine-readable array of
//! `{rule, path, line, severity, chain, msg}` for CI diffing. Exits 0
//! when no error-severity diagnostic remains (warnings such as
//! `dead-allow` print but do not gate), 1 on any error, 2 on I/O or
//! usage failure.

#![forbid(unsafe_code)]

use pgdesign_analyzer::{analyze_workspace, Config, Diagnostic, Severity, RULE_NAMES};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workspace root and whether to print JSON.
fn parse_args() -> Result<(PathBuf, bool), String> {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => match it.next().as_deref() {
                Some("json") => json = true,
                Some("human") => json = false,
                other => return Err(format!("--format wants human|json, got {other:?}")),
            },
            _ if a.starts_with('-') => return Err(format!("unknown flag {a}")),
            _ => root = PathBuf::from(a),
        }
    }
    Ok((root, json))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn emit_json(diags: &[Diagnostic]) {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let sev = match d.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        out.push_str(&format!(
            "\n  {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"severity\": \"{}\", \"chain\": [",
            json_escape(d.rule),
            json_escape(&d.path),
            d.line,
            sev
        ));
        for (j, l) in d.chain.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"fn\": \"{}\", \"path\": \"{}\", \"line\": {}}}",
                json_escape(&l.func),
                json_escape(&l.path),
                l.line
            ));
        }
        out.push_str(&format!("], \"msg\": \"{}\"}}", json_escape(&d.msg)));
    }
    out.push_str("\n]");
    println!("{out}");
}

fn main() -> ExitCode {
    let (root, json) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pgdesign-analyzer: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config::workspace();
    let report = match analyze_workspace(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "pgdesign-analyzer: cannot read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    let errors = report
        .diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = report.diags.len() - errors;

    if json {
        emit_json(&report.diags);
        return if errors == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    for d in &report.diags {
        match d.severity {
            Severity::Error => println!("{d}"),
            Severity::Warning => println!("warning: {d}"),
        }
    }
    let s = report.stats;
    eprintln!(
        "pgdesign-analyzer: {} files in {} ms, graph {} fns / {} edges, \
         {} fixpoint rounds in {} ms",
        s.files, s.extract_ms, s.infer.fns, s.infer.edges, s.infer.rounds, s.infer_ms
    );
    if errors == 0 {
        if warnings > 0 {
            eprintln!("pgdesign-analyzer: clean with {warnings} warning(s)");
        } else {
            eprintln!(
                "pgdesign-analyzer: workspace clean ({} files, {} rules)",
                s.files,
                RULE_NAMES.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("pgdesign-analyzer: {errors} violation(s)");
        ExitCode::FAILURE
    }
}
