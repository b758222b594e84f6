//! Integration tests for the interprocedural engine: multi-file golden
//! fixtures (cross-file chains, lock order, error discipline, dead
//! allows) and JSON emission.
//!
//! Regenerate goldens after an intentional rule change with
//! `UPDATE_GOLDEN=1 cargo test -p pgdesign-analyzer --test interproc`.

use pgdesign_analyzer::rules::analyze_summaries;
use pgdesign_analyzer::summary::FileSummary;
use pgdesign_analyzer::{Config, Severity};
use std::fs;
use std::path::{Path, PathBuf};

/// Each golden set: (name, [(fixture file, synthetic repo path)]) —
/// rendered together as one mini-workspace.
const SETS: &[(&str, &[(&str, &str)])] = &[
    (
        "chains",
        &[
            ("chains_advisor.rs", "crates/cophy/src/advisor.rs"),
            ("chains_probe.rs", "crates/core/src/probe.rs"),
        ],
    ),
    (
        "lock_order",
        &[("lock_order.rs", "crates/interaction/src/fixture2.rs")],
    ),
    (
        "error_discipline",
        &[("error_discipline.rs", "crates/durability/src/fixture2.rs")],
    ),
    (
        "dead_allow",
        &[("dead_allow.rs", "crates/cophy/src/fixture2.rs")],
    ),
];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn summaries_of(files: &[(&str, &str)]) -> Vec<FileSummary> {
    let mut sums: Vec<FileSummary> = files
        .iter()
        .map(|&(fixture, as_path)| {
            let src = fs::read_to_string(fixture_dir().join(fixture)).expect("read fixture");
            pgdesign_analyzer::summary::summarize(as_path, &src)
        })
        .collect();
    sums.sort_by(|a, b| a.path.cmp(&b.path));
    sums
}

fn render_set(files: &[(&str, &str)]) -> String {
    let (diags, _) = analyze_summaries(&summaries_of(files), &Config::workspace());
    let mut out = String::new();
    for d in &diags {
        if d.severity == Severity::Warning {
            out.push_str("warning: ");
        }
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

#[test]
fn interproc_fixtures_match_golden_output() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    for &(name, files) in SETS {
        let got = render_set(files);
        let expected_path = fixture_dir().join(format!("{name}.expected"));
        if update {
            fs::write(&expected_path, &got).expect("write golden");
            continue;
        }
        let want = fs::read_to_string(&expected_path)
            .unwrap_or_else(|_| panic!("missing golden file {}", expected_path.display()));
        assert_eq!(
            got, want,
            "golden mismatch for set `{name}` (run with UPDATE_GOLDEN=1 to regenerate)"
        );
    }
}

/// The tentpole acceptance case: a read-path fn that reaches `Inum::cost`
/// only through an intermediate helper is flagged with the full chain.
#[test]
fn cross_file_chain_carries_every_hop() {
    let (diags, _) = analyze_summaries(&summaries_of(SETS[0].1), &Config::workspace());
    let pick = diags
        .iter()
        .find(|d| d.rule == "cost-purity" && d.msg.contains("`pick`"))
        .expect("pick flagged transitively");
    // pick → refine (same file) → Probe::raw_cost (other file) → site.
    assert!(pick.chain.len() >= 4, "chain: {:?}", pick.chain);
    assert_eq!(pick.chain.first().unwrap().func, "pick");
    let last = pick.chain.last().unwrap();
    assert_eq!(last.func, "<site>");
    assert!(last.path.ends_with("probe.rs"));
    assert!(pick.msg.contains("call chain"));
    // The direct site itself is still reported, chainless.
    assert!(diags
        .iter()
        .any(|d| d.rule == "cost-purity" && d.path.ends_with("probe.rs") && d.chain.is_empty()));
}

/// Build a two-crate throwaway workspace for the CLI test.
fn scratch_workspace() -> PathBuf {
    let root = std::env::temp_dir().join(format!("analyzer-interproc-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for (krate, src) in [
        (
            "alpha",
            "pub fn pick(h: &Probe) -> f64 {\n    h.raw_cost()\n}\n",
        ),
        (
            "beta",
            "pub struct Probe;\nimpl Probe {\n    pub fn raw_cost(&self) -> f64 {\n        self.inum().cost(&q)\n    }\n}\n",
        ),
    ] {
        let dir = root.join("crates").join(krate).join("src");
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join("lib.rs"), src).expect("write src");
    }
    root
}

/// `--format json` emits the `{rule, path, line, chain}` records CI diffs.
#[test]
fn json_output_carries_rule_path_line_chain() {
    let root = scratch_workspace();
    let exe = env!("CARGO_BIN_EXE_pgdesign-analyzer");
    let out = std::process::Command::new(exe)
        .arg(&root)
        .args(["--format", "json"])
        .output()
        .expect("run analyzer binary");
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(!out.status.success(), "seeded workspace must gate");
    assert!(text.trim_start().starts_with('['), "json array: {text}");
    assert!(text.trim_end().ends_with(']'));
    assert!(text.contains("\"rule\": \"cost-purity\""));
    assert!(text.contains("\"path\": \"crates/alpha/src/lib.rs\""));
    assert!(text.contains("\"line\": "));
    assert!(
        text.contains("\"chain\": [{"),
        "transitive finding has hops: {text}"
    );
    assert!(text.contains("\"fn\": \"pick\""));
    let _ = fs::remove_dir_all(&root);
}
