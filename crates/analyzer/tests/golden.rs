//! Golden-file tests for the analyzer.
//!
//! Each fixture under `tests/fixtures/` is analyzed under a synthetic
//! repo path that puts it in the right rule scope; the rendered
//! `path:line: rule: message` output must match the committed
//! `.expected` file byte-for-byte. Regenerate after an intentional rule
//! change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p pgdesign-analyzer --test golden
//! ```
//!
//! and review the diff — a golden update is a rule-behavior change.

use pgdesign_analyzer::{analyze_source, analyze_workspace, Config};
use std::fs;
use std::path::{Path, PathBuf};

/// Fixture file → the repo path it pretends to live at (scoping is by
/// path prefix, so this picks which rules apply at full strength).
const FIXTURES: &[(&str, &str)] = &[
    ("cost_purity.rs", "crates/cophy/src/fixture.rs"),
    ("panic_freedom.rs", "crates/durability/src/fixture.rs"),
    ("fp_determinism.rs", "crates/colt/src/fixture.rs"),
    ("lock_discipline.rs", "crates/interaction/src/fixture.rs"),
    ("allow_no_reason.rs", "crates/durability/src/fixture.rs"),
    ("clean.rs", "crates/query/src/fixture.rs"),
];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn render(fixture: &str, as_path: &str) -> String {
    let src = fs::read_to_string(fixture_dir().join(fixture)).expect("read fixture");
    let diags = analyze_source(as_path, &src, &Config::workspace());
    let mut out = String::new();
    for d in &diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

#[test]
fn fixtures_match_golden_output() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    for &(fixture, as_path) in FIXTURES {
        let got = render(fixture, as_path);
        let expected_path = fixture_dir().join(fixture).with_extension("expected");
        if update {
            fs::write(&expected_path, &got).expect("write golden");
            continue;
        }
        let want = fs::read_to_string(&expected_path)
            .unwrap_or_else(|_| panic!("missing golden file {}", expected_path.display()));
        assert_eq!(
            got, want,
            "golden mismatch for {fixture} (run with UPDATE_GOLDEN=1 to regenerate)"
        );
    }
}

#[test]
fn every_seeded_fixture_is_caught() {
    for &(fixture, as_path) in FIXTURES {
        if fixture == "clean.rs" {
            continue;
        }
        let src = fs::read_to_string(fixture_dir().join(fixture)).expect("read fixture");
        let diags = analyze_source(as_path, &src, &Config::workspace());
        assert!(
            !diags.is_empty(),
            "{fixture} should trip the analyzer but came back clean"
        );
        // Every fixture's namesake rule shows up (allow_no_reason seeds
        // allow-syntax plus the unwaived panic-freedom hit).
        let rule: String = match fixture {
            "allow_no_reason.rs" => "allow-syntax".to_string(),
            other => other[..other.len() - 3].replace('_', "-"),
        };
        assert!(
            diags.iter().any(|d| d.rule == rule),
            "{fixture}: expected a `{rule}` diagnostic, got {diags:?}"
        );
    }
}

#[test]
fn bare_allow_does_not_waive_the_violation() {
    let src = fs::read_to_string(fixture_dir().join("allow_no_reason.rs")).expect("read fixture");
    let diags = analyze_source(
        "crates/durability/src/fixture.rs",
        &src,
        &Config::workspace(),
    );
    // The bare allow is reported…
    assert!(diags
        .iter()
        .any(|d| d.rule == "allow-syntax" && d.msg.contains("without a reason")));
    // …and the indexing it sat above is still reported too.
    assert!(diags
        .iter()
        .any(|d| d.rule == "panic-freedom" && d.line == 7));
}

#[test]
fn clean_fixture_stays_clean() {
    assert_eq!(render("clean.rs", "crates/query/src/fixture.rs"), "");
}

/// The self-test: the workspace this analyzer ships in must satisfy its
/// own rules. `CARGO_MANIFEST_DIR` is `crates/analyzer`, two levels below
/// the checkout root.
#[test]
fn workspace_is_clean_under_own_rules() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let diags = analyze_workspace(&root, &Config::workspace())
        .expect("walk workspace")
        .diags;
    assert!(
        diags.is_empty(),
        "workspace violates its own architecture rules:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
