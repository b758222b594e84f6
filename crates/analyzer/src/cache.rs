//! Per-file fact modules.
//!
//! A [`FileSummary`] is the analyzer's EDB for one source file: every
//! base relation the interprocedural rules need (fns, calls, direct
//! cost/panic sites, lock acquisitions, dropped results, allows, and the
//! purely-local diagnostics), distilled from the token-level [`crate::facts`]
//! extraction. It is deliberately *position-free* — only lines and
//! fn-indices survive — so the graph and inference layers never see a
//! token. Summaries are re-extracted on every run: the whole workspace
//! takes under 100 ms, which is not worth a cache.

use crate::facts::{extract, CallShape};
use crate::rules;

/// Sentinel for "no enclosing fn" in `fn_idx` fields.
pub const NO_FN: u32 = u32::MAX;

/// One fn item, as the graph layer sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSum {
    pub name: String,
    /// Receiver type of the enclosing `impl`, empty for free fns.
    pub receiver: String,
    pub line: u32,
    pub end_line: u32,
    pub is_test: bool,
    pub returns_result: bool,
}

/// One call site, attributed to its enclosing fn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSum {
    pub fn_idx: u32,
    pub line: u32,
    pub name: String,
    /// 0 = free, 1 = method, 2 = qualified.
    pub shape: u8,
    /// The receiver/qualifier token text (may be empty).
    pub arg: String,
    /// Receiver *type*, when bindings or the enclosing impl resolve it.
    pub recv_ty: String,
    /// Ranked-lock identities held (live guards) at this call.
    pub held: Vec<String>,
    /// The call is a value-discarding expression statement (`f();`).
    pub stmt_dropped: bool,
}

/// A direct rule site (cost-purity or panic-freedom pattern match),
/// carrying the exact human message the per-file linter would print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteSum {
    pub fn_idx: u32,
    pub line: u32,
    pub msg: String,
}

/// A `.write()`/`.read()`/`.lock()` acquisition site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcquireSum {
    pub fn_idx: u32,
    pub line: u32,
    pub lock: String,
    pub held: Vec<String>,
}

/// A `let _ = …;` discarding at least one call result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DropSum {
    pub fn_idx: u32,
    pub line: u32,
    pub callees: Vec<String>,
}

/// An `analyzer:allow` directive with its resolved target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowSum {
    pub rule: String,
    pub line: u32,
    pub has_reason: bool,
    /// First significant source line at or below the comment (0 = none).
    pub target_line: u32,
    /// Innermost fn whose line span contains the target ([`NO_FN`] = none).
    pub fn_idx: u32,
}

/// The complete per-file fact module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSummary {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Repo-root `examples/`/`tests/` harness file: panic-freedom is
    /// relaxed wholesale (test-adjacent code), other rules still apply.
    pub harness: bool,
    pub fns: Vec<FnSum>,
    pub calls: Vec<CallSum>,
    pub cost_sites: Vec<SiteSum>,
    pub panic_sites: Vec<SiteSum>,
    pub acquires: Vec<AcquireSum>,
    pub drops: Vec<DropSum>,
    pub allows: Vec<AllowSum>,
    /// The purely file-local diagnostics (fp-determinism,
    /// lock-discipline) as `(line, rule, message)`, computed at extraction
    /// time while the tokens are at hand.
    pub local_diags: Vec<(u32, &'static str, String)>,
}

fn is_harness_path(path: &str) -> bool {
    path.starts_with("examples/") || path.starts_with("tests/")
}

/// Extract the full fact module for one file.
pub fn summarize(path: &str, src: &str) -> FileSummary {
    let facts = extract(src);

    let fns: Vec<FnSum> = facts
        .fns
        .iter()
        .map(|f| FnSum {
            name: f.name.clone(),
            receiver: f.receiver.clone().unwrap_or_default(),
            line: f.line,
            end_line: f.end_line,
            is_test: facts.in_test(f.line),
            returns_result: f.returns_result,
        })
        .collect();

    let fn_idx_of = |at: usize| {
        facts
            .enclosing_fn_idx(at)
            .map(|i| i as u32)
            .unwrap_or(NO_FN)
    };
    // Canonicalise `<self>` lock identities to the enclosing impl type.
    let canon_lock = |lock: &str, at: usize| -> String {
        if lock == "<self>" {
            facts
                .enclosing_impl(at)
                .map(|s| s.type_name.clone())
                .unwrap_or_else(|| "<self>".to_string())
        } else {
            lock.to_string()
        }
    };
    let held_at = |at: usize| -> Vec<String> {
        let mut held: Vec<String> = facts
            .lock_guards
            .iter()
            .filter(|g| g.start <= at && at < g.end)
            .map(|g| canon_lock(&g.lock, g.start))
            .collect();
        held.sort();
        held.dedup();
        held
    };
    // Last binding for a name wins (token order approximates scope).
    let bind_ty = |name: &str| -> String {
        facts
            .bindings
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.clone())
            .unwrap_or_default()
    };
    let impl_ty_at = |at: usize| -> String {
        facts
            .enclosing_impl(at)
            .map(|s| s.type_name.clone())
            .unwrap_or_default()
    };

    let calls: Vec<CallSum> = facts
        .calls
        .iter()
        .map(|c| {
            let (shape, arg, recv_ty) = match &c.shape {
                CallShape::Free => (0u8, String::new(), String::new()),
                CallShape::Method { recv } => {
                    let arg = recv.clone().unwrap_or_default();
                    let ty = match arg.as_str() {
                        "self" | "<self>" => impl_ty_at(c.at),
                        "" => String::new(),
                        other => bind_ty(other),
                    };
                    (1u8, arg, ty)
                }
                CallShape::Qualified { qual } => {
                    let ty = if qual == "Self" {
                        impl_ty_at(c.at)
                    } else {
                        qual.clone()
                    };
                    (2u8, qual.clone(), ty)
                }
            };
            CallSum {
                fn_idx: fn_idx_of(c.at),
                line: c.line,
                name: c.name.clone(),
                shape,
                arg,
                recv_ty,
                held: held_at(c.at),
                stmt_dropped: c.stmt_dropped,
            }
        })
        .collect();

    let site = |(at, line, msg): (usize, u32, String)| SiteSum {
        fn_idx: fn_idx_of(at),
        line,
        msg,
    };
    let cost_sites = rules::cost_sites(&facts).into_iter().map(site).collect();
    let panic_sites = rules::panic_sites(&facts).into_iter().map(site).collect();

    let acquires: Vec<AcquireSum> = facts
        .acquires
        .iter()
        .map(|a| AcquireSum {
            fn_idx: fn_idx_of(a.at),
            line: a.line,
            lock: canon_lock(&a.lock, a.at),
            held: held_at(a.at.saturating_sub(1)),
        })
        .collect();

    let drops: Vec<DropSum> = facts
        .drop_lets
        .iter()
        .map(|d| {
            // Attribute by line: the innermost fn whose span contains it.
            let fn_idx = fns
                .iter()
                .rposition(|f| f.line <= d.line && d.line <= f.end_line)
                .map(|i| i as u32)
                .unwrap_or(NO_FN);
            DropSum {
                fn_idx,
                line: d.line,
                callees: d.callees.clone(),
            }
        })
        .collect();

    let sig_lines: Vec<u32> = facts.sig.iter().map(|&j| facts.tokens[j].line).collect();
    let allows: Vec<AllowSum> = facts
        .allows
        .iter()
        .map(|a| {
            let target_line = sig_lines
                .iter()
                .copied()
                .find(|&l| l >= a.line)
                .unwrap_or(0);
            let fn_idx = if target_line == 0 {
                NO_FN
            } else {
                fns.iter()
                    .rposition(|f| f.line <= target_line && target_line <= f.end_line)
                    .map(|i| i as u32)
                    .unwrap_or(NO_FN)
            };
            AllowSum {
                rule: a.rule.clone(),
                line: a.line,
                has_reason: a.has_reason,
                target_line,
                fn_idx,
            }
        })
        .collect();

    FileSummary {
        path: path.to_string(),
        harness: is_harness_path(path),
        fns,
        calls,
        cost_sites,
        panic_sites,
        acquires,
        drops,
        allows,
        local_diags: rules::local_diags(&facts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_attributes_calls_and_locks() {
        let src = "impl Slot {\n    fn publish(&self) {\n        let mut g = self.current.write();\n        self.swap(g);\n    }\n}\n";
        let sum = summarize("crates/inum/src/x.rs", src);
        assert_eq!(sum.fns.len(), 1);
        let call = sum
            .calls
            .iter()
            .find(|c| c.name == "swap")
            .expect("swap call");
        assert_eq!(call.recv_ty, "Slot");
        assert_eq!(call.held, vec!["current".to_string()]);
        let acq = sum.acquires.first().expect("acquire");
        assert_eq!(acq.lock, "current");
    }
}
