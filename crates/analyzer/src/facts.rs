//! Fact extraction: from a token stream to one file's fact module.
//!
//! Rules never look at raw source — they query the [`FileFacts`] produced
//! here, in the Datalog spirit of lint-as-query-over-facts: the extractor
//! materialises each file's base relations (the analyzer's EDB: fns,
//! calls, direct rule sites, lock acquisitions, dropped results, allows)
//! already attributed to their enclosing fn, so the graph and inference
//! layers never see a token. The token view (`Scan`) and the
//! token-level relations it carries (test spans, impl spans, guard live
//! ranges, bindings) exist only while one file is being extracted. Facts
//! are re-extracted on every run: the whole workspace takes under 100 ms,
//! which is not worth a cache.
//!
//! Extraction is deliberately heuristic — it runs on tokens, not a parse
//! tree — and every heuristic is tuned to over-approximate (flag too
//! much, never too little), because the `analyzer:allow` escape hatch
//! makes a rare false positive cheap and a false negative silently erodes
//! the invariant.

use crate::lexer::{lex, Kind, Token};
use std::collections::BTreeSet;

/// Sentinel for "no enclosing fn" in `fn_idx` fields.
pub const NO_FN: u32 = u32::MAX;

/// Identifiers that are Rust keywords which may directly precede a `[`
/// without the `[` being an index expression (`&mut [T]`, `let [a, b]`,
/// `return [x]`...). An index site requires a value expression on the
/// left, and these never end one.
pub(crate) const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "ref", "in", "as", "return", "break", "continue", "else", "match", "if", "while",
    "loop", "move", "dyn", "impl", "box", "const", "static", "where", "let", "fn", "pub", "use",
    "mod", "enum", "struct", "trait", "type", "unsafe", "async", "await", "for", "yield",
];

/// Iterator-producing methods whose traversal order is the receiver's
/// intrinsic order — the fp-determinism rule flags them on hash-ordered
/// receivers.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Keywords that can directly precede a `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "return", "for", "in", "as", "move", "ref", "mut", "box", "unsafe",
    "async", "await", "let", "else", "fn", "impl", "pub", "use", "mod", "struct", "enum", "trait",
    "type", "where", "dyn", "const", "static", "crate", "super", "self", "Self", "loop", "break",
    "continue", "yield",
];

/// One function item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnFact {
    pub name: String,
    /// Receiver type of the innermost enclosing `impl` (the `T` of
    /// `impl T` / `impl Trait for T`), empty for free fns.
    pub receiver: String,
    pub line: u32,
    /// Last source line of the body (the decl line for bodyless fns).
    pub end_line: u32,
    /// Declared inside a `#[cfg(test)]` mod or as a `#[test]` fn.
    pub is_test: bool,
    /// Whether the signature's return type mentions `Result`.
    pub returns_result: bool,
    /// Half-open range over *significant* token indices covering the
    /// body, braces included. `None` for bodyless trait-method decls.
    pub body: Option<(usize, usize)>,
    /// Whether any token between `fn` and the body's closing brace is the
    /// identifier `f64` — the gate for the fp-determinism rule.
    pub mentions_f64: bool,
}

/// The shape of a call site, as far as tokens can tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallShape {
    /// `name(...)` — a free fn (or tuple-struct constructor).
    Free,
    /// `recv.name(...)`.
    Method,
    /// `Qual::name(...)`.
    Qualified,
}

/// One call site `name(` (macros `name!(` are excluded by tokenization),
/// attributed to its enclosing fn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallFact {
    pub fn_idx: u32,
    pub line: u32,
    pub name: String,
    pub shape: CallShape,
    /// Receiver *type*, when the qualifier, a binding (`recv: Type`) or
    /// the enclosing impl (`self.`) resolves it; empty otherwise.
    pub recv_ty: String,
    /// Lock identities held (live guards) at this call.
    pub held: Vec<String>,
    /// The call is a whole expression statement (`foo();` /
    /// `a.b().foo();`) whose value — possibly a `Result` — is dropped.
    pub stmt_dropped: bool,
}

/// A direct rule site: the line, the rule, and the exact message the
/// diagnostic prints. Path scoping is applied by the rule engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteFact {
    pub fn_idx: u32,
    pub line: u32,
    pub rule: &'static str,
    pub msg: String,
}

/// A zero-argument `.write()` / `.read()` / `.lock()` acquisition site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcquireFact {
    pub fn_idx: u32,
    pub line: u32,
    /// Lock identity: the receiver identifier (`current`, `cache`, a
    /// local), or the enclosing impl type when the receiver is `self` or
    /// a tuple field.
    pub lock: String,
    /// Lock identities already held when this one is taken.
    pub held: Vec<String>,
}

/// A `let _ = <expr>;` statement whose initialiser contains at least one
/// call — the error-discipline rule's raw material.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DropLet {
    pub fn_idx: u32,
    pub line: u32,
    /// Call names appearing in the initialiser, in token order.
    pub callees: Vec<String>,
}

/// One `// analyzer:allow(<rule>): <reason>` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowFact {
    pub rule: String,
    /// Source line of the comment itself.
    pub line: u32,
    pub has_reason: bool,
    /// First significant source line at or below the comment (0 = none).
    pub target_line: u32,
    /// Innermost fn whose line span contains the target ([`NO_FN`] = none).
    pub fn_idx: u32,
}

/// One file's fact module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileFacts {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Repo-root `examples/`/`tests/` harness file: panic-freedom is
    /// relaxed wholesale (test-adjacent code), other rules still apply.
    pub harness: bool,
    pub fns: Vec<FnFact>,
    pub calls: Vec<CallFact>,
    pub sites: Vec<SiteFact>,
    pub acquires: Vec<AcquireFact>,
    pub drops: Vec<DropLet>,
    pub allows: Vec<AllowFact>,
}

/// Extract the fact module for one file.
pub fn extract(path: &str, src: &str) -> FileFacts {
    let s = Scan::new(src);
    FileFacts {
        path: path.to_string(),
        harness: path.starts_with("examples/") || path.starts_with("tests/"),
        calls: extract_calls(&s),
        sites: crate::rules::scan_sites(&s),
        acquires: extract_acquires(&s),
        drops: extract_drop_lets(&s),
        allows: extract_allows(&s),
        fns: s.fns,
    }
}

/// An `impl` block: receiver type name and significant-token span of its
/// braces (inclusive of both braces).
#[derive(Debug)]
pub(crate) struct ImplSpan {
    pub type_name: String,
    pub start: usize,
    pub end: usize,
}

/// A `let`-bound lock guard (`let g = slot.write();`) and the
/// significant-token range over which it is live.
#[derive(Debug)]
pub(crate) struct LockGuard {
    pub name: String,
    pub line: u32,
    /// Lock identity of the *last* acquire in the initialiser, `self`
    /// receivers canonicalised to the enclosing impl type.
    pub lock: String,
    /// `write` | `read` | `lock`.
    pub kind: String,
    /// First significant index after the binding statement.
    pub start: usize,
    /// Exclusive end: the enclosing block's `}` or a `drop(g)` call.
    pub end: usize,
}

/// A `for <pat> in <iterand> { ... }` loop.
#[derive(Debug)]
pub(crate) struct ForLoop {
    pub line: u32,
    /// Significant index of the `for` keyword.
    pub at: usize,
    /// Identifier tokens appearing in the iterand expression.
    pub iterand_idents: Vec<String>,
}

/// A `recv.method(` chain link where `method` produces an iterator.
#[derive(Debug)]
pub(crate) struct IterCall {
    pub line: u32,
    /// Significant index of the method identifier.
    pub at: usize,
    pub receiver: String,
    pub method: String,
}

/// One file's token view plus the token-level relations extraction and
/// the direct rule scans read.
pub(crate) struct Scan {
    /// The full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of significant (non-comment) tokens. Rules
    /// index token positions through this view.
    pub sig: Vec<usize>,
    /// Brace depth of the context each significant token sits in.
    pub depth: Vec<u32>,
    /// Inclusive line spans of test-only code: `#[cfg(test)]` mods and
    /// `#[test]` fns.
    pub test_spans: Vec<(u32, u32)>,
    pub impls: Vec<ImplSpan>,
    pub fns: Vec<FnFact>,
    /// Names bound (anywhere in the file: fields, params, lets) to a
    /// `HashMap`/`HashSet`-typed value.
    pub hashy_names: BTreeSet<String>,
    /// `name: Type` ascriptions and `let name = Type::...` initialisers,
    /// in token order (later bindings shadow earlier ones).
    pub bindings: Vec<(String, String)>,
    pub lock_guards: Vec<LockGuard>,
    pub for_loops: Vec<ForLoop>,
    pub iter_calls: Vec<IterCall>,
}

impl Scan {
    /// Lex `src` and derive the token-level relations.
    pub fn new(src: &str) -> Scan {
        let tokens = lex(src);
        let sig: Vec<usize> = (0..tokens.len())
            .filter(|&i| tokens[i].kind != Kind::Comment)
            .collect();
        let depth = depths(&tokens, &sig);
        let mut s = Scan {
            tokens,
            sig,
            depth,
            test_spans: Vec::new(),
            impls: Vec::new(),
            fns: Vec::new(),
            hashy_names: BTreeSet::new(),
            bindings: Vec::new(),
            lock_guards: Vec::new(),
            for_loops: Vec::new(),
            iter_calls: Vec::new(),
        };
        extract_test_spans(&mut s);
        extract_impls(&mut s);
        extract_fns(&mut s);
        extract_bindings(&mut s);
        extract_lock_guards(&mut s);
        extract_loops_and_iter_calls(&mut s);
        s
    }

    /// The significant token at view index `i`.
    pub fn tok(&self, i: usize) -> Option<&Token> {
        self.sig.get(i).map(|&j| &self.tokens[j])
    }

    /// Is line `line` inside any test span?
    pub fn in_test(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// Index of the innermost fn whose body contains significant index `i`.
    pub fn fn_at(&self, i: usize) -> u32 {
        self.fns
            .iter()
            .rposition(|f| f.body.is_some_and(|(a, b)| a <= i && i < b))
            .map_or(NO_FN, |i| i as u32)
    }

    /// Index of the innermost fn whose line span contains `line`.
    fn fn_at_line(&self, line: u32) -> u32 {
        self.fns
            .iter()
            .rposition(|f| f.line <= line && line <= f.end_line)
            .map_or(NO_FN, |i| i as u32)
    }

    /// Receiver type of the innermost `impl` block containing `i`.
    fn impl_at(&self, i: usize) -> Option<&str> {
        self.impls
            .iter()
            .rfind(|s| s.start <= i && i <= s.end)
            .map(|s| s.type_name.as_str())
    }

    /// Lock identities of the guards live at significant index `at`.
    fn held_at(&self, at: usize) -> Vec<String> {
        let held: BTreeSet<&String> = self
            .lock_guards
            .iter()
            .filter(|g| g.start <= at && at < g.end)
            .map(|g| &g.lock)
            .collect();
        held.into_iter().cloned().collect()
    }

    /// Is the identifier at `i` the name a `let [mut]` binds?
    fn is_let_name(&self, i: usize) -> bool {
        let before =
            |k: usize, text: &str| i >= k && self.tok(i - k).is_some_and(|p| p.is_ident(text));
        before(1, "let") || (before(1, "mut") && before(2, "let"))
    }

    /// The significant index of the `;` ending the statement that
    /// continues at `from` (or the end of the file).
    fn stmt_end(&self, from: usize) -> usize {
        (from..self.sig.len())
            .find(|&k| self.tok(k).is_some_and(|t| t.is_punct(";")))
            .unwrap_or(self.sig.len())
    }
}

/// Context brace depth per significant token: a `{` is recorded at the
/// depth of the block *containing* it, and its matching `}` comes back at
/// that same depth.
fn depths(tokens: &[Token], sig: &[usize]) -> Vec<u32> {
    let mut out = Vec::with_capacity(sig.len());
    let mut d: u32 = 0;
    for &j in sig {
        let t = &tokens[j];
        if t.is_punct("}") {
            d = d.saturating_sub(1);
        }
        out.push(d);
        if t.is_punct("{") {
            d += 1;
        }
    }
    out
}

fn extract_allows(s: &Scan) -> Vec<AllowFact> {
    let mut out = Vec::new();
    for t in &s.tokens {
        if t.kind != Kind::Comment {
            continue;
        }
        let Some(rest) = t.text.trim().strip_prefix("analyzer:allow(") else {
            continue;
        };
        let (rule, has_reason) = match rest.find(')') {
            Some(close) => (
                rest[..close].trim().to_string(),
                rest[close + 1..]
                    .trim_start()
                    .strip_prefix(':')
                    .is_some_and(|r| !r.trim().is_empty()),
            ),
            None => (String::new(), false),
        };
        let target_line = s
            .sig
            .iter()
            .map(|&j| s.tokens[j].line)
            .find(|&l| l >= t.line)
            .unwrap_or(0);
        out.push(AllowFact {
            rule,
            line: t.line,
            has_reason,
            target_line,
            fn_idx: s.fn_at_line(target_line),
        });
    }
    out
}

/// Skip a `#[...]` attribute whose `[` is at `open`; returns the index
/// after its closing `]` and whether it names `test` without `not` (so
/// `#[cfg(not(test))]` stays live code).
fn skip_attribute(s: &Scan, open: usize) -> (usize, bool) {
    let n = s.sig.len();
    let mut j = open + 1;
    let mut brackets = 1u32;
    let (mut saw_test, mut saw_not) = (false, false);
    while j < n && brackets > 0 {
        let t = s.tok(j).expect("in range");
        if t.is_punct("[") {
            brackets += 1;
        } else if t.is_punct("]") {
            brackets -= 1;
        } else if t.is_ident("test") {
            saw_test = true;
        } else if t.is_ident("not") {
            saw_not = true;
        }
        j += 1;
    }
    (j, saw_test && !saw_not)
}

/// Find `#[...]` attributes naming `test` and record the line span of the
/// `mod`/`fn` item they annotate.
fn extract_test_spans(s: &mut Scan) {
    let n = s.sig.len();
    let mut i = 0;
    while i < n {
        if !(s.tok(i).is_some_and(|t| t.is_punct("#"))
            && s.tok(i + 1).is_some_and(|t| t.is_punct("[")))
        {
            i += 1;
            continue;
        }
        let (j, is_test) = skip_attribute(s, i + 1);
        if !is_test {
            i = j;
            continue;
        }
        // Skip further attributes and item qualifiers to the item keyword.
        let mut k = j;
        loop {
            match s.tok(k) {
                Some(t) if t.is_punct("#") => k = skip_attribute(s, k + 1).0,
                Some(t)
                    if t.is_ident("pub")
                        || t.is_ident("crate")
                        || t.is_ident("async")
                        || t.is_ident("unsafe")
                        || t.is_ident("const")
                        || t.is_ident("extern")
                        || t.is_punct("(")
                        || t.is_punct(")")
                        || t.is_ident("in")
                        || t.is_ident("super")
                        || t.is_ident("self")
                        || t.kind == Kind::Str =>
                {
                    k += 1;
                }
                _ => break,
            }
        }
        if !s
            .tok(k)
            .is_some_and(|t| t.is_ident("mod") || t.is_ident("fn"))
        {
            i = j;
            continue;
        }
        // Find the item's body braces and record its line span; a
        // `#[cfg(test)] mod tests;` has no inline body.
        let open = (k..n).find(|&o| s.tok(o).is_some_and(|t| t.is_punct("{") || t.is_punct(";")));
        match open.filter(|&o| s.tok(o).is_some_and(|t| t.is_punct("{"))) {
            Some(open) => {
                let close = matching_brace(s, open);
                let start = s.tok(i).map(|t| t.line).unwrap_or(1);
                let end = s
                    .tok(close)
                    .or_else(|| s.tok(n - 1))
                    .map(|t| t.line)
                    .unwrap_or(start);
                s.test_spans.push((start, end));
                i = close.max(j);
            }
            None => i = j,
        }
    }
}

/// Significant index of the `}` matching the `{` at significant index
/// `open` (returns the last index if unbalanced).
fn matching_brace(s: &Scan, open: usize) -> usize {
    let mut d = 0u32;
    let mut i = open;
    while let Some(t) = s.tok(i) {
        if t.is_punct("{") {
            d += 1;
        } else if t.is_punct("}") {
            d -= 1;
            if d == 0 {
                return i;
            }
        }
        i += 1;
    }
    s.sig.len().saturating_sub(1)
}

fn extract_fns(s: &mut Scan) {
    let n = s.sig.len();
    for i in 0..n {
        if !s.tok(i).is_some_and(|t| t.is_ident("fn")) {
            continue;
        }
        // `fn` in a fn-pointer type (`fn(u32) -> u32`) has no name.
        let Some(name_tok) = s.tok(i + 1) else {
            continue;
        };
        if name_tok.kind != Kind::Ident {
            continue;
        }
        let name = name_tok.text.clone();
        let line = name_tok.line;
        // Scan the signature for the body `{` (or `;` for decls),
        // ignoring braces nested in parens (closure defaults etc.).
        let mut j = i + 2;
        let mut parens = 0u32;
        let mut body = None;
        while j < n {
            let t = s.tok(j).expect("in range");
            if t.is_punct("(") {
                parens += 1;
            } else if t.is_punct(")") {
                parens = parens.saturating_sub(1);
            } else if parens == 0 && t.is_punct(";") {
                break;
            } else if parens == 0 && t.is_punct("{") {
                let close = matching_brace(s, j);
                body = Some((j, close + 1));
                break;
            }
            j += 1;
        }
        let scan_end = body.map(|(_, e)| e).unwrap_or(j);
        let mentions_f64 = (i..scan_end).any(|k| s.tok(k).is_some_and(|t| t.is_ident("f64")));
        // Return type: anything mentioning `Result` between a `->` and the
        // body/`;` counts (covers `io::Result<T>` and aliases named so).
        let sig_end = body.map(|(b, _)| b).unwrap_or(scan_end);
        let arrow = (i + 2..sig_end).find(|&k| s.tok(k).is_some_and(|t| t.is_punct("->")));
        let returns_result = arrow
            .is_some_and(|a| (a..sig_end).any(|k| s.tok(k).is_some_and(|t| t.is_ident("Result"))));
        let end_line = body
            .and_then(|(_, e)| s.tok(e.saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(line);
        s.fns.push(FnFact {
            name,
            receiver: s.impl_at(i).unwrap_or_default().to_string(),
            line,
            end_line,
            is_test: s.in_test(line),
            returns_result,
            body,
            mentions_f64,
        });
    }
}

/// `impl [<..>] [Trait for] Type [<..>] { ... }` — record the receiver
/// type (the last path segment before the body, after any `for`) and the
/// brace span. Generic params are skipped by angle counting.
fn extract_impls(s: &mut Scan) {
    let n = s.sig.len();
    for i in 0..n {
        if !s.tok(i).is_some_and(|t| t.is_ident("impl")) {
            continue;
        }
        // `impl` in `impl Trait` return/arg position has no body `{` at
        // angle depth 0 before a terminator; the scan below just won't
        // find one worth recording.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut last_ident: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        let mut open = None;
        while j < n {
            let t = s.tok(j).expect("in range");
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "->" => {}
                "for" if angle <= 0 && t.kind == Kind::Ident => saw_for = true,
                "{" if angle <= 0 => {
                    open = Some(j);
                    break;
                }
                ";" | "}" if angle <= 0 => break,
                _ => {
                    if t.kind == Kind::Ident && angle <= 0 {
                        if saw_for {
                            after_for = Some(t.text.clone());
                        } else {
                            last_ident = Some(t.text.clone());
                        }
                    }
                }
            }
            j += 1;
        }
        let (Some(open), Some(type_name)) = (open, after_for.or(last_ident)) else {
            continue;
        };
        let end = matching_brace(s, open);
        s.impls.push(ImplSpan {
            type_name,
            start: open,
            end,
        });
    }
}

/// Every `name(` call site, classified by shape and attributed to its fn.
/// `name!(` macro calls never match because the `!` sits between the
/// name and the paren.
fn extract_calls(s: &Scan) -> Vec<CallFact> {
    let mut out = Vec::new();
    for i in 0..s.sig.len() {
        let Some(t) = s.tok(i) else { break };
        if t.kind != Kind::Ident
            || NON_CALL_KEYWORDS.contains(&t.text.as_str())
            || !s.tok(i + 1).is_some_and(|u| u.is_punct("("))
        {
            continue;
        }
        let prev = s.tok(i.wrapping_sub(1));
        if prev.is_some_and(|u| u.is_ident("fn")) {
            continue;
        }
        let impl_ty = || s.impl_at(i).unwrap_or_default().to_string();
        let recv = s.tok(i.wrapping_sub(2));
        let (shape, recv_ty) = if prev.is_some_and(|u| u.is_punct(".")) {
            // `self` or a tuple field resolves through the enclosing
            // impl, a local through its last binding.
            let ty = match recv {
                Some(r) if r.kind == Kind::Number || r.is_ident("self") => impl_ty(),
                Some(r) if r.kind == Kind::Ident => s
                    .bindings
                    .iter()
                    .rfind(|(n, _)| *n == r.text)
                    .map(|(_, ty)| ty.clone())
                    .unwrap_or_default(),
                _ => String::new(),
            };
            (CallShape::Method, ty)
        } else if let Some(q) =
            recv.filter(|q| q.kind == Kind::Ident && prev.is_some_and(|u| u.is_punct("::")))
        {
            let ty = if q.text == "Self" {
                impl_ty()
            } else {
                q.text.clone()
            };
            (CallShape::Qualified, ty)
        } else {
            (CallShape::Free, String::new())
        };
        out.push(CallFact {
            fn_idx: s.fn_at(i),
            line: t.line,
            name: t.text.clone(),
            shape,
            recv_ty,
            held: s.held_at(i),
            stmt_dropped: is_dropped_stmt(s, i),
        });
    }
    out
}

/// Is the call at significant index `i` (callee name token) the last call
/// of a whole expression statement whose value is discarded — i.e. the
/// matching `)` is immediately followed by `;`, and walking the receiver
/// chain backwards lands on a statement boundary?
fn is_dropped_stmt(s: &Scan, i: usize) -> bool {
    // Forward: the call's closing paren must be directly followed by `;`.
    let mut j = i + 1;
    let mut parens = 0i32;
    let n = s.sig.len();
    while j < n {
        let t = s.tok(j).expect("in range");
        if t.is_punct("(") {
            parens += 1;
        } else if t.is_punct(")") {
            parens -= 1;
            if parens == 0 {
                break;
            }
        }
        j += 1;
    }
    if !s.tok(j + 1).is_some_and(|t| t.is_punct(";")) {
        return false;
    }
    // Backward: hop over a `recv.`/`Qual::`/`a.b().` chain to the
    // statement start. Anything else (`=`, `return`, an operator…) means
    // the value is consumed.
    let mut k = i;
    loop {
        let Some(p) = s.tok(k.wrapping_sub(1)) else {
            return true; // start of file
        };
        if !(p.is_punct(".") || p.is_punct("::")) {
            return p.is_punct(";") || p.is_punct("{") || p.is_punct("}");
        }
        // Skip the segment before the separator; a `)` closes a chained
        // call whose arguments we hop over wholesale.
        let Some(q) = s.tok(k.wrapping_sub(2)) else {
            return false;
        };
        if q.kind == Kind::Ident || q.kind == Kind::Number {
            k -= 2;
        } else if q.is_punct(")") {
            let mut d = 0i32;
            let mut m = k - 2;
            loop {
                let t = s.tok(m).expect("in range");
                if t.is_punct(")") {
                    d += 1;
                } else if t.is_punct("(") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                if m == 0 {
                    return false;
                }
                m -= 1;
            }
            // Token before the `(` should be the chained call's name.
            if m == 0 || !s.tok(m - 1).is_some_and(|t| t.kind == Kind::Ident) {
                return false;
            }
            k = m - 1;
        } else {
            return false;
        }
    }
}

/// Is significant index `i` the `.` of a zero-argument `.write()` /
/// `.read()` / `.lock()`? Returns the method token.
fn acquire_at(s: &Scan, i: usize) -> Option<&Token> {
    let m = s.tok(i + 1)?;
    (s.tok(i).is_some_and(|t| t.is_punct("."))
        && (m.is_ident("write") || m.is_ident("read") || m.is_ident("lock"))
        && s.tok(i + 2).is_some_and(|u| u.is_punct("("))
        && s.tok(i + 3).is_some_and(|u| u.is_punct(")")))
    .then_some(m)
}

/// Lock identity of the acquire whose `.` is at `i`: the receiver token,
/// with `self` (or a tuple field) canonicalised to the impl type at
/// `canon_at`. `None` for a computed receiver.
fn lock_of(s: &Scan, i: usize, canon_at: usize) -> Option<String> {
    match s.tok(i.wrapping_sub(1)) {
        Some(r) if r.kind == Kind::Ident && r.text != "self" => Some(r.text.clone()),
        Some(r) if r.kind == Kind::Number || r.is_ident("self") => {
            Some(s.impl_at(canon_at).unwrap_or("<self>").to_string())
        }
        _ => None,
    }
}

/// Acquisition sites with a stable lock identity, and the locks already
/// held there.
fn extract_acquires(s: &Scan) -> Vec<AcquireFact> {
    let mut out = Vec::new();
    for i in 0..s.sig.len() {
        let Some(m) = acquire_at(s, i) else { continue };
        let Some(lock) = lock_of(s, i, i + 1) else {
            continue; // computed receiver: no stable identity
        };
        out.push(AcquireFact {
            fn_idx: s.fn_at(i + 1),
            line: m.line,
            lock,
            held: s.held_at(i),
        });
    }
    out
}

/// `let [mut] g = <init ending in .write()/.read()/.lock()>;` — the guard
/// carries the lock identity and kind of the *last* acquire in the
/// initialiser, and is live to the end of its block or an explicit
/// `drop(g)`.
fn extract_lock_guards(s: &mut Scan) {
    let n = s.sig.len();
    for i in 0..n {
        if !s.tok(i).is_some_and(|t| t.is_ident("let")) {
            continue;
        }
        let j = if s.tok(i + 1).is_some_and(|t| t.is_ident("mut")) {
            i + 2
        } else {
            i + 1
        };
        let Some(name_tok) = s.tok(j).filter(|t| t.kind == Kind::Ident) else {
            continue;
        };
        if !s.tok(j + 1).is_some_and(|t| t.is_punct("=")) {
            continue;
        }
        let stmt_end = s.stmt_end(j + 2);
        let Some(k) = (j + 2..stmt_end)
            .rev()
            .find(|&k| acquire_at(s, k).is_some())
        else {
            continue;
        };
        let kind = s.tok(k + 1).map(|m| m.text.clone()).unwrap_or_default();
        let start = stmt_end + 1;
        let lock = lock_of(s, k, start)
            .unwrap_or_else(|| s.impl_at(start).unwrap_or("<self>").to_string());
        let let_depth = s.depth[i];
        let end = (start..n)
            .find(|&m| {
                let t = s.tok(m).expect("in range");
                (t.is_punct("}") && s.depth[m] < let_depth)
                    || (t.is_ident("drop")
                        && s.tok(m + 1).is_some_and(|u| u.is_punct("("))
                        && s.tok(m + 2).is_some_and(|u| u.is_ident(&name_tok.text)))
            })
            .unwrap_or(n);
        s.lock_guards.push(LockGuard {
            name: name_tok.text.clone(),
            line: name_tok.line,
            lock,
            kind,
            start,
            end,
        });
    }
}

/// `let _ = <init>;` statements whose initialiser contains a call.
fn extract_drop_lets(s: &Scan) -> Vec<DropLet> {
    let mut out = Vec::new();
    for i in 0..s.sig.len() {
        if !(s.tok(i).is_some_and(|t| t.is_ident("let"))
            && s.tok(i + 1).is_some_and(|t| t.is_ident("_"))
            && s.tok(i + 2).is_some_and(|t| t.is_punct("=")))
        {
            continue;
        }
        let line = s.tok(i).map(|t| t.line).unwrap_or(1);
        let callees: Vec<String> = (i + 3..s.stmt_end(i + 3))
            .filter_map(|j| {
                let t = s.tok(j)?;
                (t.kind == Kind::Ident
                    && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
                    && s.tok(j + 1).is_some_and(|u| u.is_punct("(")))
                .then(|| t.text.clone())
            })
            .collect();
        if !callees.is_empty() {
            out.push(DropLet {
                fn_idx: s.fn_at_line(line),
                line,
                callees,
            });
        }
    }
    out
}

/// Name→type bindings and hash-ordered names, from two binding shapes:
/// `name: [& mut]* Type` ascriptions (the first uppercase-initial type
/// ident is the binding; a type mentioning `HashMap`/`HashSet` anywhere
/// makes the name hash-ordered — covers struct fields, params, and typed
/// lets) and `let [mut] name = <init>;` (`Type::…` binds the name; an
/// initialiser mentioning `HashMap`/`HashSet` makes it hash-ordered).
fn extract_bindings(s: &mut Scan) {
    let n = s.sig.len();
    for i in 0..n {
        let Some(t) = s.tok(i) else { break };
        if t.kind != Kind::Ident || NON_INDEX_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let name = t.text.clone();
        let upper = |u: &Token| {
            u.kind == Kind::Ident && u.text.starts_with(|c: char| c.is_ascii_uppercase())
        };
        if s.tok(i + 1).is_some_and(|p| p.is_punct(":")) {
            if !s.tok(i + 2).is_some_and(|p| p.is_punct(":")) {
                let ty = (i + 2..n.min(i + 6))
                    .map(|j| s.tok(j).expect("in range"))
                    .find(|u| !(u.is_punct("&") || u.is_ident("mut") || u.kind == Kind::Lifetime))
                    .filter(|u| upper(u));
                if let Some(ty) = ty {
                    s.bindings.push((name.clone(), ty.text.clone()));
                }
            }
            // Scan the type to a depth-0 terminator.
            let mut angle = 0i32;
            let mut paren = 0i32;
            let mut hashy = false;
            for j in i + 2..n {
                let u = s.tok(j).expect("in range");
                match u.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    // Nested generic closers lex as shift tokens.
                    ">>" => angle -= 2,
                    "(" | "[" => paren += 1,
                    ")" | "]" if paren > 0 => paren -= 1,
                    "," | "=" | ";" | "{" | "}" | ")" | "]" if angle <= 0 && paren == 0 => break,
                    "HashMap" | "HashSet" if u.kind == Kind::Ident => hashy = true,
                    _ => {}
                }
            }
            if hashy {
                s.hashy_names.insert(name.clone());
            }
        }
        if s.is_let_name(i) && s.tok(i + 1).is_some_and(|p| p.is_punct("=")) {
            if s.tok(i + 3).is_some_and(|p| p.is_punct("::")) {
                if let Some(ty) = s.tok(i + 2).filter(|u| upper(u)) {
                    s.bindings.push((name.clone(), ty.text.clone()));
                }
            }
            let hashy = (i + 2..s.stmt_end(i + 2)).any(|j| {
                s.tok(j)
                    .is_some_and(|u| u.is_ident("HashMap") || u.is_ident("HashSet"))
            });
            if hashy {
                s.hashy_names.insert(name);
            }
        }
    }
}

fn extract_loops_and_iter_calls(s: &mut Scan) {
    let n = s.sig.len();
    for i in 0..n {
        let Some(t) = s.tok(i) else { break };
        let (t_text, t_kind, line) = (t.text.clone(), t.kind, t.line);
        // `for <pat> in <iterand> {` — `impl T for U` and `for<'a>` have
        // no depth-0 `in` before the `{`.
        if t_kind == Kind::Ident
            && t_text == "for"
            && !s.tok(i + 1).is_some_and(|u| u.is_punct("<"))
        {
            let mut nest = 0i32;
            let mut in_at = None;
            for j in i + 1..n {
                let u = s.tok(j).expect("in range");
                match u.text.as_str() {
                    "(" | "[" => nest += 1,
                    ")" | "]" => nest -= 1,
                    "{" | ";" if nest == 0 => break,
                    "in" if nest == 0 && u.kind == Kind::Ident => {
                        in_at = Some(j);
                        break;
                    }
                    _ => {}
                }
            }
            if let Some(start) = in_at {
                let mut idents = Vec::new();
                let mut nest = 0i32;
                for k in start + 1..n {
                    let u = s.tok(k).expect("in range");
                    match u.text.as_str() {
                        "(" | "[" => nest += 1,
                        ")" | "]" => nest -= 1,
                        "{" if nest == 0 => break,
                        _ if u.kind == Kind::Ident => idents.push(u.text.clone()),
                        _ => {}
                    }
                }
                s.for_loops.push(ForLoop {
                    line,
                    at: i,
                    iterand_idents: idents,
                });
            }
        }
        // `recv.method(` with an iterator-producing method.
        if t_kind == Kind::Ident
            && s.tok(i + 1).is_some_and(|u| u.is_punct("."))
            && s.tok(i + 3).is_some_and(|u| u.is_punct("("))
        {
            if let Some(m) = s
                .tok(i + 2)
                .filter(|m| m.kind == Kind::Ident && ITER_METHODS.contains(&m.text.as_str()))
            {
                let (method, line) = (m.text.clone(), m.line);
                s.iter_calls.push(IterCall {
                    line,
                    at: i + 2,
                    receiver: t_text,
                    method,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_spans_and_f64_flag() {
        let f = Scan::new("fn a(x: f64) -> f64 { x }\nfn b() {}\n");
        assert_eq!(f.fns.len(), 2);
        assert!(f.fns[0].mentions_f64);
        assert!(!f.fns[1].mentions_f64);
        assert!(f.fns[0].body.is_some());
    }

    #[test]
    fn cfg_test_mod_and_test_fn_spans() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() {}\n}\n#[test]\nfn tt() {}\n";
        let f = Scan::new(src);
        assert_eq!(f.test_spans.len(), 2);
        assert!(!f.in_test(1));
        assert!(f.in_test(4));
        assert!(f.in_test(7));
    }

    #[test]
    fn cfg_not_test_is_live() {
        let f = Scan::new("#[cfg(not(test))]\nfn live() {}\n");
        assert!(f.test_spans.is_empty());
    }

    #[test]
    fn allow_directives_parse() {
        let src = "// analyzer:allow(cost-purity): advisors go through the counted path\n\
                   fn a() {}\n\
                   // analyzer:allow(panic-freedom)\n\
                   fn b() {}\n";
        let f = extract("crates/x/src/lib.rs", src);
        assert_eq!(f.allows.len(), 2);
        assert!(f.allows[0].has_reason);
        assert_eq!(f.allows[0].rule, "cost-purity");
        assert!(!f.allows[1].has_reason);
    }

    #[test]
    fn hashy_names_from_field_param_and_let() {
        let src = "struct S { m: HashMap<u32, f64> }\n\
                   fn f(n: &HashSet<u32>) { let q = HashMap::new(); let v = Vec::new(); }\n";
        let f = Scan::new(src);
        assert!(f.hashy_names.contains("m"));
        assert!(f.hashy_names.contains("n"));
        assert!(f.hashy_names.contains("q"));
        assert!(!f.hashy_names.contains("v"));
    }

    #[test]
    fn guard_live_span_ends_at_block_or_drop() {
        let src = "fn f() {\n let g = slot.write();\n touch();\n}\n\
                   fn h() {\n let g = slot.write();\n drop(g);\n after();\n}\n";
        let f = Scan::new(src);
        assert_eq!(f.lock_guards.len(), 2);
        assert!(f.lock_guards.iter().all(|g| g.kind == "write"));
        let touch_at = (0..f.sig.len())
            .find(|&i| f.tok(i).is_some_and(|t| t.is_ident("touch")))
            .unwrap();
        assert!(f.lock_guards[0].start <= touch_at && touch_at < f.lock_guards[0].end);
        let after_at = (0..f.sig.len())
            .find(|&i| f.tok(i).is_some_and(|t| t.is_ident("after")))
            .unwrap();
        assert!(after_at >= f.lock_guards[1].end);
    }

    #[test]
    fn for_loops_vs_impl_for() {
        let src = "impl Display for Foo { fn f(&self) { for x in self.items.iter() {} } }\n";
        let f = Scan::new(src);
        assert_eq!(f.for_loops.len(), 1);
        assert!(f.for_loops[0].iterand_idents.contains(&"items".to_string()));
        assert_eq!(f.iter_calls.len(), 1);
        assert_eq!(f.iter_calls[0].receiver, "items");
    }

    #[test]
    fn summary_attributes_calls_and_locks() {
        let src = "impl Slot {\n    fn publish(&self) {\n        let mut g = self.current.write();\n        self.swap(g);\n    }\n}\n";
        let f = extract("crates/inum/src/x.rs", src);
        assert_eq!(f.fns.len(), 1);
        let call = f
            .calls
            .iter()
            .find(|c| c.name == "swap")
            .expect("swap call");
        assert_eq!(call.recv_ty, "Slot");
        assert_eq!(call.held, vec!["current".to_string()]);
        let acq = f.acquires.first().expect("acquire");
        assert_eq!(acq.lock, "current");
    }
}
