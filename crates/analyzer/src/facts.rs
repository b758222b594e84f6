//! Fact extraction: from a token stream to a queryable fact base.
//!
//! Rules never look at raw source — they query the [`Facts`] produced
//! here, in the Datalog spirit of lint-as-query-over-facts: the
//! extractor materialises base relations (fn spans, call shapes,
//! lock-guard live ranges, hash-ordered bindings) once per file,
//! and each rule is a cheap scan over them. Extraction is deliberately
//! heuristic — it runs on tokens, not a parse tree — and every heuristic
//! is tuned to over-approximate (flag too much, never too little),
//! because the `analyzer:allow` escape hatch makes a rare false positive
//! cheap and a false negative silently erodes the invariant.

use crate::lexer::{lex, Kind, Token};
use std::collections::BTreeSet;

/// Identifiers that are Rust keywords which may directly precede a `[`
/// without the `[` being an index expression (`&mut [T]`, `let [a, b]`,
/// `return [x]`...). An index site requires a value expression on the
/// left, and these never end one.
pub const NON_INDEX_KEYWORDS: &[&str] = &[
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

/// One function item: where it is and what the rules need to know about
/// its body.
#[derive(Debug)]
pub struct FnFact {
    pub name: String,
    pub line: u32,
    /// Half-open range over *significant* token indices covering the
    /// body, braces included. `None` for bodyless trait-method decls.
    pub body: Option<(usize, usize)>,
    /// Whether any token between `fn` and the body's closing brace is the
    /// identifier `f64` — the gate for the fp-determinism rule.
    pub mentions_f64: bool,
    /// Significant index of the `fn` keyword.
    pub at: usize,
    /// Last source line of the body (the decl line for bodyless fns).
    pub end_line: u32,
    /// The innermost enclosing `impl` block's receiver type, when the fn
    /// is a method — the `T` of `impl T` / `impl Trait for T`.
    pub receiver: Option<String>,
    /// Whether the signature's return type mentions `Result`.
    pub returns_result: bool,
}

/// An `impl` block: receiver type name and significant-token span of its
/// braces (inclusive of both braces).
#[derive(Debug)]
pub struct ImplSpan {
    pub type_name: String,
    pub start: usize,
    pub end: usize,
}

/// The shape of a call site, as far as tokens can tell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallShape {
    /// `name(...)` — a free fn (or tuple-struct constructor).
    Free,
    /// `recv.name(...)` — `recv` is the receiver token's text when it is
    /// a plain identifier (`self`, a local, or the last field of a
    /// `self.field` chain); `None` for computed receivers.
    Method { recv: Option<String> },
    /// `Qual::name(...)` — `qual` is the path segment before the `::`.
    Qualified { qual: String },
}

/// One call site `name(` (macros `name!(` are excluded by tokenization).
#[derive(Debug)]
pub struct CallFact {
    /// Significant index of the callee name token.
    pub at: usize,
    pub line: u32,
    pub name: String,
    pub shape: CallShape,
    /// The call is a whole expression statement (`foo();` /
    /// `a.b().foo();`) whose value — possibly a `Result` — is dropped.
    pub stmt_dropped: bool,
}

/// A zero-argument `.write()` / `.read()` / `.lock()` acquisition site.
#[derive(Debug)]
pub struct AcquireFact {
    pub at: usize,
    pub line: u32,
    /// Lock identity: the receiver identifier (`current`, `cache`, a
    /// local), or `"<self>"` when the receiver is `self`/a tuple field —
    /// canonicalised to the enclosing impl type by the summariser.
    pub lock: String,
    /// `write` | `read` | `lock`.
    pub kind: String,
}

/// A `let`-bound lock guard of any kind and its live range — like
/// [`GuardFact`] but carrying the lock identity and acquire kind, for the
/// lock-ordering rule.
#[derive(Debug)]
pub struct LockGuard {
    pub name: String,
    pub line: u32,
    pub lock: String,
    pub kind: String,
    pub start: usize,
    pub end: usize,
}

/// A `let _ = <expr>;` statement whose initialiser contains at least one
/// call — the error-discipline rule's raw material.
#[derive(Debug)]
pub struct DropLet {
    pub line: u32,
    /// Call names appearing in the initialiser, in token order.
    pub callees: Vec<String>,
}

/// One `// analyzer:allow(<rule>): <reason>` directive.
#[derive(Debug)]
pub struct AllowFact {
    pub rule: String,
    /// Source line of the comment itself.
    pub line: u32,
    pub has_reason: bool,
}

/// A `let`-bound lock write guard (`let g = slot.write();`) and the
/// significant-token range over which it is live.
#[derive(Debug)]
pub struct GuardFact {
    pub name: String,
    pub line: u32,
    /// First significant index after the binding statement.
    pub start: usize,
    /// Exclusive end: the enclosing block's `}` or a `drop(g)` call.
    pub end: usize,
}

/// A `for <pat> in <iterand> { ... }` loop.
#[derive(Debug)]
pub struct ForLoop {
    pub line: u32,
    /// Significant index of the `for` keyword.
    pub at: usize,
    /// Identifier tokens appearing in the iterand expression.
    pub iterand_idents: Vec<String>,
}

/// A `recv.method(` chain link where `method` produces an iterator.
#[derive(Debug)]
pub struct IterCall {
    pub line: u32,
    /// Significant index of the method identifier.
    pub at: usize,
    pub receiver: String,
    pub method: String,
}

/// The per-file fact base.
pub struct Facts {
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
    pub fns: Vec<FnFact>,
    pub allows: Vec<AllowFact>,
    /// Names bound (anywhere in the file: fields, params, lets) to a
    /// `HashMap`/`HashSet`-typed value.
    pub hashy_names: BTreeSet<String>,
    pub guards: Vec<GuardFact>,
    pub for_loops: Vec<ForLoop>,
    pub iter_calls: Vec<IterCall>,
    pub impls: Vec<ImplSpan>,
    pub calls: Vec<CallFact>,
    pub acquires: Vec<AcquireFact>,
    pub lock_guards: Vec<LockGuard>,
    pub drop_lets: Vec<DropLet>,
    /// `name: Type` ascriptions and `let name = Type::...` initialisers,
    /// in token order (later bindings shadow earlier ones).
    pub bindings: Vec<(String, String)>,
}

impl Facts {
    /// The significant token at view index `i`.
    pub fn tok(&self, i: usize) -> Option<&Token> {
        self.sig.get(i).map(|&j| &self.tokens[j])
    }

    /// Is line `line` inside any test span?
    pub fn in_test(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// The innermost fn whose body contains significant index `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnFact> {
        self.fns
            .iter()
            .rfind(|f| f.body.is_some_and(|(a, b)| a <= i && i < b))
    }

    /// Index into `fns` of the innermost fn whose body contains `i`.
    pub fn enclosing_fn_idx(&self, i: usize) -> Option<usize> {
        self.fns
            .iter()
            .rposition(|f| f.body.is_some_and(|(a, b)| a <= i && i < b))
    }

    /// The innermost `impl` block containing significant index `i`.
    pub fn enclosing_impl(&self, i: usize) -> Option<&ImplSpan> {
        self.impls.iter().rfind(|s| s.start <= i && i <= s.end)
    }
}

/// Extract the full fact base from one source file.
pub fn extract(src: &str) -> Facts {
    let tokens = lex(src);
    let mut sig = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != Kind::Comment {
            sig.push(i);
        }
    }
    let depth = depths(&tokens, &sig);
    let mut facts = Facts {
        test_spans: Vec::new(),
        fns: Vec::new(),
        allows: Vec::new(),
        hashy_names: BTreeSet::new(),
        guards: Vec::new(),
        for_loops: Vec::new(),
        iter_calls: Vec::new(),
        impls: Vec::new(),
        calls: Vec::new(),
        acquires: Vec::new(),
        lock_guards: Vec::new(),
        drop_lets: Vec::new(),
        bindings: Vec::new(),
        tokens,
        sig,
        depth,
    };
    extract_allows(&mut facts);
    extract_test_spans(&mut facts);
    extract_impls(&mut facts);
    extract_fns(&mut facts);
    extract_hashy_names(&mut facts);
    extract_guards(&mut facts);
    extract_loops_and_iter_calls(&mut facts);
    extract_calls(&mut facts);
    extract_acquires(&mut facts);
    extract_lock_guards(&mut facts);
    extract_drop_lets(&mut facts);
    extract_bindings(&mut facts);
    facts
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

fn extract_allows(facts: &mut Facts) {
    for t in &facts.tokens {
        if t.kind != Kind::Comment {
            continue;
        }
        let body = t.text.trim();
        let Some(rest) = body.strip_prefix("analyzer:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            facts.allows.push(AllowFact {
                rule: String::new(),
                line: t.line,
                has_reason: false,
            });
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let tail = rest[close + 1..].trim_start();
        let has_reason = tail.strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
        facts.allows.push(AllowFact {
            rule,
            line: t.line,
            has_reason,
        });
    }
}

/// Find `#[...]` attributes containing the bare identifier `test` (and
/// not `not`, so `#[cfg(not(test))]` stays live code) and record the line
/// span of the `mod`/`fn` item they annotate.
fn extract_test_spans(facts: &mut Facts) {
    let n = facts.sig.len();
    let mut i = 0;
    while i < n {
        if !(facts.tok(i).is_some_and(|t| t.is_punct("#"))
            && facts.tok(i + 1).is_some_and(|t| t.is_punct("[")))
        {
            i += 1;
            continue;
        }
        // Scan the attribute body to its closing `]`.
        let mut j = i + 2;
        let mut brackets = 1u32;
        let mut saw_test = false;
        let mut saw_not = false;
        while j < n && brackets > 0 {
            let t = facts.tok(j).expect("in range");
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
        if !saw_test || saw_not {
            i = j;
            continue;
        }
        // Skip further attributes and item qualifiers to the item keyword.
        let mut k = j;
        loop {
            match facts.tok(k) {
                Some(t) if t.is_punct("#") => {
                    // Another attribute: skip it wholesale.
                    k += 2;
                    let mut b = 1u32;
                    while k < n && b > 0 {
                        let t = facts.tok(k).expect("in range");
                        if t.is_punct("[") {
                            b += 1;
                        } else if t.is_punct("]") {
                            b -= 1;
                        }
                        k += 1;
                    }
                }
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
        let item_is_testable = facts
            .tok(k)
            .is_some_and(|t| t.is_ident("mod") || t.is_ident("fn"));
        if !item_is_testable {
            i = j;
            continue;
        }
        // Find the item's body braces and record its line span.
        let mut open = k;
        while open < n {
            let t = facts.tok(open).expect("in range");
            if t.is_punct("{") {
                break;
            }
            if t.is_punct(";") {
                // `#[cfg(test)] mod tests;` — no inline body.
                open = n;
                break;
            }
            open += 1;
        }
        if open < n {
            let close = matching_brace(facts, open);
            let start = facts.tok(i).map(|t| t.line).unwrap_or(1);
            let end = facts
                .tok(close)
                .or_else(|| facts.tok(n - 1))
                .map(|t| t.line)
                .unwrap_or(start);
            facts.test_spans.push((start, end));
            i = close.max(j);
        } else {
            i = j;
        }
    }
}

/// Significant index of the `}` matching the `{` at significant index
/// `open` (returns the last index if unbalanced).
fn matching_brace(facts: &Facts, open: usize) -> usize {
    let mut d = 0u32;
    let mut i = open;
    while let Some(t) = facts.tok(i) {
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
    facts.sig.len().saturating_sub(1)
}

fn extract_fns(facts: &mut Facts) {
    let n = facts.sig.len();
    for i in 0..n {
        if !facts.tok(i).is_some_and(|t| t.is_ident("fn")) {
            continue;
        }
        // `fn` in a fn-pointer type (`fn(u32) -> u32`) has no name.
        let Some(name_tok) = facts.tok(i + 1) else {
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
            let t = facts.tok(j).expect("in range");
            if t.is_punct("(") {
                parens += 1;
            } else if t.is_punct(")") {
                parens = parens.saturating_sub(1);
            } else if parens == 0 && t.is_punct(";") {
                break;
            } else if parens == 0 && t.is_punct("{") {
                let close = matching_brace(facts, j);
                body = Some((j, close + 1));
                break;
            }
            j += 1;
        }
        let scan_end = body.map(|(_, e)| e).unwrap_or(j);
        let mentions_f64 = (i..scan_end).any(|k| facts.tok(k).is_some_and(|t| t.is_ident("f64")));
        // Return type: anything mentioning `Result` between a `->` and the
        // body/`;` counts (covers `io::Result<T>` and aliases named so).
        let mut returns_result = false;
        let mut saw_arrow = false;
        for k in i + 2..scan_end.min(body.map(|(b, _)| b).unwrap_or(scan_end)) {
            let Some(t) = facts.tok(k) else { break };
            if t.is_punct("->") {
                saw_arrow = true;
            } else if saw_arrow && t.is_ident("Result") {
                returns_result = true;
                break;
            }
        }
        let end_line = body
            .and_then(|(_, e)| facts.tok(e.saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(line);
        let receiver = facts.enclosing_impl(i).map(|s| s.type_name.clone());
        facts.fns.push(FnFact {
            name,
            line,
            body,
            mentions_f64,
            at: i,
            end_line,
            receiver,
            returns_result,
        });
    }
}

/// `impl [<..>] [Trait for] Type [<..>] { ... }` — record the receiver
/// type (the last path segment before the body, after any `for`) and the
/// brace span. Generic params are skipped by angle counting.
fn extract_impls(facts: &mut Facts) {
    let n = facts.sig.len();
    for i in 0..n {
        if !facts.tok(i).is_some_and(|t| t.is_ident("impl")) {
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
            let t = facts.tok(j).expect("in range");
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
        let close = matching_brace(facts, open);
        facts.impls.push(ImplSpan {
            type_name,
            start: open,
            end: close,
        });
    }
}

/// Keywords that can directly precede a `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "return", "for", "in", "as", "move", "ref", "mut", "box", "unsafe",
    "async", "await", "let", "else", "fn", "impl", "pub", "use", "mod", "struct", "enum", "trait",
    "type", "where", "dyn", "const", "static", "crate", "super", "self", "Self", "loop", "break",
    "continue", "yield",
];

/// Every `name(` call site, classified by shape. `name!(` macro calls
/// never match because the `!` sits between the name and the paren.
fn extract_calls(facts: &mut Facts) {
    let n = facts.sig.len();
    for i in 0..n {
        let Some(t) = facts.tok(i) else { break };
        if t.kind != Kind::Ident
            || NON_CALL_KEYWORDS.contains(&t.text.as_str())
            || !facts.tok(i + 1).is_some_and(|u| u.is_punct("("))
        {
            continue;
        }
        if facts
            .tok(i.wrapping_sub(1))
            .is_some_and(|u| u.is_ident("fn"))
        {
            continue;
        }
        let (name, line) = (t.text.clone(), t.line);
        let prev = facts.tok(i.wrapping_sub(1));
        let shape = if prev.is_some_and(|u| u.is_punct(".")) {
            let recv = match facts.tok(i.wrapping_sub(2)) {
                Some(r) if r.kind == Kind::Ident => Some(r.text.clone()),
                Some(r) if r.kind == Kind::Number => Some("<self>".to_string()),
                _ => None,
            };
            CallShape::Method { recv }
        } else if prev.is_some_and(|u| u.is_punct("::")) {
            match facts.tok(i.wrapping_sub(2)) {
                Some(q) if q.kind == Kind::Ident => CallShape::Qualified {
                    qual: q.text.clone(),
                },
                _ => CallShape::Free,
            }
        } else {
            CallShape::Free
        };
        let stmt_dropped = is_dropped_stmt(facts, i);
        facts.calls.push(CallFact {
            at: i,
            line,
            name,
            shape,
            stmt_dropped,
        });
    }
}

/// Is the call at significant index `i` (callee name token) the last call
/// of a whole expression statement whose value is discarded — i.e. the
/// matching `)` is immediately followed by `;`, and walking the receiver
/// chain backwards lands on a statement boundary?
fn is_dropped_stmt(facts: &Facts, i: usize) -> bool {
    // Forward: the call's closing paren must be directly followed by `;`.
    let mut j = i + 1;
    let mut parens = 0i32;
    let n = facts.sig.len();
    while j < n {
        let t = facts.tok(j).expect("in range");
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
    if !facts.tok(j + 1).is_some_and(|t| t.is_punct(";")) {
        return false;
    }
    // Backward: hop over a `recv.`/`Qual::`/`a.b().` chain to the
    // statement start. Anything else (`=`, `return`, an operator…) means
    // the value is consumed.
    let mut k = i;
    loop {
        let Some(p) = facts.tok(k.wrapping_sub(1)) else {
            return true; // start of file
        };
        if p.is_punct(".") || p.is_punct("::") {
            // Skip the segment before the separator; a `)` closes a
            // chained call whose arguments we hop over wholesale.
            let Some(q) = facts.tok(k.wrapping_sub(2)) else {
                return false;
            };
            if q.kind == Kind::Ident || q.kind == Kind::Number {
                k -= 2;
            } else if q.is_punct(")") {
                let mut d = 0i32;
                let mut m = k - 2;
                loop {
                    let t = facts.tok(m).expect("in range");
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
                if m == 0 || !facts.tok(m - 1).is_some_and(|t| t.kind == Kind::Ident) {
                    return false;
                }
                k = m - 1;
            } else {
                return false;
            }
        } else {
            return p.is_punct(";") || p.is_punct("{") || p.is_punct("}");
        }
    }
}

/// Zero-argument `.write()` / `.read()` / `.lock()` sites with a lock
/// identity taken from the receiver token.
fn extract_acquires(facts: &mut Facts) {
    let n = facts.sig.len();
    for i in 0..n {
        let Some(t) = facts.tok(i) else { break };
        if !t.is_punct(".") {
            continue;
        }
        let Some(m) = facts.tok(i + 1) else { continue };
        if !(m.is_ident("write") || m.is_ident("read") || m.is_ident("lock"))
            || !facts.tok(i + 2).is_some_and(|u| u.is_punct("("))
            || !facts.tok(i + 3).is_some_and(|u| u.is_punct(")"))
        {
            continue;
        }
        let lock = match facts.tok(i.wrapping_sub(1)) {
            Some(r) if r.kind == Kind::Ident && r.text != "self" => r.text.clone(),
            Some(r) if r.kind == Kind::Number || r.is_ident("self") => "<self>".to_string(),
            _ => continue, // computed receiver: no stable identity
        };
        facts.acquires.push(AcquireFact {
            at: i + 1,
            line: m.line,
            lock,
            kind: m.text.clone(),
        });
    }
}

/// `let [mut] g = <init ending in .write()/.read()/.lock()>;` — like
/// [`extract_guards`] but for every acquire kind, carrying the lock
/// identity of the *last* acquire in the initialiser.
fn extract_lock_guards(facts: &mut Facts) {
    let n = facts.sig.len();
    for i in 0..n {
        if !facts.tok(i).is_some_and(|t| t.is_ident("let")) {
            continue;
        }
        let mut j = i + 1;
        if facts.tok(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name_tok) = facts.tok(j) else {
            continue;
        };
        if name_tok.kind != Kind::Ident {
            continue;
        }
        let name = name_tok.text.clone();
        let line = name_tok.line;
        if !facts.tok(j + 1).is_some_and(|t| t.is_punct("=")) {
            continue;
        }
        let mut k = j + 2;
        let mut hit: Option<(String, String)> = None;
        while k < n {
            let t = facts.tok(k).expect("in range");
            if t.is_punct(";") {
                break;
            }
            if t.is_punct(".")
                && facts.tok(k + 2).is_some_and(|u| u.is_punct("("))
                && facts.tok(k + 3).is_some_and(|u| u.is_punct(")"))
            {
                if let Some(m) = facts.tok(k + 1) {
                    if m.is_ident("write") || m.is_ident("read") || m.is_ident("lock") {
                        let lock = match facts.tok(k.wrapping_sub(1)) {
                            Some(r) if r.kind == Kind::Ident && r.text != "self" => r.text.clone(),
                            _ => "<self>".to_string(),
                        };
                        hit = Some((lock, m.text.clone()));
                    }
                }
            }
            k += 1;
        }
        let Some((lock, kind)) = hit else { continue };
        let stmt_end = k;
        let let_depth = facts.depth[i];
        let mut end = n;
        let mut m = stmt_end + 1;
        while m < n {
            let t = facts.tok(m).expect("in range");
            if t.is_punct("}") && facts.depth[m] < let_depth {
                end = m;
                break;
            }
            if t.is_ident("drop")
                && facts.tok(m + 1).is_some_and(|u| u.is_punct("("))
                && facts.tok(m + 2).is_some_and(|u| u.is_ident(&name))
            {
                end = m;
                break;
            }
            m += 1;
        }
        facts.lock_guards.push(LockGuard {
            name,
            line,
            lock,
            kind,
            start: stmt_end + 1,
            end,
        });
    }
}

/// `let _ = <init>;` statements whose initialiser contains a call.
fn extract_drop_lets(facts: &mut Facts) {
    let n = facts.sig.len();
    for i in 0..n {
        if !(facts.tok(i).is_some_and(|t| t.is_ident("let"))
            && facts.tok(i + 1).is_some_and(|t| t.is_ident("_"))
            && facts.tok(i + 2).is_some_and(|t| t.is_punct("=")))
        {
            continue;
        }
        let line = facts.tok(i).map(|t| t.line).unwrap_or(1);
        let mut callees = Vec::new();
        let mut j = i + 3;
        while j < n {
            let t = facts.tok(j).expect("in range");
            if t.is_punct(";") {
                break;
            }
            if t.kind == Kind::Ident
                && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
                && facts.tok(j + 1).is_some_and(|u| u.is_punct("("))
            {
                callees.push(t.text.clone());
            }
            j += 1;
        }
        if !callees.is_empty() {
            facts.drop_lets.push(DropLet { line, callees });
        }
    }
}

/// Name→type bindings: `name: [& mut]* Type` ascriptions (first
/// uppercase-initial type ident wins) and `let name = Type::…`
/// initialisers.
fn extract_bindings(facts: &mut Facts) {
    let n = facts.sig.len();
    for i in 0..n {
        let Some(t) = facts.tok(i) else { break };
        if t.kind != Kind::Ident || NON_INDEX_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let name = t.text.clone();
        if facts.tok(i + 1).is_some_and(|p| p.is_punct(":"))
            && !facts.tok(i + 2).is_some_and(|p| p.is_punct(":"))
        {
            let mut j = i + 2;
            while j < n && j < i + 6 {
                let u = facts.tok(j).expect("in range");
                if u.is_punct("&") || u.is_ident("mut") || u.kind == Kind::Lifetime {
                    j += 1;
                    continue;
                }
                if u.kind == Kind::Ident && u.text.starts_with(|c: char| c.is_ascii_uppercase()) {
                    facts.bindings.push((name.clone(), u.text.clone()));
                }
                break;
            }
        }
        let is_let = facts
            .tok(i.wrapping_sub(1))
            .is_some_and(|p| p.is_ident("let"))
            || (facts
                .tok(i.wrapping_sub(1))
                .is_some_and(|p| p.is_ident("mut"))
                && facts
                    .tok(i.wrapping_sub(2))
                    .is_some_and(|p| p.is_ident("let")));
        if is_let
            && facts.tok(i + 1).is_some_and(|p| p.is_punct("="))
            && facts.tok(i + 3).is_some_and(|p| p.is_punct("::"))
        {
            if let Some(ty) = facts.tok(i + 2) {
                if ty.kind == Kind::Ident && ty.text.starts_with(|c: char| c.is_ascii_uppercase()) {
                    facts.bindings.push((name, ty.text.clone()));
                }
            }
        }
    }
}

/// Two binding shapes make a name hash-ordered: an ascription whose type
/// mentions `HashMap`/`HashSet` (covers struct fields, params, and typed
/// lets), and an untyped `let` whose initialiser mentions them.
fn extract_hashy_names(facts: &mut Facts) {
    let n = facts.sig.len();
    for i in 0..n {
        let name = match facts.tok(i) {
            Some(t) if t.kind == Kind::Ident => t.text.clone(),
            Some(_) => continue,
            None => break,
        };
        if NON_INDEX_KEYWORDS.contains(&name.as_str()) {
            continue;
        }
        // `name : <type>` — scan the type to a depth-0 terminator.
        if facts.tok(i + 1).is_some_and(|p| p.is_punct(":")) {
            let mut j = i + 2;
            let mut angle = 0i32;
            let mut paren = 0i32;
            let mut hashy = false;
            while j < n {
                let u = facts.tok(j).expect("in range");
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
                j += 1;
            }
            if hashy {
                facts.hashy_names.insert(name.clone());
            }
        }
        // `let [mut] name = <init>;` with a hash-typed initialiser.
        let is_let = facts
            .tok(i.wrapping_sub(1))
            .is_some_and(|p| p.is_ident("let"))
            || (facts
                .tok(i.wrapping_sub(1))
                .is_some_and(|p| p.is_ident("mut"))
                && facts
                    .tok(i.wrapping_sub(2))
                    .is_some_and(|p| p.is_ident("let")));
        if is_let && facts.tok(i + 1).is_some_and(|p| p.is_punct("=")) {
            let mut j = i + 2;
            let mut hashy = false;
            while j < n {
                let u = facts.tok(j).expect("in range");
                if u.is_punct(";") {
                    break;
                }
                if u.is_ident("HashMap") || u.is_ident("HashSet") {
                    hashy = true;
                    break;
                }
                j += 1;
            }
            if hashy {
                facts.hashy_names.insert(name);
            }
        }
    }
}

/// `let [mut] g = <expr containing .write()>;` — the RwLock write-guard
/// idiom ([`PublishSlot::publish`] is the only workspace writer). The
/// guard is live to the end of its block or an explicit `drop(g)`.
fn extract_guards(facts: &mut Facts) {
    let n = facts.sig.len();
    for i in 0..n {
        if !facts.tok(i).is_some_and(|t| t.is_ident("let")) {
            continue;
        }
        let mut j = i + 1;
        if facts.tok(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name_tok) = facts.tok(j) else {
            continue;
        };
        if name_tok.kind != Kind::Ident {
            continue;
        }
        let name = name_tok.text.clone();
        let line = name_tok.line;
        if !facts.tok(j + 1).is_some_and(|t| t.is_punct("=")) {
            continue;
        }
        // Scan the initialiser to `;` looking for `.write()`.
        let mut k = j + 2;
        let mut is_guard = false;
        while k < n {
            let t = facts.tok(k).expect("in range");
            if t.is_punct(";") {
                break;
            }
            if t.is_punct(".")
                && facts.tok(k + 1).is_some_and(|u| u.is_ident("write"))
                && facts.tok(k + 2).is_some_and(|u| u.is_punct("("))
                && facts.tok(k + 3).is_some_and(|u| u.is_punct(")"))
            {
                is_guard = true;
            }
            k += 1;
        }
        if !is_guard {
            continue;
        }
        let stmt_end = k; // the `;`
        let let_depth = facts.depth[i];
        // Live until the enclosing block closes or `drop(name)`.
        let mut end = n;
        let mut m = stmt_end + 1;
        while m < n {
            let t = facts.tok(m).expect("in range");
            if t.is_punct("}") && facts.depth[m] < let_depth {
                end = m;
                break;
            }
            if t.is_ident("drop")
                && facts.tok(m + 1).is_some_and(|u| u.is_punct("("))
                && facts.tok(m + 2).is_some_and(|u| u.is_ident(&name))
            {
                end = m;
                break;
            }
            m += 1;
        }
        facts.guards.push(GuardFact {
            name,
            line,
            start: stmt_end + 1,
            end,
        });
    }
}

fn extract_loops_and_iter_calls(facts: &mut Facts) {
    let n = facts.sig.len();
    for i in 0..n {
        let (t_text, t_kind, t_line) = match facts.tok(i) {
            Some(t) => (t.text.clone(), t.kind, t.line),
            None => break,
        };
        // `for <pat> in <iterand> {` — `impl T for U` and `for<'a>` have
        // no depth-0 `in` before the `{`.
        if t_kind == Kind::Ident
            && t_text == "for"
            && !facts.tok(i + 1).is_some_and(|u| u.is_punct("<"))
        {
            let line = t_line;
            let mut j = i + 1;
            let mut nest = 0i32;
            let mut in_at = None;
            while j < n {
                let u = facts.tok(j).expect("in range");
                match u.text.as_str() {
                    "(" | "[" => nest += 1,
                    ")" | "]" => nest -= 1,
                    "{" if nest == 0 => break,
                    ";" if nest == 0 => break,
                    "in" if nest == 0 && u.kind == Kind::Ident => {
                        in_at = Some(j);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some(start) = in_at {
                let mut idents = Vec::new();
                let mut k = start + 1;
                let mut nest2 = 0i32;
                while k < n {
                    let u = facts.tok(k).expect("in range");
                    match u.text.as_str() {
                        "(" | "[" => nest2 += 1,
                        ")" | "]" => nest2 -= 1,
                        "{" if nest2 == 0 => break,
                        _ => {
                            if u.kind == Kind::Ident {
                                idents.push(u.text.clone());
                            }
                        }
                    }
                    k += 1;
                }
                facts.for_loops.push(ForLoop {
                    line,
                    at: i,
                    iterand_idents: idents,
                });
            }
        }
        // `recv.method(` with an iterator-producing method.
        if t_kind == Kind::Ident
            && facts.tok(i + 1).is_some_and(|u| u.is_punct("."))
            && facts.tok(i + 3).is_some_and(|u| u.is_punct("("))
        {
            let method = match facts.tok(i + 2) {
                Some(m) if m.kind == Kind::Ident && ITER_METHODS.contains(&m.text.as_str()) => {
                    Some((m.text.clone(), m.line))
                }
                _ => None,
            };
            if let Some((method, line)) = method {
                facts.iter_calls.push(IterCall {
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
        let f = extract("fn a(x: f64) -> f64 { x }\nfn b() {}\n");
        assert_eq!(f.fns.len(), 2);
        assert!(f.fns[0].mentions_f64);
        assert!(!f.fns[1].mentions_f64);
        assert!(f.fns[0].body.is_some());
    }

    #[test]
    fn cfg_test_mod_and_test_fn_spans() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() {}\n}\n#[test]\nfn tt() {}\n";
        let f = extract(src);
        assert_eq!(f.test_spans.len(), 2);
        assert!(!f.in_test(1));
        assert!(f.in_test(4));
        assert!(f.in_test(7));
    }

    #[test]
    fn cfg_not_test_is_live() {
        let f = extract("#[cfg(not(test))]\nfn live() {}\n");
        assert!(f.test_spans.is_empty());
    }

    #[test]
    fn allow_directives_parse() {
        let src = "// analyzer:allow(cost-purity): advisors go through the counted path\n\
                   fn a() {}\n\
                   // analyzer:allow(panic-freedom)\n\
                   fn b() {}\n";
        let f = extract(src);
        assert_eq!(f.allows.len(), 2);
        assert!(f.allows[0].has_reason);
        assert_eq!(f.allows[0].rule, "cost-purity");
        assert!(!f.allows[1].has_reason);
    }

    #[test]
    fn hashy_names_from_field_param_and_let() {
        let src = "struct S { m: HashMap<u32, f64> }\n\
                   fn f(n: &HashSet<u32>) { let q = HashMap::new(); let v = Vec::new(); }\n";
        let f = extract(src);
        assert!(f.hashy_names.contains("m"));
        assert!(f.hashy_names.contains("n"));
        assert!(f.hashy_names.contains("q"));
        assert!(!f.hashy_names.contains("v"));
    }

    #[test]
    fn guard_live_span_ends_at_block_or_drop() {
        let src = "fn f() {\n let g = slot.write();\n touch();\n}\n\
                   fn h() {\n let g = slot.write();\n drop(g);\n after();\n}\n";
        let f = extract(src);
        assert_eq!(f.guards.len(), 2);
        let touch_at = (0..f.sig.len())
            .find(|&i| f.tok(i).is_some_and(|t| t.is_ident("touch")))
            .unwrap();
        assert!(f.guards[0].start <= touch_at && touch_at < f.guards[0].end);
        let after_at = (0..f.sig.len())
            .find(|&i| f.tok(i).is_some_and(|t| t.is_ident("after")))
            .unwrap();
        assert!(after_at >= f.guards[1].end);
    }

    #[test]
    fn for_loops_vs_impl_for() {
        let src = "impl Display for Foo { fn f(&self) { for x in self.items.iter() {} } }\n";
        let f = extract(src);
        assert_eq!(f.for_loops.len(), 1);
        assert!(f.for_loops[0].iterand_idents.contains(&"items".to_string()));
        assert_eq!(f.iter_calls.len(), 1);
        assert_eq!(f.iter_calls[0].receiver, "items");
    }
}
