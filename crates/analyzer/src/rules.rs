//! The rule set: architectural invariants evaluated as queries over the
//! fact base — per-file direct rules plus interprocedural rules derived
//! from the workspace call graph.
//!
//! Every rule documents *why* the invariant is load-bearing for the
//! design described in the paper reproduction (see each rule fn's
//! rustdoc). Violations can be waived with
//! `// analyzer:allow(<rule>): <reason>` on the preceding line (or
//! trailing on the same line); the reason is mandatory — an allow without
//! one is itself a diagnostic. Allows have *chain semantics* for the
//! interprocedural rules: an allow anywhere inside a function waives that
//! function for chain purposes, so every call chain through it is
//! suppressed — and an allow that suppresses nothing at all is reported
//! as a warning-level `dead-allow` finding so the escape-hatch inventory
//! cannot rot.

use crate::facts::{Facts, NON_INDEX_KEYWORDS};
use crate::graph::Graph;
use crate::infer::{reach, Derived};
use crate::lexer::Kind;
use crate::summary::{FileSummary, NO_FN};
use std::collections::{BTreeMap, BTreeSet};

/// The rule names recognised by `analyzer:allow(...)`.
pub const RULE_NAMES: &[&str] = &[
    "cost-purity",
    "panic-freedom",
    "fp-determinism",
    "lock-discipline",
    "lock-order",
    "error-discipline",
];

/// Finding severity: errors gate the build, warnings only report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

/// One hop of an interprocedural diagnostic's call chain (the final hop
/// is the offending site itself, `func == "<site>"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLink {
    pub func: String,
    pub path: String,
    pub line: u32,
}

/// One finding, printed as `path:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub path: String,
    pub line: u32,
    pub rule: &'static str,
    pub msg: String,
    pub severity: Severity,
    /// Call chain for interprocedural findings; empty for direct sites.
    pub chain: Vec<ChainLink>,
}

impl Diagnostic {
    fn new(path: &str, line: u32, rule: &'static str, msg: String) -> Diagnostic {
        Diagnostic {
            path: path.to_string(),
            line,
            rule,
            msg,
            severity: Severity::Error,
            chain: Vec::new(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// Per-run scoping: which modules a rule covers or exempts. Paths are
/// workspace-relative with `/` separators; a trailing `/` means "prefix".
pub struct Config {
    /// Modules allowed to call the costing entry points directly: the
    /// matrix build internals, the colt probe path, and durable restore.
    /// These are also the *sanctioned boundary* of the transitive rule —
    /// reachability does not propagate out of them, because calling their
    /// public API (e.g. `CostMatrix::add_candidate`) is the metered,
    /// journaled way to cost.
    pub cost_purity_allowed: Vec<String>,
    /// Modules held to panic-freedom: the decode/replay surface that must
    /// turn corrupt bytes into `DecodeError`, never a panic.
    pub panic_freedom_scope: Vec<String>,
    /// Modules held to error-discipline: the durability/health paths
    /// where a dropped `Result` is a log with a hole.
    pub error_discipline_scope: Vec<String>,
    /// The workspace lock order, outermost first; each group names one
    /// lock (a receiver identity may have aliases, e.g. the store mutex
    /// seen as `store`, `disk`, or through `SharedMemStore::lock`).
    /// Acquiring a lock of an earlier group — or re-acquiring the same
    /// lock — while holding a later one is a `lock-order` violation.
    pub lock_order: Vec<Vec<String>>,
}

impl Config {
    /// The scoping for this workspace (the defaults `make lint-arch`
    /// runs with).
    pub fn workspace() -> Self {
        Config {
            cost_purity_allowed: vec![
                "crates/inum/src/".to_string(),
                "crates/colt/src/".to_string(),
                "crates/core/src/durable.rs".to_string(),
            ],
            panic_freedom_scope: vec![
                "crates/durability/src/".to_string(),
                "crates/inum/src/persist.rs".to_string(),
                "crates/query/src/parser.rs".to_string(),
            ],
            error_discipline_scope: vec![
                "crates/durability/src/".to_string(),
                "crates/core/src/durable.rs".to_string(),
                "crates/core/src/health.rs".to_string(),
                "crates/inum/src/persist.rs".to_string(),
            ],
            lock_order: vec![
                vec![
                    "store".to_string(),
                    "disk".to_string(),
                    "mem".to_string(),
                    "SharedMemStore".to_string(),
                ],
                vec!["cache".to_string()],
                vec!["current".to_string()],
            ],
        }
    }
}

fn path_matches(path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p.as_str()))
}

// ---- direct site extraction ---------------------------------------------

/// **cost-purity** sites — advisors, interactive sessions, and snapshot
/// readers must price candidates from cost-*matrix lookups*, never by
/// invoking the what-if optimizer themselves. The whole economics of the
/// design (PRs 2–5 pin "zero `Inum::cost` calls" in advisor steady state
/// with runtime counters) rests on costing being a build-time event
/// captured in the matrix; a stray `.inum()`/`Inum::cost` call on a read
/// path silently reintroduces per-question optimizer latency and breaks
/// the journaled-edit accounting that durability replays. Returns
/// `(sig index, line, message)` for every match outside test spans; path
/// scoping is the caller's business.
pub(crate) fn cost_sites(facts: &Facts) -> Vec<(usize, u32, String)> {
    let mut out = Vec::new();
    let n = facts.sig.len();
    for i in 0..n {
        let Some(t) = facts.tok(i) else { break };
        if facts.in_test(t.line) {
            continue;
        }
        let hit = if t.is_punct(".")
            && facts.tok(i + 1).is_some_and(|u| u.is_ident("inum"))
            && facts.tok(i + 2).is_some_and(|u| u.is_punct("("))
        {
            Some((
                facts.tokens[facts.sig[i]].line,
                ".inum() grants raw optimizer access",
            ))
        } else if t.is_ident("Inum")
            && facts.tok(i + 1).is_some_and(|u| u.is_punct("::"))
            && facts.tok(i + 2).is_some_and(|u| u.is_ident("cost"))
        {
            Some((t.line, "Inum::cost invokes the what-if optimizer"))
        } else if t.is_ident("inum")
            && facts.tok(i + 1).is_some_and(|u| u.is_punct("."))
            && facts.tok(i + 2).is_some_and(|u| u.is_ident("cost"))
            && facts.tok(i + 3).is_some_and(|u| u.is_punct("("))
        {
            Some((t.line, "direct cost() call on an Inum handle"))
        } else {
            None
        };
        if let Some((line, what)) = hit {
            out.push((
                i,
                line,
                format!(
                    "{what}; read paths must use cost-matrix lookups \
                     (allowed modules: matrix build, colt probe, durable restore)"
                ),
            ));
        }
    }
    out
}

/// **panic-freedom** sites — the decode/replay surface parses bytes that
/// crashed mid-write, bit-rotted on disk, or were produced by a different
/// build. The recovery ladder's contract (PR 7: "degrades gracefully,
/// never wrongly") requires every malformed input to surface as a
/// `DecodeError`/cold-start, because a panic during open takes down the
/// session *before* it can fall back to a cold build.
/// `unwrap`/`expect`/`panic!`/`unreachable!` and unchecked indexing are
/// all panics waiting on the first corrupt byte.
pub(crate) fn panic_sites(facts: &Facts) -> Vec<(usize, u32, String)> {
    let mut out = Vec::new();
    let n = facts.sig.len();
    for i in 0..n {
        let Some(t) = facts.tok(i) else { break };
        if facts.in_test(t.line) {
            continue;
        }
        if t.is_punct(".") && facts.tok(i + 2).is_some_and(|u| u.is_punct("(")) {
            if let Some(m) = facts.tok(i + 1) {
                if m.is_ident("unwrap") || m.is_ident("expect") {
                    out.push((
                        i,
                        m.line,
                        format!(
                            ".{}() panics on corrupt input; return a decode error instead",
                            m.text
                        ),
                    ));
                }
            }
        }
        if t.kind == Kind::Ident
            && facts.tok(i + 1).is_some_and(|u| u.is_punct("!"))
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
        {
            out.push((
                i,
                t.line,
                format!(
                    "{}! is unreachable only until the first corrupt snapshot",
                    t.text
                ),
            ));
        }
        if t.is_punct("[") {
            let prev = facts.tok(i.wrapping_sub(1));
            let is_index = prev.is_some_and(|p| {
                (p.kind == Kind::Ident && !NON_INDEX_KEYWORDS.contains(&p.text.as_str()))
                    || p.kind == Kind::Number
                    || p.is_punct("]")
                    || p.is_punct(")")
                    || p.is_punct("?")
            });
            if is_index {
                out.push((
                    i,
                    t.line,
                    "unchecked indexing panics out of range; use .get()/.get_mut() and map \
                     the None to a decode error"
                        .to_string(),
                ));
            }
        }
    }
    out
}

/// The purely file-local rules: fp-determinism and lock-discipline —
/// computed at extraction and carried in the fact module.
pub(crate) fn local_diags(facts: &Facts) -> Vec<(u32, &'static str, String)> {
    let mut out = Vec::new();
    fp_determinism(facts, &mut out);
    lock_discipline(facts, &mut out);
    out
}

/// **fp-determinism** — agreement proptests pin interactive-vs-offline
/// and restore-vs-rebuild totals to ≤1e-12, which only holds if f64
/// summation order is identical on every run. `HashMap`/`HashSet`
/// iteration order is randomised per-process (std `RandomState`), so any
/// f64 accumulation — or worse, MILP variable numbering — driven by hash
/// iteration makes results run-dependent. Cost-accumulating functions
/// must iterate `BTreeMap`/sorted vectors.
fn fp_determinism(facts: &Facts, out: &mut Vec<(u32, &'static str, String)>) {
    for f in &facts.fns {
        let Some((a, b)) = f.body else { continue };
        if !f.mentions_f64 || facts.in_test(f.line) {
            continue;
        }
        for l in &facts.for_loops {
            if l.at < a || l.at >= b || facts.in_test(l.line) {
                continue;
            }
            let hashy = l
                .iterand_idents
                .iter()
                .any(|id| id == "HashMap" || id == "HashSet" || facts.hashy_names.contains(id));
            if hashy {
                out.push((
                    l.line,
                    "fp-determinism",
                    format!(
                        "fn `{}` works with f64 costs but iterates a hash-ordered \
                         collection; summation order must be fixed — use BTreeMap or \
                         a sorted Vec",
                        f.name
                    ),
                ));
            }
        }
        for c in &facts.iter_calls {
            if c.at < a || c.at >= b || facts.in_test(c.line) {
                continue;
            }
            if facts.hashy_names.contains(&c.receiver) {
                out.push((
                    c.line,
                    "fp-determinism",
                    format!(
                        "fn `{}` works with f64 costs but `{}.{}()` yields hash order; \
                         use BTreeMap or a sorted Vec",
                        f.name, c.receiver, c.method
                    ),
                ));
            }
        }
    }
}

/// **lock-discipline** — `PublishSlot::publish` holds the slot's RwLock
/// write guard; every reader `refresh()` blocks on that guard. Costing
/// work (optimizer calls) or a nested `publish()` while the guard is
/// live turns a microsecond pointer swap into a reader-visible stall —
/// and a nested publish on the same slot self-deadlocks. Compute first,
/// then take the guard for the swap alone.
fn lock_discipline(facts: &Facts, out: &mut Vec<(u32, &'static str, String)>) {
    for g in &facts.guards {
        for i in g.start..g.end {
            let Some(t) = facts.tok(i) else { break };
            let hit = if t.is_ident("publish")
                && facts.tok(i + 1).is_some_and(|u| u.is_punct("("))
                && !facts
                    .tok(i.wrapping_sub(1))
                    .is_some_and(|u| u.is_ident("fn"))
            {
                Some("publish() while a write guard is live can self-deadlock")
            } else if t.is_punct(".")
                && facts.tok(i + 1).is_some_and(|u| u.is_ident("inum"))
                && facts.tok(i + 2).is_some_and(|u| u.is_punct("("))
            {
                Some("optimizer access while a write guard is live stalls every reader")
            } else if t.is_ident("Inum")
                && facts.tok(i + 1).is_some_and(|u| u.is_punct("::"))
                && facts.tok(i + 2).is_some_and(|u| u.is_ident("cost"))
            {
                Some("Inum::cost while a write guard is live stalls every reader")
            } else {
                None
            };
            if let Some(what) = hit {
                out.push((
                    t.line,
                    "lock-discipline",
                    format!("{what} (guard `{}` taken at line {})", g.name, g.line),
                ));
            }
        }
    }
}

// ---- per-file analysis ---------------------------------------------------

/// Direct (non-interprocedural) raw findings for one file summary, path
/// scoping applied, deduplicated by `(line, rule)`.
fn direct_raw(s: &FileSummary, cfg: &Config) -> Vec<(u32, &'static str, String)> {
    let mut raw: Vec<(u32, &'static str, String)> = Vec::new();
    if !path_matches(&s.path, &cfg.cost_purity_allowed) {
        for x in &s.cost_sites {
            raw.push((x.line, "cost-purity", x.msg.clone()));
        }
    }
    if path_matches(&s.path, &cfg.panic_freedom_scope) && !s.harness {
        for x in &s.panic_sites {
            raw.push((x.line, "panic-freedom", x.msg.clone()));
        }
    }
    raw.extend(s.local_diags.iter().cloned());
    raw.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    raw.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
    raw
}

/// Allow-syntax findings plus the file's valid allows (known rule, with
/// reason, resolved to a target line).
fn file_allows(s: &FileSummary, out: &mut Vec<Diagnostic>) -> Vec<(usize, bool)> {
    let mut valid = Vec::new();
    for (i, a) in s.allows.iter().enumerate() {
        if !RULE_NAMES.contains(&a.rule.as_str()) {
            out.push(Diagnostic::new(
                &s.path,
                a.line,
                "allow-syntax",
                format!(
                    "unknown rule `{}` in analyzer:allow (known: {})",
                    a.rule,
                    RULE_NAMES.join(", ")
                ),
            ));
            continue;
        }
        if !a.has_reason {
            out.push(Diagnostic::new(
                &s.path,
                a.line,
                "allow-syntax",
                format!(
                    "analyzer:allow({}) without a reason — write \
                     `// analyzer:allow({}): <why this site is sound>`",
                    a.rule, a.rule
                ),
            ));
            continue;
        }
        if a.target_line != 0 {
            valid.push((i, false));
        }
    }
    valid
}

/// Analyze one source file in isolation: direct rules only, line-exact
/// allows, no call-graph context (the single-file entry point the golden
/// fixtures and unit tests exercise; `make lint-arch` runs
/// [`analyze_summaries`] over the whole workspace instead).
pub fn analyze_source(path: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
    let s = crate::summary::summarize(path, src);
    let mut out: Vec<Diagnostic> = Vec::new();
    let valid = file_allows(&s, &mut out);
    let raw = direct_raw(&s, cfg);
    for (line, rule, msg) in raw {
        let waived = valid
            .iter()
            .any(|&(i, _)| s.allows[i].rule == rule && s.allows[i].target_line == line);
        if !waived {
            out.push(Diagnostic::new(path, line, rule, msg));
        }
    }
    out.sort_by_key(|d| d.line);
    out
}

// ---- interprocedural analysis -------------------------------------------

/// Fn/method names whose return value is a `Result` by std contract —
/// the error-discipline rule's knowledge of I/O surfaces the call graph
/// cannot see into.
const KNOWN_RESULT_FNS: &[&str] = &[
    "sync_all",
    "sync_data",
    "flush",
    "write_all",
    "read_exact",
    "set_len",
    "create_dir",
    "create_dir_all",
    "remove_file",
    "remove_dir_all",
    "rename",
    "persist",
    "checkpoint",
];

/// Fixpoint accounting for the stats line.
#[derive(Debug, Default, Clone, Copy)]
pub struct InferStats {
    /// Total semi-naive rounds across all derived relations.
    pub rounds: u32,
    /// Nodes in the workspace call graph.
    pub fns: usize,
    /// Resolved call edges.
    pub edges: usize,
}

/// A global allow record with usage tracking for dead-allow detection.
struct AllowRec {
    file: usize,
    rule: String,
    line: u32,
    target_line: u32,
    /// Graph node the allow covers (an allow anywhere inside a fn covers
    /// the fn for chain semantics).
    node: Option<u32>,
    used: bool,
}

/// Analyze the whole workspace from per-file fact modules: direct rules,
/// the derived transitive relations, and dead-allow accounting.
/// `summaries` must be sorted by path.
pub fn analyze_summaries(summaries: &[FileSummary], cfg: &Config) -> (Vec<Diagnostic>, InferStats) {
    let g = Graph::build(summaries);
    let mut out: Vec<Diagnostic> = Vec::new();

    // Allows, globally, with graph nodes attached.
    let mut allows: Vec<AllowRec> = Vec::new();
    for (fi, s) in summaries.iter().enumerate() {
        for (ai, _) in file_allows(s, &mut out) {
            let a = &s.allows[ai];
            allows.push(AllowRec {
                file: fi,
                rule: a.rule.clone(),
                line: a.line,
                target_line: a.target_line,
                node: g.node_of(fi as u32, a.fn_idx),
                used: false,
            });
        }
    }
    let covered = |allows: &[AllowRec], rule: &str, node: u32| -> Option<usize> {
        allows
            .iter()
            .position(|a| a.rule == rule && a.node == Some(node))
    };

    // Direct findings with line-exact allow application.
    for (fi, s) in summaries.iter().enumerate() {
        for (line, rule, msg) in direct_raw(s, cfg) {
            let waiver = allows
                .iter()
                .position(|a| a.file == fi && a.rule == rule && a.target_line == line);
            match waiver {
                Some(i) => allows[i].used = true,
                None => out.push(Diagnostic::new(&s.path, line, rule, msg)),
            }
        }
    }

    let mut stats = InferStats {
        rounds: 0,
        fns: g.nodes.len(),
        edges: g.edges.iter().map(|e| e.len()).sum(),
    };

    // Seeds and per-fn first-site tables for the two site relations.
    let site_table = |pick: fn(&FileSummary) -> &Vec<crate::summary::SiteSum>| {
        let mut first: BTreeMap<u32, u32> = BTreeMap::new();
        for (fi, s) in summaries.iter().enumerate() {
            for x in pick(s) {
                if let Some(node) = g.node_of(fi as u32, x.fn_idx) {
                    if g.nodes[node as usize].is_test {
                        continue;
                    }
                    first.entry(node).or_insert(x.line);
                }
            }
        }
        first
    };
    let cost_seed_sites = site_table(|s| &s.cost_sites);
    let panic_seed_sites = site_table(|s| &s.panic_sites);

    // reaches_cost: blocked at the sanctioned boundary (cost-allowed
    // modules), at tests, and at allow-covered fns (chain semantics).
    {
        let seeds: Vec<u32> = cost_seed_sites.keys().copied().collect();
        let mut blocked: BTreeSet<u32> = BTreeSet::new();
        for (id, n) in g.nodes.iter().enumerate() {
            if n.is_test || path_matches(&n.path, &cfg.cost_purity_allowed) {
                blocked.insert(id as u32);
            }
        }
        for a in &allows {
            if a.rule == "cost-purity" {
                if let Some(n) = a.node {
                    blocked.insert(n);
                }
            }
        }
        let derived = reach(&seeds, &blocked, &g.redges);
        stats.rounds += derived.rounds;
        // An allow that cuts a live chain is in use.
        for a in &mut allows {
            if a.rule == "cost-purity" && a.node.is_some_and(|n| derived.holds(n)) {
                a.used = true;
            }
        }
        for (&node, via) in &derived.facts {
            if via.is_none() {
                continue; // seeds carry their own direct diagnostics
            }
            let n = &g.nodes[node as usize];
            if n.is_test || path_matches(&n.path, &cfg.cost_purity_allowed) {
                continue;
            }
            if let Some(i) = covered(&allows, "cost-purity", node) {
                allows[i].used = true;
                continue;
            }
            let (chain, text) = render_chain(&g, &derived, node, &cost_seed_sites);
            let mut d = Diagnostic::new(
                &n.path,
                n.line,
                "cost-purity",
                format!(
                    "fn `{}` transitively reaches the optimizer ({text}); \
                     read paths must use cost-matrix lookups",
                    n.qualified()
                ),
            );
            d.chain = chain;
            out.push(d);
        }
    }

    // may_panic: seeds everywhere, flagged only on the decode/replay
    // surface — a scope fn that can reach a panic through any number of
    // helpers (in any crate) is a recovery hole.
    {
        let seeds: Vec<u32> = panic_seed_sites.keys().copied().collect();
        let mut blocked: BTreeSet<u32> = BTreeSet::new();
        for (id, n) in g.nodes.iter().enumerate() {
            if n.is_test {
                blocked.insert(id as u32);
            }
        }
        for a in &allows {
            if a.rule == "panic-freedom" {
                if let Some(n) = a.node {
                    blocked.insert(n);
                }
            }
        }
        let derived = reach(&seeds, &blocked, &g.redges);
        stats.rounds += derived.rounds;
        for a in &mut allows {
            if a.rule == "panic-freedom" && a.node.is_some_and(|n| derived.holds(n)) {
                a.used = true;
            }
        }
        for (&node, via) in &derived.facts {
            if via.is_none() {
                continue;
            }
            let n = &g.nodes[node as usize];
            let fi = n.file as usize;
            if n.is_test
                || summaries[fi].harness
                || !path_matches(&n.path, &cfg.panic_freedom_scope)
            {
                continue;
            }
            if let Some(i) = covered(&allows, "panic-freedom", node) {
                allows[i].used = true;
                continue;
            }
            let (chain, text) = render_chain(&g, &derived, node, &panic_seed_sites);
            let mut d = Diagnostic::new(
                &n.path,
                n.line,
                "panic-freedom",
                format!(
                    "fn `{}` can transitively reach a panic ({text}); \
                     the decode/replay surface must return decode errors instead",
                    n.qualified()
                ),
            );
            d.chain = chain;
            out.push(d);
        }
    }

    // holds_lock_then_acquires: a total order over the workspace's locks.
    lock_order_rule(summaries, cfg, &g, &mut allows, &mut stats, &mut out);

    // drops_result: `let _ = …;` / bare-statement drops on durability
    // paths.
    error_discipline_rule(summaries, cfg, &g, &mut allows, &mut out);

    // Dead allows: a reasoned, well-formed allow that suppressed nothing.
    for a in &allows {
        if !a.used {
            let mut d = Diagnostic::new(
                &summaries[a.file].path,
                a.line,
                "dead-allow",
                format!(
                    "analyzer:allow({}) no longer suppresses anything — remove it, \
                     or re-point it at the offending line",
                    a.rule
                ),
            );
            d.severity = Severity::Warning;
            out.push(d);
        }
    }

    out.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    (out, stats)
}

/// Render the witness chain from `head` to its seed's first site as both
/// structured links and display text.
fn render_chain(
    g: &Graph,
    derived: &Derived,
    head: u32,
    seed_sites: &BTreeMap<u32, u32>,
) -> (Vec<ChainLink>, String) {
    let mut links = Vec::new();
    let n = &g.nodes[head as usize];
    links.push(ChainLink {
        func: n.qualified(),
        path: n.path.clone(),
        line: n.line,
    });
    let hops = derived.chain(head);
    let mut last = head;
    for &(next, call_line) in &hops {
        let m = &g.nodes[next as usize];
        links.push(ChainLink {
            func: m.qualified(),
            path: g.nodes[last as usize].path.clone(),
            line: call_line,
        });
        last = next;
    }
    let seed = last;
    let site_line = seed_sites
        .get(&seed)
        .copied()
        .unwrap_or(g.nodes[seed as usize].line);
    links.push(ChainLink {
        func: "<site>".to_string(),
        path: g.nodes[seed as usize].path.clone(),
        line: site_line,
    });
    let text = links
        .iter()
        .map(|l| {
            if l.func == "<site>" {
                format!("site at {}:{}", l.path, l.line)
            } else {
                format!("{} [{}:{}]", l.func, l.path, l.line)
            }
        })
        .collect::<Vec<_>>()
        .join(" -> ");
    (links, format!("call chain: {text}"))
}

/// **lock-order** — the PR 6 reader/writer split holds because every
/// thread acquires the workspace's locks in one global order (store
/// mutex, then the Inum probe cache, then a snapshot slot's RwLock).
/// A function whose *derived* lock set acquires out of that order — even
/// through a chain of calls — can deadlock against the publish path.
fn lock_order_rule(
    summaries: &[FileSummary],
    cfg: &Config,
    g: &Graph,
    allows: &mut [AllowRec],
    stats: &mut InferStats,
    out: &mut Vec<Diagnostic>,
) {
    let rank = |lock: &str| -> Option<usize> {
        cfg.lock_order
            .iter()
            .position(|group| group.iter().any(|l| l == lock))
    };
    let order_text = cfg
        .lock_order
        .iter()
        .map(|group| group[0].clone())
        .collect::<Vec<_>>()
        .join(" then ");

    // Per-rank seeds and first-acquire sites.
    let nranks = cfg.lock_order.len();
    let mut seeds: Vec<Vec<u32>> = vec![Vec::new(); nranks];
    let mut sites: Vec<BTreeMap<u32, u32>> = vec![BTreeMap::new(); nranks];
    for (fi, s) in summaries.iter().enumerate() {
        for a in &s.acquires {
            let Some(r) = rank(&a.lock) else { continue };
            let Some(node) = g.node_of(fi as u32, a.fn_idx) else {
                continue;
            };
            if g.nodes[node as usize].is_test {
                continue;
            }
            seeds[r].push(node);
            sites[r].entry(node).or_insert(a.line);
        }
    }
    let mut blocked: BTreeSet<u32> = BTreeSet::new();
    for (id, n) in g.nodes.iter().enumerate() {
        if n.is_test {
            blocked.insert(id as u32);
        }
    }
    for a in allows.iter() {
        if a.rule == "lock-order" {
            if let Some(n) = a.node {
                blocked.insert(n);
            }
        }
    }
    let derived: Vec<Derived> = (0..nranks)
        .map(|r| {
            let d = reach(&seeds[r], &blocked, &g.redges);
            stats.rounds += d.rounds;
            d
        })
        .collect();
    for a in allows.iter_mut() {
        if a.rule == "lock-order" && a.node.is_some_and(|n| derived.iter().any(|d| d.holds(n))) {
            a.used = true;
        }
    }

    let mut seen: BTreeSet<(String, u32, String, String)> = BTreeSet::new();
    let mut push = |out: &mut Vec<Diagnostic>,
                    allows: &mut [AllowRec],
                    path: &str,
                    line: u32,
                    held: &str,
                    acq: &str,
                    node: u32,
                    chain: Option<(Vec<ChainLink>, String)>| {
        if !seen.insert((path.to_string(), line, held.to_string(), acq.to_string())) {
            return;
        }
        if let Some(i) = allows
            .iter()
            .position(|a| a.rule == "lock-order" && a.node == Some(node))
        {
            allows[i].used = true;
            return;
        }
        let same = held == acq || (rank(held) == rank(acq) && rank(held).is_some());
        let what = if same {
            format!("re-acquires `{acq}` while already holding it (self-deadlock)")
        } else {
            format!("acquires `{acq}` while holding `{held}`")
        };
        let detail = match &chain {
            Some((_, text)) => format!(" via {text}"),
            None => String::new(),
        };
        let mut d = Diagnostic::new(
            path,
            line,
            "lock-order",
            format!("{what}{detail}; the workspace lock order is {order_text}"),
        );
        if let Some((links, _)) = chain {
            d.chain = links;
        }
        out.push(d);
    };

    for (fi, s) in summaries.iter().enumerate() {
        // Direct out-of-order acquisition.
        for a in &s.acquires {
            let Some(node) = g.node_of(fi as u32, a.fn_idx) else {
                continue;
            };
            if g.nodes[node as usize].is_test || a.held.is_empty() {
                continue;
            }
            let Some(ra) = rank(&a.lock) else { continue };
            for held in &a.held {
                let Some(rh) = rank(held) else { continue };
                // Outer-rank (or same-lock re-entrant) acquisition while
                // a later-rank lock is held.
                if ra < rh || (ra == rh && *held == a.lock) {
                    push(out, allows, &s.path, a.line, held, &a.lock, node, None);
                }
            }
        }
        // A call made while holding a lock, into a fn whose derived lock
        // set acquires out of order.
        for c in &s.calls {
            if c.held.is_empty() {
                continue;
            }
            let Some(caller) = g.node_of(fi as u32, c.fn_idx) else {
                continue;
            };
            if g.nodes[caller as usize].is_test {
                continue;
            }
            let Some(&(callee, _)) = g.edges[caller as usize]
                .iter()
                .find(|&&(cal, line)| line == c.line && g.nodes[cal as usize].name == c.name)
                .or_else(|| {
                    g.edges[caller as usize]
                        .iter()
                        .find(|&&(cal, _)| g.nodes[cal as usize].name == c.name)
                })
            else {
                continue;
            };
            for held in &c.held {
                let Some(rh) = rank(held) else { continue };
                for (ra, d) in derived.iter().enumerate() {
                    if ra > rh || !d.holds(callee) {
                        continue;
                    }
                    let acq_name = &cfg.lock_order[ra][0];
                    if ra == rh && acq_name != held {
                        continue;
                    }
                    let (links, text) = render_chain(g, d, callee, &sites[ra]);
                    push(
                        out,
                        allows,
                        &s.path,
                        c.line,
                        held,
                        acq_name,
                        caller,
                        Some((links, text)),
                    );
                }
            }
        }
    }
}

/// **error-discipline** — PR 7/9's recovery contract is "never a log
/// with a hole": on the durability and health paths every fallible step
/// either succeeds or surfaces its error to the degradation ladder. A
/// `Result` silently discarded with `let _ = …` (or a bare expression
/// statement) is a write that can fail without anyone noticing until
/// replay.
fn error_discipline_rule(
    summaries: &[FileSummary],
    cfg: &Config,
    g: &Graph,
    allows: &mut [AllowRec],
    out: &mut Vec<Diagnostic>,
) {
    // A callee name is Result-returning if std says so or every
    // workspace fn of that name says so.
    let returns_result = |name: &str| -> bool {
        if KNOWN_RESULT_FNS.contains(&name) {
            return true;
        }
        let mut any = false;
        for n in g.by_name(name) {
            any = true;
            if !n.returns_result {
                return false;
            }
        }
        any
    };
    for (fi, s) in summaries.iter().enumerate() {
        if !path_matches(&s.path, &cfg.error_discipline_scope) {
            continue;
        }
        let is_test_fn = |fn_idx: u32| -> bool {
            fn_idx == NO_FN || s.fns.get(fn_idx as usize).is_none_or(|f| f.is_test)
        };
        let mut hits: Vec<(u32, String)> = Vec::new();
        for d in &s.drops {
            if is_test_fn(d.fn_idx) {
                continue;
            }
            if let Some(callee) = d.callees.iter().find(|c| returns_result(c)) {
                hits.push((
                    d.line,
                    format!(
                        "`let _ =` discards the `Result` of `{callee}()` — on the \
                         durability path every error feeds the degradation ladder \
                         (\"never a log with a hole\"); handle or propagate it"
                    ),
                ));
            }
        }
        for c in &s.calls {
            if !c.stmt_dropped || is_test_fn(c.fn_idx) {
                continue;
            }
            let typed = g.node_of(fi as u32, c.fn_idx).and_then(|caller| {
                g.edges[caller as usize]
                    .iter()
                    .find(|&&(callee, line)| {
                        line == c.line && g.nodes[callee as usize].name == c.name
                    })
                    .map(|&(callee, _)| g.nodes[callee as usize].returns_result)
            });
            let drops_result = match typed {
                Some(flag) => flag,
                None => KNOWN_RESULT_FNS.contains(&c.name.as_str()),
            };
            if drops_result {
                hits.push((
                    c.line,
                    format!(
                        "the `Result` of `{}()` is dropped by this statement — \
                         handle or propagate it (\"never a log with a hole\")",
                        c.name
                    ),
                ));
            }
        }
        hits.sort();
        hits.dedup();
        for (line, msg) in hits {
            if let Some(i) = allows
                .iter()
                .position(|a| a.file == fi && a.rule == "error-discipline" && a.target_line == line)
            {
                allows[i].used = true;
                continue;
            }
            out.push(Diagnostic::new(&s.path, line, "error-discipline", msg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        analyze_source(path, src, &Config::workspace())
    }

    fn run_workspace(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let mut sums: Vec<FileSummary> = files
            .iter()
            .map(|(p, s)| crate::summary::summarize(p, s))
            .collect();
        sums.sort_by(|a, b| a.path.cmp(&b.path));
        analyze_summaries(&sums, &Config::workspace()).0
    }

    #[test]
    fn cost_purity_flags_and_allows() {
        let src = "fn advisor(m: &M) -> f64 { m.inum().cost(&q) }\n";
        let d = run("crates/cophy/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "cost-purity");
        assert_eq!(d[0].line, 1);
        // Same site inside an allowed module: clean.
        assert!(run("crates/inum/src/x.rs", src).is_empty());
        // Same site with a reasoned allow: clean.
        let allowed = "// analyzer:allow(cost-purity): counted probe path\n\
                       fn advisor(m: &M) -> f64 { m.inum().cost(&q) }\n";
        assert!(run("crates/cophy/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_diagnostic() {
        let src = "// analyzer:allow(cost-purity)\n\
                   fn advisor(m: &M) -> f64 { m.inum().cost(&q) }\n";
        let d = run("crates/cophy/src/x.rs", src);
        assert!(d.iter().any(|d| d.rule == "allow-syntax"));
        // The bare allow does not waive the violation either.
        assert!(d.iter().any(|d| d.rule == "cost-purity"));
    }

    #[test]
    fn panic_freedom_scope_and_test_skip() {
        let src = "fn decode(b: &[u8]) -> u32 { b[0] as u32 }\n\
                   #[cfg(test)]\nmod tests { fn t(b: &[u8]) { b[0]; b.get(1).unwrap(); } }\n";
        let d = run("crates/durability/src/codec.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "panic-freedom");
        assert_eq!(d[0].line, 1);
        // Out of scope: clean.
        assert!(run("crates/cophy/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_freedom_ignores_types_attrs_and_macros() {
        let src = "#[derive(Debug)]\nstruct S { a: [u8; 4] }\n\
                   fn f() -> Vec<u8> { vec![1, 2] }\n\
                   fn g(x: &mut [u8]) -> &[u8] { x }\n";
        assert!(run("crates/durability/src/x.rs", src).is_empty());
    }

    #[test]
    fn fp_determinism_flags_hash_iteration_in_f64_fns() {
        let src = "fn total(m: &HashMap<u32, f64>) -> f64 {\n\
                     let mut s = 0.0f64;\n\
                     for (_, v) in m.iter() { s += v; }\n\
                     s\n\
                   }\n\
                   fn count(m: &HashMap<u32, u32>) -> usize { m.len() }\n";
        let d = run("crates/cophy/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "fp-determinism");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn fp_determinism_accepts_btreemap() {
        let src = "fn total(m: &BTreeMap<u32, f64>) -> f64 {\n\
                     let mut s = 0.0f64;\n\
                     for (_, v) in m.iter() { s += v; }\n\
                     s\n\
                   }\n";
        assert!(run("crates/cophy/src/x.rs", src).is_empty());
    }

    #[test]
    fn lock_discipline_flags_costing_under_guard() {
        let src = "fn publish_new(&self) {\n\
                     let mut cur = self.current.write();\n\
                     let c = self.matrix.inum().cost(&q);\n\
                     *cur = c;\n\
                   }\n";
        let d = run("crates/inum/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "lock-discipline");
        assert_eq!(d[0].line, 3);
        let good = "fn publish_new(&self) {\n\
                      let c = self.matrix.inum().cost(&q);\n\
                      let mut cur = self.current.write();\n\
                      *cur = c;\n\
                    }\n";
        assert!(run("crates/inum/src/x.rs", good).is_empty());
    }

    #[test]
    fn transitive_cost_purity_flags_the_caller_with_a_chain() {
        let d = run_workspace(&[
            (
                "crates/cophy/src/advisor.rs",
                "pub fn pick(h: &Probe) -> f64 {\n    refine(h)\n}\n\
                 fn refine(h: &Probe) -> f64 {\n    h.raw_cost()\n}\n",
            ),
            (
                "crates/core/src/probe.rs",
                "pub struct Probe;\nimpl Probe {\n    pub fn raw_cost(&self) -> f64 {\n        self.inum().cost(&q)\n    }\n}\n",
            ),
        ]);
        // raw_cost has the direct site; pick and refine are flagged
        // transitively with chains ending at it.
        assert!(d.iter().any(|x| x.rule == "cost-purity"
            && x.path.ends_with("probe.rs")
            && x.chain.is_empty()));
        let pick = d
            .iter()
            .find(|x| x.msg.contains("`pick`"))
            .expect("pick flagged");
        assert_eq!(pick.rule, "cost-purity");
        assert!(pick.chain.len() >= 3, "chain: {:?}", pick.chain);
        assert!(pick.msg.contains("call chain"));
    }

    #[test]
    fn allow_on_an_intermediate_fn_suppresses_the_chain() {
        let d = run_workspace(&[
            (
                "crates/cophy/src/advisor.rs",
                "pub fn pick(h: &Probe) -> f64 {\n    refine(h)\n}\n\
                 // analyzer:allow(cost-purity): counted probe path, metered upstream\n\
                 fn refine(h: &Probe) -> f64 {\n    h.raw_cost()\n}\n",
            ),
            (
                "crates/core/src/probe.rs",
                "pub struct Probe;\nimpl Probe {\n    pub fn raw_cost(&self) -> f64 {\n        self.inum().cost(&q)\n    }\n}\n",
            ),
        ]);
        // The direct site is still an error; the allow on the chain's
        // intermediate fn suppresses everything above the site — neither
        // `refine` (covered) nor `pick` (chain cut) is flagged.
        assert_eq!(
            d.iter().filter(|x| x.rule == "cost-purity").count(),
            1,
            "{d:?}"
        );
        assert!(d
            .iter()
            .all(|x| !x.msg.contains("`pick`") && !x.msg.contains("`refine`")));
        // And the allow is live — no dead-allow warning.
        assert!(!d.iter().any(|x| x.rule == "dead-allow"), "{d:?}");
    }

    #[test]
    fn allow_on_the_seed_statement_blocks_all_propagation() {
        let d = run_workspace(&[
            (
                "crates/cophy/src/advisor.rs",
                "pub fn pick(h: &Probe) -> f64 {\n    h.raw_cost()\n}\n",
            ),
            (
                "crates/core/src/probe.rs",
                "pub struct Probe;\n\
                 impl Probe {\n\
                     pub fn raw_cost(&self) -> f64 {\n\
                         // analyzer:allow(cost-purity): the probe is the sanctioned entry\n\
                         self.inum().cost(&q)\n    }\n}\n",
            ),
        ]);
        assert!(
            !d.iter().any(|x| x.rule == "cost-purity"),
            "statement allow waives the site and cuts every chain: {d:?}"
        );
        assert!(!d.iter().any(|x| x.rule == "dead-allow"), "{d:?}");
    }

    #[test]
    fn lock_order_direct_and_transitive() {
        let d = run_workspace(&[(
            "crates/inum/src/slot.rs",
            "impl Slot {\n\
                 fn bad(&self) {\n\
                     let g = self.current.write();\n\
                     self.cache.write().clear();\n\
                 }\n\
                 fn indirect(&self) {\n\
                     let g = self.current.write();\n\
                     self.touch_cache();\n\
                 }\n\
                 fn touch_cache(&self) {\n\
                     self.cache.write().clear();\n\
                 }\n\
             }\n",
        )]);
        let direct = d
            .iter()
            .find(|x| x.rule == "lock-order" && x.line == 4)
            .expect("direct violation");
        assert!(direct.msg.contains("`cache`") && direct.msg.contains("`current`"));
        let transitive = d
            .iter()
            .find(|x| x.rule == "lock-order" && x.line == 8)
            .expect("transitive violation");
        assert!(transitive.msg.contains("call chain"));
    }

    #[test]
    fn error_discipline_flags_dropped_results_in_scope() {
        let d = run_workspace(&[(
            "crates/durability/src/store.rs",
            "fn sync_dir(d: &Dir) {\n    let _ = d.sync_all();\n}\n\
             fn fine(d: &Dir) -> io::Result<()> {\n    d.sync_all()\n}\n",
        )]);
        assert_eq!(d.iter().filter(|x| x.rule == "error-discipline").count(), 1);
        assert_eq!(d[0].line, 2);
        // Out of scope: clean.
        let d2 = run_workspace(&[(
            "crates/cophy/src/x.rs",
            "fn f(d: &Dir) {\n    let _ = d.sync_all();\n}\n",
        )]);
        assert!(d2.iter().all(|x| x.rule != "error-discipline"));
    }

    #[test]
    fn dead_allow_is_a_warning() {
        let d = run_workspace(&[(
            "crates/cophy/src/x.rs",
            "// analyzer:allow(cost-purity): nothing here costs any more\nfn f() {}\n",
        )]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "dead-allow");
        assert_eq!(d[0].severity, Severity::Warning);
    }
}
