//! The rule set: architectural invariants evaluated as queries over the
//! fact base — direct rules over each file's sites plus interprocedural
//! rules derived from the workspace call graph. There is one pipeline:
//! a single file is analyzed as a one-file workspace.
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

use crate::facts::{extract, FileFacts, Scan, SiteFact, NON_INDEX_KEYWORDS};
use crate::graph::{FnNode, Graph};
use crate::infer::{reach, Derived};
use crate::lexer::Kind;
use std::collections::{BTreeMap, BTreeSet};

/// The rule names recognised by `analyzer:allow(...)`.
pub const RULE_NAMES: &[&str] = &[
    "cost-purity",
    "panic-freedom",
    "fp-determinism",
    "lock-order",
    "error-discipline",
    "clock-purity",
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
    /// Modules allowed to read the wall clock: the production
    /// `SystemClock`, the CLI binaries, and the analyzer's own timing
    /// line.
    pub clock_purity_allowed: Vec<String>,
}

impl Config {
    /// The scoping for this workspace (the defaults `make lint-arch`
    /// runs with).
    pub fn workspace() -> Self {
        let paths = |ps: &[&str]| ps.iter().map(|p| p.to_string()).collect::<Vec<_>>();
        Config {
            cost_purity_allowed: paths(&[
                "crates/inum/src/",
                "crates/colt/src/",
                "crates/core/src/durable.rs",
            ]),
            panic_freedom_scope: paths(&[
                "crates/durability/src/",
                "crates/inum/src/persist.rs",
                "crates/query/src/parser.rs",
            ]),
            error_discipline_scope: paths(&[
                "crates/durability/src/",
                "crates/core/src/durable.rs",
                "crates/core/src/health.rs",
                "crates/inum/src/persist.rs",
            ]),
            lock_order: vec![
                paths(&["store", "disk", "mem", "SharedMemStore"]),
                paths(&["cache"]),
                paths(&["current"]),
            ],
            clock_purity_allowed: paths(&[
                "crates/inum/src/budget.rs",
                "crates/core/src/bin/",
                "crates/analyzer/src/",
            ]),
        }
    }
}

fn path_matches(path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p.as_str()))
}

// ---- direct sites ----------------------------------------------------------

/// Every direct rule site of one file, outside test spans unless the rule
/// says otherwise; path scoping is [`analyze_files`]' business.
pub(crate) fn scan_sites(s: &Scan) -> Vec<SiteFact> {
    let mut out = Vec::new();
    cost_sites(s, &mut out);
    panic_sites(s, &mut out);
    fp_determinism(s, &mut out);
    write_guard_sites(s, &mut out);
    clock_sites(s, &mut out);
    out
}

fn site(s: &Scan, at: usize, line: u32, rule: &'static str, msg: String) -> SiteFact {
    SiteFact {
        fn_idx: s.fn_at(at),
        line,
        rule,
        msg,
    }
}

/// Do the significant tokens from `i` on spell `pat`, one identifier or
/// punctuation token per entry?
fn spells(s: &Scan, i: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(k, p)| {
        s.tok(i + k).is_some_and(|t| {
            let ident = p.starts_with(|c: char| c.is_alphabetic());
            t.text == *p && t.kind == if ident { Kind::Ident } else { Kind::Punct }
        })
    })
}

/// **cost-purity** sites — advisors, interactive sessions, and snapshot
/// readers must price candidates from cost-*matrix lookups*, never by
/// invoking the what-if optimizer themselves. The whole economics of the
/// design (PRs 2–5 pin "zero `Inum::cost` calls" in advisor steady state
/// with runtime counters) rests on costing being a build-time event
/// captured in the matrix; a stray `.inum()`/`Inum::cost` call on a read
/// path silently reintroduces per-question optimizer latency and breaks
/// the journaled-edit accounting that durability replays.
fn cost_sites(s: &Scan, out: &mut Vec<SiteFact>) {
    for i in 0..s.sig.len() {
        let Some(t) = s.tok(i) else { break };
        if s.in_test(t.line) {
            continue;
        }
        let what = if spells(s, i, &[".", "inum", "("]) {
            ".inum() grants raw optimizer access"
        } else if spells(s, i, &["Inum", "::", "cost"]) {
            "Inum::cost invokes the what-if optimizer"
        } else if spells(s, i, &["inum", ".", "cost", "("]) {
            "direct cost() call on an Inum handle"
        } else {
            continue;
        };
        let msg = format!(
            "{what}; read paths must use cost-matrix lookups \
             (allowed modules: matrix build, colt probe, durable restore)"
        );
        out.push(site(s, i, t.line, "cost-purity", msg));
    }
}

/// **panic-freedom** sites — the decode/replay surface parses bytes that
/// crashed mid-write, bit-rotted on disk, or were produced by a different
/// build. The recovery ladder's contract (PR 7: "degrades gracefully,
/// never wrongly") requires every malformed input to surface as a
/// `DecodeError`/cold-start, because a panic during open takes down the
/// session *before* it can fall back to a cold build.
/// `unwrap`/`expect`/`panic!`/`unreachable!` and unchecked indexing are
/// all panics waiting on the first corrupt byte.
fn panic_sites(s: &Scan, out: &mut Vec<SiteFact>) {
    for i in 0..s.sig.len() {
        let Some(t) = s.tok(i) else { break };
        if s.in_test(t.line) {
            continue;
        }
        if let Some(m) = s.tok(i + 1).filter(|m| {
            (m.is_ident("unwrap") || m.is_ident("expect"))
                && t.is_punct(".")
                && spells(s, i + 2, &["("])
        }) {
            let msg = format!(
                ".{}() panics on corrupt input; return a decode error instead",
                m.text
            );
            out.push(site(s, i, m.line, "panic-freedom", msg));
        }
        if t.kind == Kind::Ident
            && spells(s, i + 1, &["!"])
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
        {
            let msg = format!(
                "{}! is unreachable only until the first corrupt snapshot",
                t.text
            );
            out.push(site(s, i, t.line, "panic-freedom", msg));
        }
        let is_index = t.is_punct("[")
            && s.tok(i.wrapping_sub(1)).is_some_and(|p| {
                (p.kind == Kind::Ident && !NON_INDEX_KEYWORDS.contains(&p.text.as_str()))
                    || p.kind == Kind::Number
                    || p.is_punct("]")
                    || p.is_punct(")")
                    || p.is_punct("?")
            });
        if is_index {
            let msg = "unchecked indexing panics out of range; use .get()/.get_mut() and map \
                       the None to a decode error";
            out.push(site(s, i, t.line, "panic-freedom", msg.to_string()));
        }
    }
}

/// **fp-determinism** — agreement proptests pin interactive-vs-offline
/// and restore-vs-rebuild totals to ≤1e-12, which only holds if f64
/// summation order is identical on every run. `HashMap`/`HashSet`
/// iteration order is randomised per-process (std `RandomState`), so any
/// f64 accumulation — or worse, MILP variable numbering — driven by hash
/// iteration makes results run-dependent. Cost-accumulating functions
/// must iterate `BTreeMap`/sorted vectors.
fn fp_determinism(s: &Scan, out: &mut Vec<SiteFact>) {
    for f in &s.fns {
        let Some((a, b)) = f.body else { continue };
        if !f.mentions_f64 || s.in_test(f.line) {
            continue;
        }
        for l in &s.for_loops {
            if l.at < a || l.at >= b || s.in_test(l.line) {
                continue;
            }
            let hashy = l
                .iterand_idents
                .iter()
                .any(|id| id == "HashMap" || id == "HashSet" || s.hashy_names.contains(id));
            if hashy {
                let msg = format!(
                    "fn `{}` works with f64 costs but iterates a hash-ordered \
                     collection; summation order must be fixed — use BTreeMap or \
                     a sorted Vec",
                    f.name
                );
                out.push(site(s, l.at, l.line, "fp-determinism", msg));
            }
        }
        for c in &s.iter_calls {
            if c.at < a || c.at >= b || s.in_test(c.line) {
                continue;
            }
            if s.hashy_names.contains(&c.receiver) {
                let msg = format!(
                    "fn `{}` works with f64 costs but `{}.{}()` yields hash order; \
                     use BTreeMap or a sorted Vec",
                    f.name, c.receiver, c.method
                );
                out.push(site(s, c.at, c.line, "fp-determinism", msg));
            }
        }
    }
}

/// **lock-order**, write-guard sites — `PublishSlot::publish` holds the
/// slot's RwLock write guard; every reader `refresh()` blocks on that
/// guard. Costing work (optimizer calls) or a nested `publish()` while a
/// write guard is live turns a microsecond pointer swap into a
/// reader-visible stall — and a nested publish on the same slot
/// self-deadlocks. Compute first, then take the guard for the swap alone.
fn write_guard_sites(s: &Scan, out: &mut Vec<SiteFact>) {
    for g in s.lock_guards.iter().filter(|g| g.kind == "write") {
        for i in g.start..g.end {
            let Some(t) = s.tok(i) else { break };
            let what = if spells(s, i, &["publish", "("]) && !spells(s, i.wrapping_sub(1), &["fn"])
            {
                "publish() while a write guard is live can self-deadlock"
            } else if spells(s, i, &[".", "inum", "("]) {
                "optimizer access while a write guard is live stalls every reader"
            } else if spells(s, i, &["Inum", "::", "cost"]) {
                "Inum::cost while a write guard is live stalls every reader"
            } else {
                continue;
            };
            let msg = format!("{what} (guard `{}` taken at line {})", g.name, g.line);
            out.push(site(s, i, t.line, "lock-order", msg));
        }
    }
}

/// **clock-purity** — a recommendation is a deterministic function of
/// (catalog, workload, budget, seed), never of machine speed. Time enters
/// the designer through the injectable `Clock` trait (`SystemClock` in
/// `inum/src/budget.rs` is the one production reader), so deadlines are
/// driven by hand in tests; an `Instant::now()`/`SystemTime::now()`
/// anywhere else is a wall-clock read a decision can quietly come to
/// depend on.
fn clock_sites(s: &Scan, out: &mut Vec<SiteFact>) {
    for i in 0..s.sig.len() {
        let Some(t) = s.tok(i) else { break };
        if (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && spells(s, i + 1, &["::", "now"])
            && !s.in_test(t.line)
        {
            let msg = format!(
                "{}::now() reads the wall clock; take time through the `Clock` trait \
                 so no decision depends on machine speed (allowed modules: SystemClock, \
                 CLI binaries)",
                t.text
            );
            out.push(site(s, i, t.line, "clock-purity", msg));
        }
    }
}

// ---- the workspace pipeline -------------------------------------------------

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

/// A valid allow (known rule, with a reason, resolved to a target line)
/// with usage tracking for dead-allow detection.
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

/// Mark the first `rule` allow that `covers` a finding as used; whether
/// there was one.
fn waive(allows: &mut [AllowRec], rule: &str, covers: impl Fn(&AllowRec) -> bool) -> bool {
    let hit = allows.iter_mut().find(|a| a.rule == rule && covers(a));
    hit.map(|a| a.used = true).is_some()
}

/// Node → line of its first site, over the live (non-test) fns among
/// `(file, fn index, line)` sites.
fn seed_table(g: &Graph, sites: impl Iterator<Item = (usize, u32, u32)>) -> BTreeMap<u32, u32> {
    let mut first = BTreeMap::new();
    for (fi, fn_idx, line) in sites {
        if let Some(node) = g.live_node(fi, fn_idx) {
            first.entry(node).or_insert(line);
        }
    }
    first
}

/// Analyze one source file in isolation: the workspace pipeline over a
/// one-file workspace (the entry point the golden fixtures and unit tests
/// exercise; `make lint-arch` runs [`analyze_files`] over every file).
pub fn analyze_source(path: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
    analyze_files(&[extract(path, src)], cfg).0
}

/// Analyze the workspace from per-file fact modules: allow syntax, direct
/// rules, the derived transitive relations, and dead-allow accounting.
/// `files` must be sorted by path.
pub fn analyze_files(files: &[FileFacts], cfg: &Config) -> (Vec<Diagnostic>, InferStats) {
    let g = Graph::build(files);
    let stats = InferStats {
        rounds: 0,
        fns: g.nodes.len(),
        edges: g.edges.iter().map(Vec::len).sum(),
    };
    let mut e = Eval {
        files,
        cfg,
        g,
        allows: Vec::new(),
        stats,
        out: Vec::new(),
    };
    e.collect_allows();
    e.direct();
    // reaches_cost: blocked at the sanctioned boundary (cost-allowed
    // modules), which is never flagged either.
    let cost_allowed = |n: &FnNode| path_matches(&n.path, &cfg.cost_purity_allowed);
    e.transitive(
        "cost-purity",
        cost_allowed,
        |n| !cost_allowed(n),
        "transitively reaches the optimizer",
        "read paths must use cost-matrix lookups",
    );
    // may_panic: seeds everywhere, flagged only on the decode/replay
    // surface — a scope fn that can reach a panic through any number of
    // helpers (in any crate) is a recovery hole.
    e.transitive(
        "panic-freedom",
        |_| false,
        |n| !files[n.file as usize].harness && path_matches(&n.path, &cfg.panic_freedom_scope),
        "can transitively reach a panic",
        "the decode/replay surface must return decode errors instead",
    );
    e.lock_order();

    // Dead allows: a reasoned, well-formed allow that suppressed nothing.
    for a in e.allows.iter().filter(|a| !a.used) {
        let mut d = Diagnostic::new(
            &files[a.file].path,
            a.line,
            "dead-allow",
            format!(
                "analyzer:allow({}) no longer suppresses anything — remove it, \
                 or re-point it at the offending line",
                a.rule
            ),
        );
        d.severity = Severity::Warning;
        e.out.push(d);
    }
    let mut out = e.out;
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    (out, e.stats)
}

/// One workspace evaluation: the call graph, the valid allows and their
/// usage, and the findings so far.
struct Eval<'a> {
    files: &'a [FileFacts],
    cfg: &'a Config,
    g: Graph,
    allows: Vec<AllowRec>,
    stats: InferStats,
    out: Vec<Diagnostic>,
}

impl Eval<'_> {
    /// Allow-syntax findings, and the valid allows with their graph nodes.
    fn collect_allows(&mut self) {
        for (fi, f) in self.files.iter().enumerate() {
            for a in &f.allows {
                let bad = if !RULE_NAMES.contains(&a.rule.as_str()) {
                    Some(format!(
                        "unknown rule `{}` in analyzer:allow (known: {})",
                        a.rule,
                        RULE_NAMES.join(", ")
                    ))
                } else if !a.has_reason {
                    Some(format!(
                        "analyzer:allow({}) without a reason — write \
                         `// analyzer:allow({}): <why this site is sound>`",
                        a.rule, a.rule
                    ))
                } else {
                    None
                };
                match bad {
                    Some(msg) => {
                        self.out
                            .push(Diagnostic::new(&f.path, a.line, "allow-syntax", msg))
                    }
                    None if a.target_line != 0 => self.allows.push(AllowRec {
                        file: fi,
                        rule: a.rule.clone(),
                        line: a.line,
                        target_line: a.target_line,
                        node: self.g.node_of(fi as u32, a.fn_idx),
                        used: false,
                    }),
                    None => {}
                }
            }
        }
    }

    /// Direct findings — each file's sites in their rule's scope, plus
    /// dropped results on durability paths — with line-exact allows.
    fn direct(&mut self) {
        let (files, cfg) = (self.files, self.cfg);
        for (fi, f) in files.iter().enumerate() {
            let in_scope = |rule: &str| match rule {
                "cost-purity" => !path_matches(&f.path, &cfg.cost_purity_allowed),
                "panic-freedom" => path_matches(&f.path, &cfg.panic_freedom_scope) && !f.harness,
                "clock-purity" => !path_matches(&f.path, &cfg.clock_purity_allowed),
                _ => true,
            };
            let mut raw: Vec<(u32, &'static str, String)> = f
                .sites
                .iter()
                .filter(|x| in_scope(x.rule))
                .map(|x| (x.line, x.rule, x.msg.clone()))
                .collect();
            raw.sort_by_key(|x| (x.0, x.1));
            raw.dedup_by(|a, b| (a.0, a.1) == (b.0, b.1));
            if path_matches(&f.path, &cfg.error_discipline_scope) {
                let dropped = self.dropped_results(fi).into_iter();
                raw.extend(dropped.map(|(line, msg)| (line, "error-discipline", msg)));
            }
            for (line, rule, msg) in raw {
                if !waive(&mut self.allows, rule, |a| {
                    a.file == fi && a.target_line == line
                }) {
                    self.out.push(Diagnostic::new(&f.path, line, rule, msg));
                }
            }
        }
    }

    /// **error-discipline** — PR 7/9's recovery contract is "never a log
    /// with a hole": on the durability and health paths every fallible
    /// step either succeeds or surfaces its error to the degradation
    /// ladder. A `Result` silently discarded with `let _ = …` (or a bare
    /// expression statement) is a write that can fail without anyone
    /// noticing until replay.
    fn dropped_results(&self, fi: usize) -> Vec<(u32, String)> {
        let (g, f) = (&self.g, &self.files[fi]);
        // A callee name is Result-returning if std says so or every
        // workspace fn of that name says so.
        let returns_result = |name: &str| {
            let mut same_name = g.nodes.iter().filter(|n| n.name == name).peekable();
            KNOWN_RESULT_FNS.contains(&name)
                || (same_name.peek().is_some() && same_name.all(|n| n.returns_result))
        };
        let mut hits: Vec<(u32, String)> = Vec::new();
        for d in &f.drops {
            if g.live_node(fi, d.fn_idx).is_none() {
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
        for c in f.calls.iter().filter(|c| c.stmt_dropped) {
            let Some(caller) = g.live_node(fi, c.fn_idx) else {
                continue;
            };
            let drops_result = match g.callee_at(caller, c.line, &c.name) {
                Some(callee) => g.nodes[callee as usize].returns_result,
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
        hits
    }

    /// One transitive relation: reachability from `seeds` over reversed
    /// call edges, propagating out of no test fn, no `boundary` fn, and no
    /// fn a `rule` allow covers (chain semantics). Every such allow whose
    /// fn the relation reaches is in use.
    fn derive(
        &mut self,
        rule: &str,
        seeds: &BTreeMap<u32, u32>,
        boundary: impl Fn(&FnNode) -> bool,
    ) -> Derived {
        let mut blocked: BTreeSet<u32> = (0u32..)
            .zip(&self.g.nodes)
            .filter(|(_, n)| n.is_test || boundary(n))
            .map(|(id, _)| id)
            .collect();
        blocked.extend(
            self.allows
                .iter()
                .filter(|a| a.rule == rule)
                .filter_map(|a| a.node),
        );
        let seed_ids: Vec<u32> = seeds.keys().copied().collect();
        let derived = reach(&seed_ids, &blocked, &self.g.redges);
        self.stats.rounds += derived.rounds;
        for a in self.allows.iter_mut().filter(|a| a.rule == rule) {
            if a.node.is_some_and(|n| derived.holds(n)) {
                a.used = true;
            }
        }
        derived
    }

    /// A transitive site rule: seed from `rule`'s direct sites, derive
    /// reachability, and flag every live fn in `scope` that reaches a
    /// site through at least one call (`what`) with its call chain and the
    /// `fix`. Seeds carry their own direct diagnostics.
    fn transitive(
        &mut self,
        rule: &'static str,
        boundary: impl Fn(&FnNode) -> bool,
        scope: impl Fn(&FnNode) -> bool,
        what: &str,
        fix: &str,
    ) {
        let files = self.files;
        let sites = files.iter().enumerate().flat_map(|(fi, f)| {
            let of_rule = f.sites.iter().filter(move |x| x.rule == rule);
            of_rule.map(move |x| (fi, x.fn_idx, x.line))
        });
        let seeds = seed_table(&self.g, sites);
        let derived = self.derive(rule, &seeds, boundary);
        for (&node, via) in &derived.facts {
            let n = &self.g.nodes[node as usize];
            if via.is_none() || n.is_test || !scope(n) {
                continue;
            }
            if waive(&mut self.allows, rule, |a| a.node == Some(node)) {
                continue;
            }
            let (chain, text) = render_chain(&self.g, &derived, node, &seeds);
            let msg = format!("fn `{}` {what} ({text}); {fix}", n.qualified());
            let mut d = Diagnostic::new(&n.path, n.line, rule, msg);
            d.chain = chain;
            self.out.push(d);
        }
    }

    /// **lock-order** — the PR 6 reader/writer split holds because every
    /// thread acquires the workspace's locks in one global order (store
    /// mutex, then the Inum probe cache, then a snapshot slot's RwLock).
    /// A function whose *derived* lock set acquires out of that order —
    /// even through a chain of calls — can deadlock against the publish
    /// path. (The rule's write-guard sites are direct: see
    /// `write_guard_sites`.)
    fn lock_order(&mut self) {
        let (files, cfg) = (self.files, self.cfg);
        let rank = |lock: &str| {
            cfg.lock_order
                .iter()
                .position(|group| group.iter().any(|l| l == lock))
        };
        let order_text = cfg
            .lock_order
            .iter()
            .map(|group| group[0].as_str())
            .collect::<Vec<_>>()
            .join(" then ");

        // may_acquire(L) per rank, from each rank's acquisition sites.
        let sites: Vec<BTreeMap<u32, u32>> = (0..cfg.lock_order.len())
            .map(|r| {
                let acquires = files.iter().enumerate().flat_map(|(fi, f)| {
                    let of_rank = f.acquires.iter().filter(move |a| rank(&a.lock) == Some(r));
                    of_rank.map(move |a| (fi, a.fn_idx, a.line))
                });
                seed_table(&self.g, acquires)
            })
            .collect();
        let derived: Vec<Derived> = sites
            .iter()
            .map(|s| self.derive("lock-order", s, |_| false))
            .collect();

        // (line, held, acquired, the fn an allow must cover, chain).
        type Hit<'h> = (u32, &'h str, &'h str, u32, Option<(Vec<ChainLink>, String)>);
        let mut seen: BTreeSet<(usize, u32, &str, &str)> = BTreeSet::new();
        for (fi, f) in files.iter().enumerate() {
            let mut hits: Vec<Hit<'_>> = Vec::new();
            // Direct: an outer-rank (or same-lock re-entrant) acquisition
            // while a later-rank lock is held.
            for a in &f.acquires {
                let (Some(node), Some(ra)) = (self.g.live_node(fi, a.fn_idx), rank(&a.lock)) else {
                    continue;
                };
                for held in &a.held {
                    if rank(held).is_some_and(|rh| ra < rh || (ra == rh && *held == a.lock)) {
                        hits.push((a.line, held, &a.lock, node, None));
                    }
                }
            }
            // A call made while holding a lock, into a fn whose derived
            // lock set acquires out of order.
            for c in f.calls.iter().filter(|c| !c.held.is_empty()) {
                let Some(caller) = self.g.live_node(fi, c.fn_idx) else {
                    continue;
                };
                let by_name = || {
                    let edges = &self.g.edges[caller as usize];
                    let named = edges
                        .iter()
                        .find(|&&(cal, _)| self.g.nodes[cal as usize].name == c.name);
                    named.map(|&(cal, _)| cal)
                };
                let Some(callee) = self.g.callee_at(caller, c.line, &c.name).or_else(by_name)
                else {
                    continue;
                };
                for held in &c.held {
                    let Some(rh) = rank(held) else { continue };
                    for (ra, d) in derived.iter().enumerate() {
                        let acq = cfg.lock_order[ra][0].as_str();
                        if ra > rh || !d.holds(callee) || (ra == rh && acq != held) {
                            continue;
                        }
                        let chain = render_chain(&self.g, d, callee, &sites[ra]);
                        hits.push((c.line, held, acq, caller, Some(chain)));
                    }
                }
            }
            for (line, held, acq, node, chain) in hits {
                if !seen.insert((fi, line, held, acq))
                    || waive(&mut self.allows, "lock-order", |a| a.node == Some(node))
                {
                    continue;
                }
                let what = if held == acq || (rank(held) == rank(acq) && rank(held).is_some()) {
                    format!("re-acquires `{acq}` while already holding it (self-deadlock)")
                } else {
                    format!("acquires `{acq}` while holding `{held}`")
                };
                let (links, detail) = match chain {
                    Some((links, text)) => (links, format!(" via {text}")),
                    None => (Vec::new(), String::new()),
                };
                let msg = format!("{what}{detail}; the workspace lock order is {order_text}");
                let mut d = Diagnostic::new(&f.path, line, "lock-order", msg);
                d.chain = links;
                self.out.push(d);
            }
        }
    }
}

/// Render the witness chain from `head` to its seed's first site as both
/// structured links and display text.
fn render_chain(
    g: &Graph,
    derived: &Derived,
    head: u32,
    seed_sites: &BTreeMap<u32, u32>,
) -> (Vec<ChainLink>, String) {
    let node = |id: u32| &g.nodes[id as usize];
    let mut links = vec![ChainLink {
        func: node(head).qualified(),
        path: node(head).path.clone(),
        line: node(head).line,
    }];
    let mut last = head;
    for (next, call_line) in derived.chain(head) {
        links.push(ChainLink {
            func: node(next).qualified(),
            path: node(last).path.clone(),
            line: call_line,
        });
        last = next;
    }
    links.push(ChainLink {
        func: "<site>".to_string(),
        path: node(last).path.clone(),
        line: seed_sites.get(&last).copied().unwrap_or(node(last).line),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        analyze_source(path, src, &Config::workspace())
    }

    fn run_workspace(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let mut facts: Vec<FileFacts> = files.iter().map(|(p, s)| extract(p, s)).collect();
        facts.sort_by(|a, b| a.path.cmp(&b.path));
        analyze_files(&facts, &Config::workspace()).0
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
        assert_eq!(d[0].rule, "lock-order");
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
