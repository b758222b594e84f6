//! The workspace call graph: fn nodes from every file's fact module,
//! `calls(caller, callee)` edges resolved by qualified name.
//!
//! Resolution is deliberately conservative where ambiguity would create
//! *wrong* edges (a `.cost(...)` on an untyped receiver must never link a
//! pure matrix lookup to `Inum::cost`) and permissive where the workspace
//! leaves no room for doubt (a method name with exactly one impl anywhere
//! resolves to it). The ladder, in order:
//!
//! 1. `Type::name(...)` / `Self::name(...)` — typed qualified lookup.
//! 2. `recv.name(...)` with a receiver whose type is known from a
//!    binding (`recv: Type`) or the enclosing `impl` (`self.`): typed
//!    method lookup.
//! 3. `recv.name(...)` otherwise: unique-name fallback, unless the name
//!    is on the `COMMON_METHODS` blocklist (std-colliding or
//!    multi-impl names never resolve by bare name).
//! 4. `name(...)`: free-fn lookup, preferring a same-file definition.
//!
//! Unresolved calls simply contribute no edge — the direct-site rules
//! still catch the primitives they might have hidden, because cost/panic
//! *sites* are matched textually per file, not through the graph.

use crate::summary::{FileSummary, NO_FN};
use std::collections::BTreeMap;

/// Method names that must never resolve through the unique-name
/// fallback: std-prelude collisions and workspace names with many impls.
const COMMON_METHODS: &[&str] = &[
    "new",
    "default",
    "len",
    "is_empty",
    "clone",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "fmt",
    "eq",
    "cmp",
    "partial_cmp",
    "hash",
    "drop",
    "from",
    "into",
    "try_from",
    "try_into",
    "to_string",
    "as_ref",
    "as_mut",
    "as_str",
    "write",
    "read",
    "lock",
    "flush",
    "clear",
    "contains",
    "contains_key",
    "extend",
    "sort",
    "sort_by",
    "cost",
    "cost_plus",
    "cost_minus",
    "build",
    "open",
    "close",
    "apply",
    "run",
    "step",
    "name",
    "id",
    "with_capacity",
    "unwrap_or",
    "map",
    "and_then",
    "filter",
    "collect",
    "min",
    "max",
    "sum",
    "abs",
    "sqrt",
    "reset",
    "path",
    "snapshot",
    "restore",
    "observe",
    "get_or",
    "set",
    "take",
    "replace",
    "update",
    "add",
    "count",
    "tick",
    "start",
    "stop",
    "finish",
];

/// One fn in the workspace graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index of the owning [`FileSummary`].
    pub file: u32,
    /// Fn index within that file.
    pub local: u32,
    pub name: String,
    /// Receiver type (empty for free fns).
    pub receiver: String,
    pub path: String,
    pub line: u32,
    pub is_test: bool,
    pub returns_result: bool,
}

impl FnNode {
    /// `Type::name` for methods, bare `name` for free fns — the display
    /// form chain diagnostics use.
    pub fn qualified(&self) -> String {
        if self.receiver.is_empty() {
            self.name.clone()
        } else {
            format!("{}::{}", self.receiver, self.name)
        }
    }
}

/// The resolved workspace call graph.
pub struct Graph {
    pub nodes: Vec<FnNode>,
    /// `edges[caller]` → `(callee, call-site line)`, deduplicated.
    pub edges: Vec<Vec<(u32, u32)>>,
    /// Reverse edges: `redges[callee]` → `(caller, call-site line)`.
    pub redges: Vec<Vec<(u32, u32)>>,
    /// `offsets[file] + local` = node id.
    pub offsets: Vec<u32>,
}

impl Graph {
    /// Node id of fn `local` in file `file`, if the fn index is real.
    pub fn node_of(&self, file: u32, local: u32) -> Option<u32> {
        if local == NO_FN {
            return None;
        }
        let id = self.offsets.get(file as usize)? + local;
        (id < self.nodes.len() as u32).then_some(id)
    }

    /// Build the graph from per-file fact modules. `summaries` must be
    /// sorted by path — node ids and edge order are then deterministic.
    pub fn build(summaries: &[FileSummary]) -> Graph {
        let mut nodes = Vec::new();
        let mut offsets = Vec::with_capacity(summaries.len());
        for (fi, s) in summaries.iter().enumerate() {
            offsets.push(nodes.len() as u32);
            for (li, f) in s.fns.iter().enumerate() {
                nodes.push(FnNode {
                    file: fi as u32,
                    local: li as u32,
                    name: f.name.clone(),
                    receiver: f.receiver.clone(),
                    path: s.path.clone(),
                    line: f.line,
                    is_test: f.is_test,
                    returns_result: f.returns_result,
                });
            }
        }

        // Resolution tables.
        let mut methods: BTreeMap<(String, String), Vec<u32>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        let mut frees: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            let id = id as u32;
            if n.receiver.is_empty() {
                frees.entry(n.name.clone()).or_default().push(id);
            } else {
                methods
                    .entry((n.receiver.clone(), n.name.clone()))
                    .or_default()
                    .push(id);
                methods_by_name.entry(n.name.clone()).or_default().push(id);
            }
        }
        let unique = |v: Option<&Vec<u32>>| match v {
            Some(v) if v.len() == 1 => Some(v[0]),
            _ => None,
        };

        let mut edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); nodes.len()];
        for (fi, s) in summaries.iter().enumerate() {
            for c in &s.calls {
                let Some(caller) = offsets
                    .get(fi)
                    .and_then(|&o| (c.fn_idx != NO_FN).then(|| o + c.fn_idx))
                else {
                    continue;
                };
                let callee = match c.shape {
                    // Qualified or typed-receiver: exact impl lookup, then
                    // free fns for `module::fn(...)` paths.
                    2 => unique(methods.get(&(c.recv_ty.clone(), c.name.clone())))
                        .or_else(|| unique(frees.get(&c.name))),
                    1 => {
                        let typed = if c.recv_ty.is_empty() {
                            None
                        } else {
                            unique(methods.get(&(c.recv_ty.clone(), c.name.clone())))
                        };
                        typed.or_else(|| {
                            if COMMON_METHODS.contains(&c.name.as_str()) {
                                None
                            } else {
                                unique(methods_by_name.get(&c.name))
                            }
                        })
                    }
                    _ => match frees.get(&c.name) {
                        Some(v) if v.len() == 1 => Some(v[0]),
                        Some(v) => v
                            .iter()
                            .copied()
                            .find(|&id| nodes[id as usize].file == fi as u32),
                        None => None,
                    },
                };
                let Some(callee) = callee else { continue };
                if callee == caller {
                    continue; // self-recursion adds no new reachability
                }
                // Live code never reaches #[cfg(test)] items.
                if !nodes[caller as usize].is_test && nodes[callee as usize].is_test {
                    continue;
                }
                edges[caller as usize].push((callee, c.line));
            }
        }
        for list in &mut edges {
            list.sort();
            list.dedup_by_key(|&mut (callee, _)| callee);
        }
        let mut redges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); nodes.len()];
        for (caller, list) in edges.iter().enumerate() {
            for &(callee, line) in list {
                redges[callee as usize].push((caller as u32, line));
            }
        }
        Graph {
            nodes,
            edges,
            redges,
            offsets,
        }
    }

    /// All nodes named `name` (methods and frees) — for the
    /// error-discipline name-level `Result` check.
    pub fn by_name<'a, 'b>(&'a self, name: &'b str) -> impl Iterator<Item = &'a FnNode> + 'a
    where
        'b: 'a,
    {
        self.nodes.iter().filter(move |n| n.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::summarize;

    fn graph_of(files: &[(&str, &str)]) -> Graph {
        let mut sums: Vec<FileSummary> = files.iter().map(|(p, s)| summarize(p, s)).collect();
        sums.sort_by(|a, b| a.path.cmp(&b.path));
        Graph::build(&sums)
    }

    #[test]
    fn cross_file_method_resolution_via_binding_type() {
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "pub struct Helper;\nimpl Helper { pub fn probe(&self) {} }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "fn advisor(h: &Helper) { h.probe(); }\n",
            ),
        ]);
        let advisor = g.nodes.iter().position(|n| n.name == "advisor").unwrap();
        let probe = g.nodes.iter().position(|n| n.name == "probe").unwrap() as u32;
        assert!(g.edges[advisor].iter().any(|&(c, _)| c == probe));
    }

    #[test]
    fn ambiguous_method_names_do_not_resolve() {
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "impl A { pub fn cost(&self) {} }\nimpl B { pub fn cost(&self) {} }\n",
            ),
            ("crates/b/src/lib.rs", "fn f(x: &Unknown) { x.cost(); }\n"),
        ]);
        let f = g.nodes.iter().position(|n| n.name == "f").unwrap();
        assert!(g.edges[f].is_empty());
    }

    #[test]
    fn test_fns_get_no_edges_from_live_code() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn live() { helper(); }\n#[cfg(test)]\nmod tests {\n fn helper() {}\n}\n",
        )]);
        let live = g.nodes.iter().position(|n| n.name == "live").unwrap();
        assert!(g.edges[live].is_empty());
    }
}
