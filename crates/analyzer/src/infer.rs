//! The Datalog-style inference core: IDB relations derived from the call
//! graph by semi-naive iteration to fixpoint.
//!
//! Every interprocedural relation the rules need is an instance of one
//! scheme — reachability over reversed call edges with a blocked set:
//!
//! ```text
//! reaches(F) :- seed(F).
//! reaches(F) :- calls(F, G), reaches(G), ¬blocked(G).
//! ```
//!
//! `reaches_cost` seeds from direct cost-primitive sites, `may_panic`
//! from panic sites, and the per-lock `may_acquire(L)` family from
//! acquisition sites. Blocking implements sanctioned boundaries: a
//! cost-allowed module, a test fn, or an allow-covered fn is still
//! *derived* (its fact exists) but propagates nothing upward — an allow
//! anywhere on a chain therefore suppresses every chain through it.
//!
//! Each derived fact records the `(callee, call-line)` it was first
//! reached through; following these witnesses back to a seed yields the
//! full call chain for the diagnostic. Iteration order is sorted node
//! ids per round, and a fact is never overwritten once inserted, so the
//! fixpoint — and every printed chain — is deterministic regardless of
//! file arrival order.

use std::collections::{BTreeMap, BTreeSet};

/// A derived reachability relation: node → the first `(callee, line)`
/// witness, `None` for seeds.
pub struct Derived {
    pub facts: BTreeMap<u32, Option<(u32, u32)>>,
    /// Semi-naive rounds to fixpoint (for the stats line).
    pub rounds: u32,
}

impl Derived {
    /// Is the fact derived for `node` (seed or transitive)?
    pub fn holds(&self, node: u32) -> bool {
        self.facts.contains_key(&node)
    }

    /// The witness chain from `node` down to a seed: a list of
    /// `(next_node, call_line)` hops, empty when `node` is itself a seed.
    /// Bounded to guard against (impossible, but cheap to exclude)
    /// witness cycles.
    pub fn chain(&self, node: u32) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let mut cur = node;
        while let Some(&Some((next, line))) = self.facts.get(&cur) {
            out.push((next, line));
            cur = next;
            if out.len() > 64 {
                break;
            }
        }
        out
    }
}

/// Derive reachability over `redges` (callee → callers) from `seeds`,
/// never propagating out of a node in `blocked`.
pub fn reach(seeds: &[u32], blocked: &BTreeSet<u32>, redges: &[Vec<(u32, u32)>]) -> Derived {
    let mut facts: BTreeMap<u32, Option<(u32, u32)>> = BTreeMap::new();
    let mut frontier: Vec<u32> = seeds.to_vec();
    frontier.sort();
    frontier.dedup();
    for &s in &frontier {
        facts.insert(s, None);
    }
    let mut rounds = 0;
    while !frontier.is_empty() {
        rounds += 1;
        let mut next = Vec::new();
        for &f in &frontier {
            if blocked.contains(&f) {
                continue;
            }
            for &(caller, line) in &redges[f as usize] {
                if let std::collections::btree_map::Entry::Vacant(e) = facts.entry(caller) {
                    e.insert(Some((f, line)));
                    next.push(caller);
                }
            }
        }
        next.sort();
        next.dedup();
        frontier = next;
    }
    Derived { facts, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn redges_of(edges: &[(u32, u32, u32)], n: usize) -> Vec<Vec<(u32, u32)>> {
        let mut r = vec![Vec::new(); n];
        for &(caller, callee, line) in edges {
            r[callee as usize].push((caller, line));
        }
        r
    }

    #[test]
    fn transitive_chain_with_witnesses() {
        // 0 → 1 → 2(seed)
        let r = redges_of(&[(0, 1, 10), (1, 2, 20)], 3);
        let d = reach(&[2], &BTreeSet::new(), &r);
        assert!(d.holds(0) && d.holds(1) && d.holds(2));
        assert_eq!(d.chain(0), vec![(1, 10), (2, 20)]);
        assert_eq!(d.chain(2), vec![]);
    }

    #[test]
    fn blocked_nodes_derive_but_do_not_propagate() {
        // 0 → 1(blocked) → 2(seed); 3 → 2 directly.
        let r = redges_of(&[(0, 1, 10), (1, 2, 20), (3, 2, 30)], 4);
        let blocked: BTreeSet<u32> = [1].into_iter().collect();
        let d = reach(&[2], &blocked, &r);
        assert!(d.holds(1), "the blocked node's own fact still derives");
        assert!(!d.holds(0), "nothing propagates out of a blocked node");
        assert!(d.holds(3));
    }

    #[test]
    fn cycles_reach_fixpoint() {
        // 0 ↔ 1, 1 → 2(seed).
        let r = redges_of(&[(0, 1, 1), (1, 0, 2), (1, 2, 3)], 3);
        let d = reach(&[2], &BTreeSet::new(), &r);
        assert!(d.holds(0) && d.holds(1));
        assert!(d.rounds <= 4);
    }
}
