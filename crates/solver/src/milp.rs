//! Best-first branch-and-bound for mixed 0/1 integer programs.
//!
//! This is the "mature solver" interface CoPhy's formulation targets: an
//! *anytime* solver that can be stopped at a node budget and still reports
//! a feasible incumbent together with a certified lower bound — hence an
//! optimality gap. That gap is exactly CoPhy's "quality guarantee" and the
//! effort/quality trade-off knob the paper demonstrates.
//!
//! The whole tree shares **one** simplex engine (`simplex.rs`). The root
//! relaxation is solved cold, once; every later node applies its fixings
//! as column bounds (`lb = ub`) on that same live tableau and re-solves with the
//! dual simplex from whatever basis the previous node — near or far in the
//! tree — left behind, stopping as soon as the rising objective reaches
//! the incumbent. A node therefore owns no tableau and no basis, only a
//! link to its parent's fixings. The only budget is a node count, so a run
//! is a pure function of the program and the options: no clock is read.

use crate::lp::{LinearProgram, LpError};
use crate::simplex::{Reoptimized, Simplex};
use std::collections::BinaryHeap;

/// Solve status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpStatus {
    /// Proven optimal (gap = 0 up to tolerance).
    Optimal,
    /// Stopped at the node budget with a feasible incumbent.
    Feasible,
    /// No feasible assignment exists.
    Infeasible,
    /// Budget exhausted before any incumbent was found.
    NoSolution,
}

/// Budget and tolerances.
#[derive(Debug, Clone, Copy)]
pub struct MilpOptions {
    /// Maximum branch-and-bound nodes — the one search budget. A run cut
    /// here reports `nodes == node_limit`.
    pub node_limit: usize,
    /// Integrality tolerance.
    pub int_tol: f64,
    /// Stop when the relative gap falls below this.
    pub gap_tol: f64,
}

impl Default for MilpOptions {
    fn default() -> Self {
        MilpOptions {
            node_limit: 50_000,
            int_tol: 1e-6,
            gap_tol: 1e-6,
        }
    }
}

/// Result of a branch-and-bound run.
#[derive(Debug, Clone)]
pub struct MilpResult {
    /// Final status.
    pub status: MilpStatus,
    /// Best integer-feasible assignment found (empty if none).
    pub x: Vec<f64>,
    /// Objective of the incumbent (`f64::INFINITY` if none).
    pub objective: f64,
    /// Best proven lower bound on the optimum.
    pub bound: f64,
    /// Relative optimality gap `(objective - bound) / |objective|`.
    pub gap: f64,
    /// Nodes explored.
    pub nodes: usize,
    /// Simplex iterations (pivots and bound flips) over the whole run,
    /// root relaxation included.
    pub pivots: usize,
}

/// A 0/1 mixed-integer program: an LP plus a set of binary variables.
#[derive(Debug, Clone, Default)]
pub struct Milp {
    /// The LP relaxation (a binary is a variable with upper bound 1).
    pub lp: LinearProgram,
    binaries: Vec<usize>,
    is_binary: Vec<bool>,
}

/// One branching decision; a node's fixings are the chain of these up to
/// the root, so an open node costs a heap entry and nothing else.
#[derive(Clone, Copy)]
struct Branch {
    parent: usize,
    var: usize,
    value: f64,
}

const ROOT: usize = usize::MAX;

struct Node {
    bound: f64,
    /// Last link of the node's fixing chain in the branch arena.
    branch: usize,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; we want the smallest bound first and,
        // among equal bounds, the node created last (`ROOT` never ties).
        other
            .bound
            .total_cmp(&self.bound)
            .then(self.branch.cmp(&other.branch))
    }
}

impl Milp {
    /// New empty MILP.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a binary variable with the given objective cost.
    pub fn add_binary(&mut self, cost: f64) -> usize {
        let v = self.add_continuous(cost);
        self.lp.set_upper(v, 1.0);
        self.binaries.push(v);
        self.is_binary[v] = true;
        v
    }

    /// Add a continuous variable in `[0, ∞)`.
    pub fn add_continuous(&mut self, cost: f64) -> usize {
        self.is_binary.push(false);
        self.lp.add_var(cost)
    }

    /// The binary variable ids.
    pub fn binaries(&self) -> &[usize] {
        &self.binaries
    }

    /// Check integer feasibility of the binary variables.
    fn is_integral(&self, x: &[f64], tol: f64) -> bool {
        self.binaries
            .iter()
            .all(|&v| (x[v] - x[v].round()).abs() <= tol)
    }

    /// Offer `x` as an incumbent: its binaries are snapped to integers,
    /// and it is taken only if the snapped point is integral, satisfies
    /// the program's *original* rows and bounds, and beats the incumbent.
    fn offer(&self, x: &[f64], tol: f64, incumbent: &mut Option<(Vec<f64>, f64)>) -> bool {
        if x.len() != self.lp.num_vars() || !self.is_integral(x, tol) {
            return false;
        }
        // (`lp` is public: a variable added behind `Milp`'s back has no
        // flag and is continuous.)
        let snapped: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(v, &val)| match self.is_binary.get(v) {
                Some(true) => val.round(),
                _ => val,
            })
            .collect();
        let Some(objective) = self.lp.objective_if_feasible(&snapped) else {
            return false;
        };
        if incumbent.as_ref().is_none_or(|(_, best)| objective < *best) {
            *incumbent = Some((snapped, objective));
        }
        true
    }

    /// Solve with a warm-start incumbent (e.g. from a greedy heuristic).
    pub fn solve_with_warm_start(&self, opts: &MilpOptions, warm: Option<&[f64]>) -> MilpResult {
        let mut nodes = 0usize;
        let mut incumbent: Option<(Vec<f64>, f64)> = None;
        if let Some(w) = warm {
            self.offer(w, opts.int_tol, &mut incumbent);
        }

        // Root relaxation: the one cold solve of the run.
        let mut engine = Simplex::new(&self.lp);
        if let Err(e) = engine.solve() {
            let (status, bound, gap) = match e {
                LpError::Infeasible => (MilpStatus::Infeasible, f64::INFINITY, 0.0),
                _ => (MilpStatus::NoSolution, f64::NEG_INFINITY, f64::INFINITY),
            };
            return MilpResult {
                status,
                x: Vec::new(),
                objective: f64::INFINITY,
                bound,
                gap,
                nodes: 0,
                pivots: engine.iterations(),
            };
        }
        let root_bound = engine.objective();

        let mut branches: Vec<Branch> = Vec::new();
        let mut heap: BinaryHeap<Node> = BinaryHeap::new();
        heap.push(Node {
            bound: root_bound,
            branch: ROOT,
        });
        let mut best_bound = root_bound;
        let mut exhausted = true;
        let mut x: Vec<f64> = Vec::with_capacity(self.lp.num_vars());

        while let Some(node) = heap.pop() {
            best_bound = node.bound;
            // Prune against incumbent.
            if let Some((_, inc_obj)) = &incumbent {
                let gap = relative_gap(*inc_obj, node.bound);
                if node.bound >= *inc_obj - 1e-12 || gap <= opts.gap_tol {
                    // Everything remaining is worse; we're done.
                    best_bound = node.bound.min(*inc_obj);
                    break;
                }
            }
            if nodes >= opts.node_limit {
                exhausted = false;
                break;
            }
            nodes += 1;

            // The node's LP: its fixings as bounds on the live tableau.
            for &v in &self.binaries {
                engine.set_bounds(v, 0.0, 1.0);
            }
            let mut link = node.branch;
            while link != ROOT {
                let Branch { parent, var, value } = branches[link];
                engine.set_bounds(var, value, value);
                link = parent;
            }
            let cutoff = incumbent
                .as_ref()
                .map_or(f64::INFINITY, |(_, obj)| *obj - 1e-12);
            match engine.reoptimize(cutoff) {
                Ok(Reoptimized::Optimal) => {}
                // Infeasible, no better than the incumbent, or numerically
                // hopeless: nothing below this node is wanted.
                Ok(Reoptimized::Cutoff) | Err(_) => continue,
            }
            let relaxed = engine.objective();
            engine.write_solution(&mut x);
            if self.offer(&x, opts.int_tol, &mut incumbent) {
                continue;
            }
            // Branch on the most fractional binary the node leaves free.
            let frac_var = self
                .binaries
                .iter()
                .filter(|&&v| !engine.is_fixed(v))
                .max_by(|&&a, &&b| {
                    let fa = (x[a] - x[a].round()).abs();
                    let fb = (x[b] - x[b].round()).abs();
                    fa.total_cmp(&fb)
                })
                .copied();
            // Rounding heuristic: try the nearest integer point for a quick
            // incumbent (helps the anytime gap enormously).
            if incumbent.is_none() {
                for &v in &self.binaries {
                    engine.set_bounds(v, x[v].round(), x[v].round());
                }
                if engine.reoptimize(f64::INFINITY).is_ok() {
                    let mut rounded = Vec::new();
                    engine.write_solution(&mut rounded);
                    self.offer(&rounded, opts.int_tol, &mut incumbent);
                }
            }
            let Some(v) = frac_var else { continue };
            for value in [1.0 - x[v].round(), x[v].round()] {
                branches.push(Branch {
                    parent: node.branch,
                    var: v,
                    value: value.clamp(0.0, 1.0),
                });
                heap.push(Node {
                    bound: relaxed,
                    branch: branches.len() - 1,
                });
            }
        }

        if exhausted && heap.is_empty() {
            // Search exhausted: the incumbent (if any) is optimal.
            if let Some((_, obj)) = &incumbent {
                best_bound = *obj;
            }
        }

        let pivots = engine.iterations();
        match incumbent {
            Some((x, objective)) => {
                let gap = relative_gap(objective, best_bound);
                MilpResult {
                    status: if gap <= opts.gap_tol {
                        MilpStatus::Optimal
                    } else {
                        MilpStatus::Feasible
                    },
                    x,
                    objective,
                    bound: best_bound.min(objective),
                    gap,
                    nodes,
                    pivots,
                }
            }
            None => MilpResult {
                status: MilpStatus::NoSolution,
                x: Vec::new(),
                objective: f64::INFINITY,
                bound: best_bound,
                gap: f64::INFINITY,
                nodes,
                pivots,
            },
        }
    }

    /// Solve without a warm start.
    pub fn solve(&self, opts: &MilpOptions) -> MilpResult {
        self.solve_with_warm_start(opts, None)
    }
}

fn relative_gap(objective: f64, bound: f64) -> f64 {
    if !objective.is_finite() {
        return f64::INFINITY;
    }
    let denom = objective.abs().max(1e-9);
    let gap = ((objective - bound) / denom).max(0.0);
    // An incumbent's `cᵀx` and a node's LP objective are the same number
    // summed in two orders; a difference of that size is no gap.
    if gap <= 1e-12 {
        0.0
    } else {
        gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::Relation;

    fn knapsack_milp(values: &[f64], weights: &[f64], cap: f64) -> Milp {
        let mut m = Milp::new();
        let vars: Vec<usize> = values.iter().map(|&v| m.add_binary(-v)).collect();
        let row: Vec<(usize, f64)> = vars.iter().zip(weights).map(|(&v, &w)| (v, w)).collect();
        m.lp.add_constraint(row, Relation::Le, cap);
        m
    }

    #[test]
    fn solves_small_knapsack_exactly() {
        // values 6,10,12 weights 1,2,3 cap 5 → take {b,c} = 22.
        let m = knapsack_milp(&[6.0, 10.0, 12.0], &[1.0, 2.0, 3.0], 5.0);
        let r = m.solve(&MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective + 22.0).abs() < 1e-6, "{}", r.objective);
        assert_eq!(r.x[0].round(), 0.0);
        assert_eq!(r.x[1].round(), 1.0);
        assert_eq!(r.x[2].round(), 1.0);
    }

    #[test]
    fn bound_certifies_optimality() {
        let m = knapsack_milp(&[5.0, 4.0, 3.0], &[2.0, 3.0, 1.0], 4.0);
        let r = m.solve(&MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!(r.gap <= 1e-6);
        assert!(r.bound <= r.objective + 1e-9);
    }

    #[test]
    fn infeasible_milp() {
        let mut m = Milp::new();
        let a = m.add_binary(1.0);
        let b = m.add_binary(1.0);
        m.lp.add_constraint(vec![(a, 1.0), (b, 1.0)], Relation::Ge, 3.0);
        let r = m.solve(&MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Infeasible);
    }

    #[test]
    fn warm_start_is_respected() {
        let m = knapsack_milp(&[6.0, 10.0, 12.0], &[1.0, 2.0, 3.0], 5.0);
        // Warm start: take item 0 only (value 6, feasible).
        let warm = vec![1.0, 0.0, 0.0];
        let r = m.solve_with_warm_start(
            &MilpOptions {
                node_limit: 0, // no exploration: incumbent must come from warm start
                ..Default::default()
            },
            Some(&warm),
        );
        assert!((r.objective + 6.0).abs() < 1e-6);
        assert_eq!(r.status, MilpStatus::Feasible);
        assert!(r.gap > 0.0, "gap must be reported: {}", r.gap);
    }

    #[test]
    fn warm_start_must_satisfy_the_original_rows() {
        let m = knapsack_milp(&[6.0, 10.0, 12.0], &[1.0, 2.0, 3.0], 5.0);
        let no_search = MilpOptions {
            node_limit: 0,
            ..Default::default()
        };
        // Over capacity, fractional, out of bounds, wrong length: none of
        // these may become the incumbent.
        for bad in [
            vec![1.0, 1.0, 1.0],
            vec![1.0, 0.5, 0.0],
            vec![2.0, 0.0, 0.0],
            vec![1.0, 0.0],
        ] {
            let r = m.solve_with_warm_start(&no_search, Some(&bad));
            assert_eq!(r.status, MilpStatus::NoSolution, "{bad:?}");
            assert!(r.x.is_empty());
        }
    }

    #[test]
    fn a_cut_search_reports_the_node_budget_it_spent() {
        let values: Vec<f64> = (1..=12).map(|i| (i * 7 % 13) as f64 + 1.0).collect();
        let weights: Vec<f64> = (1..=12).map(|i| (i * 5 % 11) as f64 + 1.0).collect();
        let m = knapsack_milp(&values, &weights, 20.0);
        let budget = MilpOptions {
            node_limit: 3,
            ..Default::default()
        };
        let cut = m.solve_with_warm_start(&budget, Some(&[0.0; 12]));
        assert_eq!(cut.status, MilpStatus::Feasible);
        assert_eq!(cut.nodes, 3, "a cut run spent exactly its budget");
        let full = m.solve(&MilpOptions::default());
        assert_eq!(full.status, MilpStatus::Optimal);
        assert!(full.nodes > 3 && full.pivots > cut.pivots && cut.pivots > 0);
        // No clock anywhere: the same call is the same answer.
        let again = m.solve(&MilpOptions::default());
        assert_eq!((again.nodes, again.pivots), (full.nodes, full.pivots));
        assert_eq!(again.x, full.x);
    }

    #[test]
    fn anytime_gap_shrinks_with_budget() {
        // A slightly bigger knapsack where the root LP is fractional.
        let values: Vec<f64> = (1..=12).map(|i| (i * 7 % 13) as f64 + 1.0).collect();
        let weights: Vec<f64> = (1..=12).map(|i| (i * 5 % 11) as f64 + 1.0).collect();
        let m = knapsack_milp(&values, &weights, 20.0);
        let tight = m.solve(&MilpOptions {
            node_limit: 1,
            ..Default::default()
        });
        let loose = m.solve(&MilpOptions::default());
        assert!(loose.gap <= tight.gap + 1e-9);
        assert!(loose.objective <= tight.objective + 1e-9);
    }

    #[test]
    fn objective_offset_is_in_every_reported_number() {
        let plain = knapsack_milp(&[6.0, 10.0, 12.0], &[1.0, 2.0, 3.0], 5.0);
        let mut shifted = plain.clone();
        shifted.lp.add_objective_offset(100.0);
        for node_limit in [0, 1, 50_000] {
            let opts = MilpOptions {
                node_limit,
                ..Default::default()
            };
            let warm = [1.0, 0.0, 0.0];
            let (a, b) = (
                plain.solve_with_warm_start(&opts, Some(&warm)),
                shifted.solve_with_warm_start(&opts, Some(&warm)),
            );
            assert!((b.objective - (a.objective + 100.0)).abs() < 1e-9);
            assert!((b.bound - (a.bound + 100.0)).abs() < 1e-9);
            assert_eq!(a.x, b.x);
            // The gap is relative to the shifted objective.
            let gap = (b.objective - b.bound) / b.objective.abs();
            assert!((b.gap - gap).abs() < 1e-12, "{} vs {gap}", b.gap);
        }
        let root = shifted.lp.solve().unwrap();
        assert!((root.objective - (plain.lp.solve().unwrap().objective + 100.0)).abs() < 1e-9);
    }

    #[test]
    fn equality_constrained_assignment() {
        // Choose exactly one of three options; costs 3, 1, 2 → pick #1.
        let mut m = Milp::new();
        let vars = [m.add_binary(3.0), m.add_binary(1.0), m.add_binary(2.0)];
        m.lp.add_constraint(vars.iter().map(|&v| (v, 1.0)).collect(), Relation::Eq, 1.0);
        let r = m.solve(&MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective - 1.0).abs() < 1e-6);
        assert_eq!(r.x[vars[1]].round(), 1.0);
    }

    #[test]
    fn mixed_continuous_and_binary() {
        // min -y s.t. y ≤ 10·x, y ≤ 7, x binary with cost 5.
        // Take x=1: objective 5 - 7 = -2 < 0 (x=0 gives 0).
        let mut m = Milp::new();
        let x = m.add_binary(5.0);
        let y = m.add_continuous(-1.0);
        m.lp.add_constraint(vec![(y, 1.0), (x, -10.0)], Relation::Le, 0.0);
        m.lp.add_constraint(vec![(y, 1.0)], Relation::Le, 7.0);
        let r = m.solve(&MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective + 2.0).abs() < 1e-6, "{}", r.objective);
        assert_eq!(r.x[x].round(), 1.0);
        assert!((r.x[y] - 7.0).abs() < 1e-6);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Brute-force 0/1 knapsack optimum.
        fn brute(values: &[f64], weights: &[f64], cap: f64) -> f64 {
            let n = values.len();
            let mut best = 0.0f64;
            for mask in 0u32..(1 << n) {
                let (mut v, mut w) = (0.0, 0.0);
                for i in 0..n {
                    if mask & (1 << i) != 0 {
                        v += values[i];
                        w += weights[i];
                    }
                }
                if w <= cap && v > best {
                    best = v;
                }
            }
            best
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn milp_matches_brute_force(
                values in proptest::collection::vec(1.0f64..20.0, 2..8),
                weights in proptest::collection::vec(1.0f64..10.0, 2..8),
                cap in 5.0f64..25.0,
            ) {
                let n = values.len().min(weights.len());
                let (values, weights) = (&values[..n], &weights[..n]);
                let m = knapsack_milp(values, weights, cap);
                let r = m.solve(&MilpOptions::default());
                prop_assert_eq!(r.status, MilpStatus::Optimal);
                let exact = brute(values, weights, cap);
                prop_assert!((r.objective + exact).abs() < 1e-5,
                    "milp {} vs brute {}", -r.objective, exact);
            }
        }
    }
}
