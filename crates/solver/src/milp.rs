//! Depth-first branch-and-bound for mixed 0/1 integer programs.
//!
//! This is the "mature solver" interface CoPhy's formulation targets: an
//! *anytime* solver that can be stopped at a node budget and still reports
//! a feasible incumbent together with a certified lower bound — hence an
//! optimality gap. That gap is exactly CoPhy's "quality guarantee" and the
//! effort/quality trade-off knob the paper demonstrates.
//!
//! The whole tree shares **one** simplex engine (`simplex.rs`). The root
//! relaxation is solved cold, once; every later node applies its fixings
//! as column bounds (`lb = ub`) on that same live tableau and re-solves with
//! the dual simplex from whatever basis the previous node left behind,
//! stopping as soon as the rising objective reaches the incumbent. The
//! search *dives*: after branching on `x_v`, the down child (`x_v = 0`) is
//! solved next, straight from the basis its parent just left, with one
//! bound changed; the up child is queued. When a dive is pruned, proven
//! infeasible or reaches an integral point, the search backtracks to the
//! open node of least bound, and moving there changes only the bounds in
//! which the two nodes' fixings differ.
//!
//! At every solved node with an incumbent, a free binary that is nonbasic
//! with `|d_j|` above the gap `incumbent − z` (plus a rounding margin,
//! `RC_MARGIN` relative to the incumbent) is fixed at its bound for the
//! node's subtree: moving it off that bound would lift the LP bound past
//! the incumbent. Such *reduced-cost fixings* ride on the node's chain
//! of branching decisions like any branch, so a node owns no tableau and
//! no basis, only a link to its last decision.
//!
//! The reported bound is the least bound of every node left open (the node
//! being dived on included), of every node closed only within `GAP_TOL`
//! of the incumbent, and of every node whose LP failed: only a proof —
//! `Infeasible`, or an LP that reached the incumbent — closes a subtree.
//! The only budget is a node count (one node is one LP), so a run is a
//! pure function of the program and the options: no clock is read.

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

/// Integrality tolerance.
const INT_TOL: f64 = 1e-6;
/// Stop when the relative gap falls below this.
const GAP_TOL: f64 = 1e-6;
/// Reduced-cost fixing needs `|d_j|` to exceed the gap by this much,
/// relative to the incumbent: a reduced cost read off a tableau updated in
/// place carries rounding error, and a fixing must never cut off a point
/// as good as the incumbent.
const RC_MARGIN: f64 = 1e-9;

/// The search budget.
#[derive(Debug, Clone, Copy)]
pub struct MilpOptions {
    /// Maximum branch-and-bound nodes — the one search budget. A run cut
    /// here reports `nodes == node_limit`.
    pub node_limit: usize,
}

impl Default for MilpOptions {
    fn default() -> Self {
        MilpOptions { node_limit: 50_000 }
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

/// One branching decision or reduced-cost fixing; a node's fixings are the
/// chain of these up to the root, so an open node costs a heap entry and
/// nothing else.
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
        // among equal bounds, the node created last.
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
    fn is_integral(&self, x: &[f64]) -> bool {
        self.binaries
            .iter()
            .all(|&v| (x[v] - x[v].round()).abs() <= INT_TOL)
    }

    /// Offer `x` as an incumbent: its binaries are snapped to integers,
    /// and it is taken only if the snapped point is integral, satisfies
    /// the program's *original* rows and bounds, and beats the incumbent.
    fn offer(&self, x: &[f64], incumbent: &mut Option<(Vec<f64>, f64)>) -> bool {
        if x.len() != self.lp.num_vars() || !self.is_integral(x) {
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
        let mut incumbent: Option<(Vec<f64>, f64)> = None;
        if let Some(w) = warm {
            self.offer(w, &mut incumbent);
        }

        // Root relaxation: the one cold solve of the run.
        let mut engine = Simplex::new(&self.lp);
        if let Err(e) = engine.solve() {
            // No root LP, no bound — but a warm start that passed the
            // original rows is still a feasible answer.
            let bound = match (&incumbent, e) {
                (None, LpError::Infeasible) => f64::INFINITY,
                _ => f64::NEG_INFINITY,
            };
            return finish(incumbent, bound, 0, engine.iterations());
        }
        let root_bound = engine.objective();
        let mut search = Search {
            milp: self,
            engine,
            branches: Vec::new(),
            heap: BinaryHeap::new(),
            fixed: vec![None; self.lp.num_vars()],
            target: vec![None; self.lp.num_vars()],
            x: Vec::with_capacity(self.lp.num_vars()),
            incumbent,
            nodes: 0,
        };
        let bound = search.run(opts.node_limit, root_bound);
        let (nodes, pivots) = (search.nodes, search.engine.iterations());
        finish(search.incumbent, bound, nodes, pivots)
    }

    /// Solve without a warm start.
    pub fn solve(&self, opts: &MilpOptions) -> MilpResult {
        self.solve_with_warm_start(opts, None)
    }
}

/// The state of one branch-and-bound run over the live tableau.
struct Search<'m> {
    milp: &'m Milp,
    engine: Simplex,
    /// Every branching decision and reduced-cost fixing made so far.
    branches: Vec<Branch>,
    /// Open nodes other than the one being dived on, least bound first.
    heap: BinaryHeap<Node>,
    /// The value each binary is fixed at on the tableau (`None`: free), so
    /// that moving between nodes touches only the bounds that differ.
    fixed: Vec<Option<f64>>,
    /// Scratch: the fixings of the node being moved to.
    target: Vec<Option<f64>>,
    /// Scratch: the current LP point.
    x: Vec<f64>,
    incumbent: Option<(Vec<f64>, f64)>,
    nodes: usize,
}

impl Search<'_> {
    /// Search until the tree is closed or `node_limit` nodes are solved;
    /// returns the least bound of every node not closed by a proof
    /// (`f64::INFINITY` if there is none).
    fn run(&mut self, node_limit: usize, root_bound: f64) -> f64 {
        let mut bound = f64::INFINITY;
        let mut dive = Some(Node {
            bound: root_bound,
            branch: ROOT,
        });
        loop {
            let (node, diving) = match dive.take() {
                Some(node) => (node, true),
                None => match self.heap.pop() {
                    Some(node) => (node, false),
                    None => return bound,
                },
            };
            if let Some(inc) = self.incumbent_objective() {
                if node.bound >= inc - 1e-12 || relative_gap(inc, node.bound) <= GAP_TOL {
                    bound = bound.min(node.bound);
                    if diving {
                        continue;
                    }
                    // The least open bound is no better, so none is.
                    return bound;
                }
            }
            if self.nodes >= node_limit {
                let open = self.heap.peek().map_or(f64::INFINITY, |n| n.bound);
                return bound.min(node.bound).min(open);
            }
            self.nodes += 1;
            // A dive child's one new bound was applied when it was made.
            if !diving {
                self.move_to(node.branch);
            }
            let cutoff = self
                .incumbent_objective()
                .map_or(f64::INFINITY, |obj| obj - 1e-12);
            let solved = self.engine.reoptimize(cutoff);
            #[cfg(test)]
            let solved = seam::failed_node_lp(self.nodes).map_or(solved, Err);
            match solved {
                Ok(Reoptimized::Optimal) => {}
                // Proofs: nothing below this node beats the incumbent.
                Ok(Reoptimized::Cutoff) | Err(LpError::Infeasible) => continue,
                // Numerically hopeless is no proof: the node stays in the
                // bound.
                Err(_) => {
                    bound = bound.min(node.bound);
                    continue;
                }
            }
            let relaxed = self.engine.objective();
            self.engine.write_solution(&mut self.x);
            if self.milp.offer(&self.x, &mut self.incumbent) {
                continue;
            }
            let chain = match self.incumbent_objective() {
                Some(inc) => self.fix_by_reduced_cost(node.branch, inc, relaxed),
                None => {
                    self.round();
                    node.branch
                }
            };
            let Some(v) = self.most_fractional() else {
                // Every binary is fixed and the original rows reject the
                // point: no proof either.
                bound = bound.min(relaxed);
                continue;
            };
            self.branches.push(Branch {
                parent: chain,
                var: v,
                value: 1.0,
            });
            self.heap.push(Node {
                bound: relaxed,
                branch: self.branches.len() - 1,
            });
            self.branches.push(Branch {
                parent: chain,
                var: v,
                value: 0.0,
            });
            self.fix(v, 0.0);
            dive = Some(Node {
                bound: relaxed,
                branch: self.branches.len() - 1,
            });
        }
    }

    fn incumbent_objective(&self) -> Option<f64> {
        self.incumbent.as_ref().map(|(_, obj)| *obj)
    }

    fn fix(&mut self, v: usize, value: f64) {
        self.engine.set_bounds(v, value, value);
        self.fixed[v] = Some(value);
    }

    /// Put the tableau's binaries at `branch`'s fixings, changing only the
    /// bounds that differ from the ones in place.
    fn move_to(&mut self, branch: usize) {
        let binaries = &self.milp.binaries;
        for &v in binaries {
            self.target[v] = None;
        }
        let mut link = branch;
        while link != ROOT {
            let Branch { parent, var, value } = self.branches[link];
            self.target[var] = Some(value);
            link = parent;
        }
        for &v in binaries {
            if self.target[v] != self.fixed[v] {
                let (lb, ub) = self.target[v].map_or((0.0, 1.0), |value| (value, value));
                self.engine.set_bounds(v, lb, ub);
                self.fixed[v] = self.target[v];
            }
        }
    }

    /// Fix, below the node just solved (at `relaxed`), every free binary
    /// whose move off its bound would cost more than `incumbent −
    /// relaxed`; returns the node's chain extended by those fixings.
    fn fix_by_reduced_cost(&mut self, mut chain: usize, incumbent: f64, relaxed: f64) -> usize {
        let limit = incumbent - relaxed + RC_MARGIN * incumbent.abs().max(1.0);
        let milp = self.milp;
        for &v in &milp.binaries {
            if self.fixed[v].is_some() {
                continue;
            }
            let Some((d, at_upper)) = self.engine.nonbasic_reduced_cost(v) else {
                continue;
            };
            if d.abs() > limit {
                let value = if at_upper { 1.0 } else { 0.0 };
                self.branches.push(Branch {
                    parent: chain,
                    var: v,
                    value,
                });
                chain = self.branches.len() - 1;
                self.fix(v, value);
            }
        }
        chain
    }

    /// The free binary farthest from an integer at the current point.
    fn most_fractional(&self) -> Option<usize> {
        let x = &self.x;
        self.milp
            .binaries
            .iter()
            .filter(|&&v| self.fixed[v].is_none())
            .max_by(|&&a, &&b| {
                let fa = (x[a] - x[a].round()).abs();
                let fb = (x[b] - x[b].round()).abs();
                fa.total_cmp(&fb)
            })
            .copied()
    }

    /// Rounding heuristic, while there is no incumbent: try the nearest
    /// integer point (helps the anytime gap enormously), then put the
    /// node's own bounds back.
    fn round(&mut self) {
        let binaries = &self.milp.binaries;
        for &v in binaries {
            let r = self.x[v].round();
            self.engine.set_bounds(v, r, r);
        }
        if self.engine.reoptimize(f64::INFINITY).is_ok() {
            let mut rounded = Vec::new();
            self.engine.write_solution(&mut rounded);
            self.milp.offer(&rounded, &mut self.incumbent);
        }
        for &v in binaries {
            let (lb, ub) = self.fixed[v].map_or((0.0, 1.0), |value| (value, value));
            self.engine.set_bounds(v, lb, ub);
        }
    }
}

/// The result of a run that ends with `incumbent` and the least bound of
/// everything not closed by a proof (`f64::INFINITY`: nothing is left).
fn finish(
    incumbent: Option<(Vec<f64>, f64)>,
    bound: f64,
    nodes: usize,
    pivots: usize,
) -> MilpResult {
    match incumbent {
        Some((x, objective)) => {
            let bound = bound.min(objective);
            let gap = relative_gap(objective, bound);
            MilpResult {
                status: if gap <= GAP_TOL {
                    MilpStatus::Optimal
                } else {
                    MilpStatus::Feasible
                },
                x,
                objective,
                bound,
                gap,
                nodes,
                pivots,
            }
        }
        None => {
            let proven = bound == f64::INFINITY;
            MilpResult {
                status: if proven {
                    MilpStatus::Infeasible
                } else {
                    MilpStatus::NoSolution
                },
                x: Vec::new(),
                objective: f64::INFINITY,
                bound,
                gap: if proven { 0.0 } else { f64::INFINITY },
                nodes,
                pivots,
            }
        }
    }
}

#[cfg(test)]
mod seam {
    use crate::lp::LpError;
    use std::cell::Cell;

    thread_local! {
        /// The node (counted from 1) whose LP reports a numerical failure.
        static FAIL_NODE: Cell<usize> = const { Cell::new(0) };
    }

    /// Make node `node`'s LP fail on this thread's next runs (0: none).
    pub(super) fn fail_node_lp(node: usize) {
        FAIL_NODE.with(|f| f.set(node));
    }

    pub(super) fn failed_node_lp(node: usize) -> Option<LpError> {
        (FAIL_NODE.with(Cell::get) == node).then_some(LpError::IterationLimit)
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
pub(crate) mod tests {
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
        let no_search = MilpOptions { node_limit: 0 };
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
        let budget = MilpOptions { node_limit: 3 };
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
        let tight = m.solve(&MilpOptions { node_limit: 1 });
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
            let opts = MilpOptions { node_limit };
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

    #[test]
    fn integer_infeasible_program_is_proven_infeasible() {
        // 2x = 1 has the LP point x = ½ and no integer one.
        let mut m = Milp::new();
        let x = m.add_binary(1.0);
        m.lp.add_constraint(vec![(x, 2.0)], Relation::Eq, 1.0);
        let r = m.solve(&MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Infeasible);
        assert!(r.x.is_empty() && r.bound == f64::INFINITY);
    }

    #[test]
    fn a_failed_root_lp_keeps_a_validated_warm_start() {
        // min x − y with y ≥ x and y unbounded above: the root LP is
        // unbounded, yet (1, 2) is a feasible point of the program.
        let mut m = Milp::new();
        let x = m.add_binary(1.0);
        let y = m.add_continuous(-1.0);
        m.lp.add_constraint(vec![(y, 1.0), (x, -1.0)], Relation::Ge, 0.0);
        let warm = [1.0, 2.0];
        let r = m.solve_with_warm_start(&MilpOptions::default(), Some(&warm));
        assert_eq!(r.status, MilpStatus::Feasible);
        assert_eq!((r.x.as_slice(), r.objective), (&warm[..], -1.0));
        assert_eq!(r.bound, f64::NEG_INFINITY);
        assert_eq!(r.gap, f64::INFINITY);
        let cold = m.solve(&MilpOptions::default());
        assert_eq!(cold.status, MilpStatus::NoSolution);
        assert!(cold.x.is_empty());
    }

    #[test]
    fn a_failed_node_lp_is_not_a_proof() {
        let values: Vec<f64> = (1..=12).map(|i| (i * 7 % 13) as f64 + 1.0).collect();
        let weights: Vec<f64> = (1..=12).map(|i| (i * 5 % 11) as f64 + 1.0).collect();
        let m = knapsack_milp(&values, &weights, 20.0);
        let (opts, warm) = (MilpOptions::default(), [0.0; 12]);
        let full = m.solve_with_warm_start(&opts, Some(&warm));
        assert_eq!(full.status, MilpStatus::Optimal);
        let solve_failing = |node: usize| {
            seam::fail_node_lp(node);
            let r = m.solve_with_warm_start(&opts, Some(&warm));
            seam::fail_node_lp(0);
            r
        };
        // The root's own LP failing leaves the warm start and the root
        // bound, and proves nothing.
        let r = solve_failing(1);
        assert_eq!(r.status, MilpStatus::Feasible);
        assert_eq!((r.objective, r.nodes), (0.0, 1));
        assert!(r.bound < full.objective && r.gap > GAP_TOL);
        // Wherever the failure falls, the bound still holds and `Optimal`
        // is only ever claimed for the optimum.
        for node in 1..=full.nodes {
            let r = solve_failing(node);
            assert!(r.bound <= full.objective + 1e-9, "node {node}: {r:?}");
            assert!(r.objective >= full.objective - 1e-9, "node {node}: {r:?}");
            if r.status == MilpStatus::Optimal {
                assert!(
                    (r.objective - full.objective).abs() < 1e-9,
                    "node {node}: {r:?}"
                );
            }
        }
    }

    pub(crate) mod prop {
        use super::*;
        use crate::simplex::tests::Rng;
        use proptest::prelude::*;

        /// A program of CoPhy's shape drawn from `seed`, with its
        /// all-empty warm start and its optimum found by enumerating `x`.
        /// Binaries `x_i` (a size each and, in half the programs, an
        /// upkeep cost); query blocks of continuous `y` with `Σ_k y_{b,k}
        /// = 1`, configuration 0 empty; one `Σ_{k∋i} y_{b,k} ≤ x_i` row per
        /// (block, index); a storage row. Some costs are whole numbers, so
        /// ties occur.
        pub(crate) fn cophy_shaped(seed: u64) -> (Milp, Vec<f64>, f64) {
            let mut rng = Rng(seed);
            let n = 1 + rng.below(12);
            let sizes: Vec<f64> = (0..n).map(|_| rng.real(1.0, 10.0)).collect();
            let with_upkeep = rng.below(2) == 0;
            let upkeep: Vec<f64> = (0..n)
                .map(|_| {
                    if with_upkeep {
                        rng.real(0.0, 20.0)
                    } else {
                        0.0
                    }
                })
                .collect();
            let budget = rng.real(0.1, 0.9) * sizes.iter().sum::<f64>();
            let mut m = Milp::new();
            let x: Vec<usize> = upkeep.iter().map(|&u| m.add_binary(u)).collect();
            let storage = x.iter().zip(&sizes).map(|(&v, &s)| (v, s)).collect();
            m.lp.add_constraint(storage, Relation::Le, budget);
            let mut blocks: Vec<(f64, Vec<(u32, f64)>)> = Vec::new();
            let mut warm = vec![0.0; n];
            for _ in 0..1 + rng.below(8) {
                let weight = rng.real(1.0, 5.0);
                let empty = rng.real(50.0, 100.0);
                let mut configs = vec![(0u32, empty)];
                for _ in 0..1 + rng.below(5) {
                    let mut uses = 0u32;
                    for _ in 0..1 + rng.below(3) {
                        uses |= 1 << rng.below(n);
                    }
                    let cost = rng.real(5.0, empty);
                    let cost = if rng.below(3) == 0 {
                        cost.round()
                    } else {
                        cost
                    };
                    configs.push((uses, cost));
                }
                let ys: Vec<usize> = configs
                    .iter()
                    .map(|&(_, cost)| m.add_continuous(weight * cost))
                    .collect();
                warm.extend(ys.iter().map(|&y| if y == ys[0] { 1.0 } else { 0.0 }));
                m.lp.add_constraint(ys.iter().map(|&y| (y, 1.0)).collect(), Relation::Eq, 1.0);
                for (i, &xi) in x.iter().enumerate() {
                    let mut row: Vec<(usize, f64)> = configs
                        .iter()
                        .zip(&ys)
                        .filter(|((uses, _), _)| uses & (1 << i) != 0)
                        .map(|(_, &y)| (y, 1.0))
                        .collect();
                    if !row.is_empty() {
                        row.push((xi, -1.0));
                        m.lp.add_constraint(row, Relation::Le, 0.0);
                    }
                }
                blocks.push((weight, configs));
            }
            let mut best = f64::INFINITY;
            for built in 0u32..(1 << n) {
                let on = |i: &usize| built & (1 << i) != 0;
                if (0..n).filter(on).map(|i| sizes[i]).sum::<f64>() > budget {
                    continue;
                }
                let mut total: f64 = (0..n).filter(on).map(|i| upkeep[i]).sum();
                for (weight, configs) in &blocks {
                    total += configs
                        .iter()
                        .filter(|&&(uses, _)| uses & !built == 0)
                        .map(|&(_, cost)| weight * cost)
                        .fold(f64::INFINITY, f64::min);
                }
                best = best.min(total);
            }
            (m, warm, best)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn milp_matches_brute_force(seed in 0u64..u64::MAX) {
                let (m, warm, exact) = cophy_shaped(seed);
                let tol = 1e-6 * exact.abs().max(1.0);
                let full = m.solve(&MilpOptions::default());
                prop_assert_eq!(full.status, MilpStatus::Optimal);
                prop_assert!((full.objective - exact).abs() <= tol,
                    "milp {} vs brute {}", full.objective, exact);
                for node_limit in [0, 1, 5] {
                    for warm in [None, Some(&warm[..])] {
                        let r = m.solve_with_warm_start(&MilpOptions { node_limit }, warm);
                        prop_assert!(r.bound <= exact + tol && exact <= r.objective + tol,
                            "{node_limit} nodes: bound {} ≤ {exact} ≤ {}", r.bound, r.objective);
                        if !r.x.is_empty() {
                            let at = m.lp.objective_if_feasible(&r.x);
                            prop_assert!(at.is_some_and(|obj| (obj - r.objective).abs() <= tol),
                                "{node_limit} nodes: x breaks a row or misstates its objective");
                        }
                        if r.status == MilpStatus::Optimal {
                            prop_assert!((r.objective - exact).abs() <= tol);
                        }
                    }
                }
            }
        }
    }
}
