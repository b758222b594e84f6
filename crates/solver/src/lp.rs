//! The linear-program model: `min cᵀx  s.t.  Ax {≤,=,≥} b,  0 ≤ x ≤ u`.
//!
//! [`LinearProgram`] only *describes* a program — objective, rows and
//! per-variable upper bounds (infinite unless [`LinearProgram::set_upper`]
//! says otherwise; a bound is a property of the column, never a row).
//! Solving is the bounded-variable simplex engine in `simplex.rs`:
//! [`LinearProgram::solve`] runs it once, cold; branch-and-bound
//! ([`crate::milp`]) keeps one engine alive across its whole tree.

use crate::simplex::Simplex;

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub(crate) coeffs: Vec<(usize, f64)>,
    pub(crate) rel: Relation,
    pub(crate) rhs: f64,
}

/// Solver failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// Iteration limit hit (numerically pathological instance).
    IterationLimit,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "infeasible"),
            LpError::Unbounded => write!(f, "unbounded"),
            LpError::IterationLimit => write!(f, "iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

/// An optimal LP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal variable assignment (length = number of variables).
    pub x: Vec<f64>,
    /// Optimal objective value.
    pub objective: f64,
}

/// Absolute slack allowed when a point is checked against a row or bound.
const CHECK_TOL: f64 = 1e-7;

/// A linear program in minimization form over variables in `[0, u]`.
#[derive(Debug, Clone, Default)]
pub struct LinearProgram {
    pub(crate) objective: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a variable in `[0, ∞)` with objective coefficient `cost`;
    /// returns its id.
    pub fn add_var(&mut self, cost: f64) -> usize {
        self.objective.push(cost);
        self.upper.push(f64::INFINITY);
        self.objective.len() - 1
    }

    /// Bound `var` above: `var ≤ upper`. Costs no row.
    pub fn set_upper(&mut self, var: usize, upper: f64) {
        debug_assert!(upper >= 0.0, "bounds are [0, upper]");
        self.upper[var] = upper;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints (rows; variable bounds are not rows).
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Add `Σ coeffs ᵒ rhs`; duplicate variable entries are summed.
    pub fn add_constraint(&mut self, coeffs: Vec<(usize, f64)>, rel: Relation, rhs: f64) {
        debug_assert!(coeffs.iter().all(|&(v, _)| v < self.num_vars()));
        self.constraints.push(Constraint { coeffs, rel, rhs });
    }

    /// Solve the LP, bounds included.
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        let mut engine = Simplex::new(self);
        engine.solve()?;
        let mut x = Vec::new();
        engine.write_solution(&mut x);
        Ok(LpSolution {
            x,
            objective: engine.objective(),
        })
    }

    /// `cᵀx` if `x` satisfies every bound and every row of the program as
    /// written (within [`CHECK_TOL`]) — the check an incumbent must pass
    /// whatever a long-lived tableau believes about it.
    pub(crate) fn objective_if_feasible(&self, x: &[f64]) -> Option<f64> {
        if x.len() != self.num_vars() {
            return None;
        }
        let in_bounds = x
            .iter()
            .zip(&self.upper)
            .all(|(&v, &ub)| v >= -CHECK_TOL && v <= ub + CHECK_TOL);
        let rows_hold = self.constraints.iter().all(|c| {
            let lhs: f64 = c.coeffs.iter().map(|&(v, a)| a * x[v]).sum();
            match c.rel {
                Relation::Le => lhs <= c.rhs + CHECK_TOL,
                Relation::Ge => lhs >= c.rhs - CHECK_TOL,
                Relation::Eq => (lhs - c.rhs).abs() <= CHECK_TOL,
            }
        });
        (in_bounds && rows_hold).then(|| self.objective.iter().zip(x).map(|(c, v)| c * v).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn simple_minimization() {
        // min -x - 2y  s.t.  x + y ≤ 4, x ≤ 2, y ≤ 3
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-1.0);
        let y = lp.add_var(-2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::Le, 3.0);
        let s = lp.solve().unwrap();
        assert!(approx(s.objective, -7.0), "{}", s.objective);
        assert!(approx(s.x[x], 1.0) && approx(s.x[y], 3.0));
    }

    #[test]
    fn equality_constraints() {
        // min x + y  s.t. x + y = 10, x ≥ 3
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 10.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 3.0);
        let s = lp.solve().unwrap();
        assert!(approx(s.objective, 10.0));
        assert!(s.x[x] >= 3.0 - 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-1.0);
        lp.add_constraint(vec![(x, -1.0)], Relation::Le, 0.0); // -x ≤ 0, x free upward
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_normalised() {
        // x ≥ 0, constraint -x ≤ -2  ⇔  x ≥ 2; min x → 2.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        lp.add_constraint(vec![(x, -1.0)], Relation::Le, -2.0);
        let s = lp.solve().unwrap();
        assert!(approx(s.objective, 2.0));
    }

    #[test]
    fn fixed_variables_substituted() {
        // min x + y  s.t. x + y ≥ 5, with y fixed to 2 → x = 3.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 5.0);
        let mut fix = BTreeMap::new();
        fix.insert(y, 2.0);
        let s = lp.solve_with_fixed(&fix).unwrap();
        assert!(approx(s.objective, 5.0));
        assert!(approx(s.x[x], 3.0));
        assert!(approx(s.x[y], 2.0));
    }

    #[test]
    fn fixing_can_make_infeasible() {
        // x ≤ 1 with x fixed to 2 → infeasible (constant row check).
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
        let mut fix = BTreeMap::new();
        fix.insert(x, 2.0);
        assert_eq!(lp.solve_with_fixed(&fix).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn all_vars_fixed() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(3.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 5.0);
        let mut fix = BTreeMap::new();
        fix.insert(x, 4.0);
        let s = lp.solve_with_fixed(&fix).unwrap();
        assert!(approx(s.objective, 12.0));
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Multiple redundant constraints through the same vertex.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-1.0);
        let y = lp.add_var(-1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(vec![(x, 2.0), (y, 2.0)], Relation::Le, 2.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
        let s = lp.solve().unwrap();
        assert!(approx(s.objective, -1.0));
    }

    #[test]
    fn lp_relaxation_of_knapsack() {
        // max 6a + 10b + 12c (min negative), weights 1,2,3 ≤ 5; a,b,c ∈ [0,1].
        let mut lp = LinearProgram::new();
        let a = lp.add_var(-6.0);
        let b = lp.add_var(-10.0);
        let c = lp.add_var(-12.0);
        lp.add_constraint(vec![(a, 1.0), (b, 2.0), (c, 3.0)], Relation::Le, 5.0);
        for v in [a, b, c] {
            lp.add_constraint(vec![(v, 1.0)], Relation::Le, 1.0);
        }
        let s = lp.solve().unwrap();
        // LP optimum: a=1, b=1, c=2/3 → -(6+10+8) = -24.
        assert!(approx(s.objective, -24.0), "{}", s.objective);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn solution_is_feasible(
                costs in proptest::collection::vec(-5.0f64..5.0, 2..6),
                rows in proptest::collection::vec(
                    (proptest::collection::vec(0.0f64..3.0, 2..6), 1.0f64..20.0),
                    1..6
                ),
            ) {
                let mut lp = LinearProgram::new();
                let vars: Vec<usize> = costs.iter().map(|&c| lp.add_var(c.max(0.01))).collect();
                for (coeffs, rhs) in &rows {
                    let row: Vec<(usize, f64)> = vars
                        .iter()
                        .zip(coeffs.iter())
                        .map(|(&v, &a)| (v, a))
                        .collect();
                    lp.add_constraint(row, Relation::Le, *rhs);
                }
                // Positive costs and ≤ constraints: x = 0 is feasible and
                // optimal-ish; solver must return a feasible point.
                let s = lp.solve().unwrap();
                for (coeffs, rhs) in &rows {
                    let lhs: f64 = vars
                        .iter()
                        .zip(coeffs.iter())
                        .map(|(&v, &a)| a * s.x[v])
                        .sum();
                    prop_assert!(lhs <= rhs + 1e-6);
                }
                for &v in &vars {
                    prop_assert!(s.x[v] >= -1e-9);
                }
            }
        }
    }
}
