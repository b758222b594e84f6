//! The dense two-phase primal tableau this crate used to solve every LP
//! with — kept, test-only, as the independent oracle the bounded engine in
//! [`crate::simplex`] is checked against.
//!
//! Solves `min cᵀx  s.t.  Ax {≤,=,≥} b,  x ≥ 0` from scratch: phase 1
//! drives artificial variables out of the basis (detecting infeasibility),
//! phase 2 optimizes the real objective. Dantzig pricing with a
//! Bland's-rule fallback guards against cycling. It knows nothing about
//! bounds: finite upper bounds reach it as explicit `x ≤ ub` rows.

use crate::lp::{Constraint, LinearProgram, LpError, LpSolution, Relation};
use std::collections::BTreeMap;

impl LinearProgram {
    /// Solve with some variables fixed to constants (they are substituted
    /// out, keeping the tableau small — this is how branch-and-bound
    /// explores 0/1 branches).
    pub(crate) fn solve_with_fixed(
        &self,
        fixed: &BTreeMap<usize, f64>,
    ) -> Result<LpSolution, LpError> {
        // Map free variables to dense columns.
        let n_all = self.num_vars();
        let mut col_of: Vec<Option<usize>> = vec![None; n_all];
        let mut free_vars: Vec<usize> = Vec::new();
        for v in 0..n_all {
            if !fixed.contains_key(&v) {
                col_of[v] = Some(free_vars.len());
                free_vars.push(v);
            }
        }
        let n = free_vars.len();

        let mut fixed_cost = 0.0;
        for (&v, &val) in fixed {
            fixed_cost += self.objective[v] * val;
        }

        // Build rows with substituted rhs.
        let mut rows: Vec<(Vec<f64>, Relation, f64)> = Vec::new();
        let bound_rows = self
            .upper
            .iter()
            .enumerate()
            .filter(|(_, ub)| ub.is_finite())
            .map(|(v, &ub)| Constraint {
                coeffs: vec![(v, 1.0)],
                rel: Relation::Le,
                rhs: ub,
            });
        for c in self.constraints.iter().cloned().chain(bound_rows) {
            let mut dense = vec![0.0; n];
            let mut rhs = c.rhs;
            for &(v, a) in &c.coeffs {
                match col_of[v] {
                    Some(j) => dense[j] += a,
                    None => rhs -= a * fixed[&v],
                }
            }
            // Constant rows: check feasibility directly.
            if dense.iter().all(|&a| a.abs() < 1e-12) {
                let ok = match c.rel {
                    Relation::Le => rhs >= -1e-7,
                    Relation::Ge => rhs <= 1e-7,
                    Relation::Eq => rhs.abs() <= 1e-7,
                };
                if !ok {
                    return Err(LpError::Infeasible);
                }
                continue;
            }
            rows.push((dense, c.rel, rhs));
        }

        if n == 0 {
            return Ok(LpSolution {
                x: (0..n_all)
                    .map(|v| fixed.get(&v).copied().unwrap_or(0.0))
                    .collect(),
                objective: fixed_cost,
            });
        }

        let sol = simplex(&self.objective_dense(&free_vars), &rows)?;
        let mut x = vec![0.0; n_all];
        for (&v, &val) in fixed {
            x[v] = val;
        }
        for (j, &v) in free_vars.iter().enumerate() {
            x[v] = sol.0[j];
        }
        Ok(LpSolution {
            x,
            objective: sol.1 + fixed_cost,
        })
    }

    fn objective_dense(&self, free_vars: &[usize]) -> Vec<f64> {
        free_vars.iter().map(|&v| self.objective[v]).collect()
    }
}

const EPS: f64 = 1e-9;
const MAX_ITERS: usize = 50_000;

/// Core tableau simplex: `min cᵀx, rows, x ≥ 0`.
/// Returns (x, objective).
fn simplex(c: &[f64], rows: &[(Vec<f64>, Relation, f64)]) -> Result<(Vec<f64>, f64), LpError> {
    let n = c.len();
    let m = rows.len();

    // Normalise rhs ≥ 0 and count auxiliary columns.
    let mut norm: Vec<(Vec<f64>, Relation, f64)> = Vec::with_capacity(m);
    for (coeffs, rel, rhs) in rows {
        if *rhs < 0.0 {
            let flipped: Vec<f64> = coeffs.iter().map(|a| -a).collect();
            let new_rel = match rel {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
            norm.push((flipped, new_rel, -rhs));
        } else {
            norm.push((coeffs.clone(), *rel, *rhs));
        }
    }

    let n_slack = norm
        .iter()
        .filter(|(_, r, _)| matches!(r, Relation::Le | Relation::Ge))
        .count();
    let n_art = norm
        .iter()
        .filter(|(_, r, _)| matches!(r, Relation::Ge | Relation::Eq))
        .count();
    let total = n + n_slack + n_art;

    // tableau[m][total + 1]; last column = rhs.
    let mut t = vec![vec![0.0f64; total + 1]; m];
    let mut basis = vec![0usize; m];
    let mut s_idx = n;
    let mut a_idx = n + n_slack;
    for (i, (coeffs, rel, rhs)) in norm.iter().enumerate() {
        t[i][..n].copy_from_slice(coeffs);
        t[i][total] = *rhs;
        match rel {
            Relation::Le => {
                t[i][s_idx] = 1.0;
                basis[i] = s_idx;
                s_idx += 1;
            }
            Relation::Ge => {
                t[i][s_idx] = -1.0;
                s_idx += 1;
                t[i][a_idx] = 1.0;
                basis[i] = a_idx;
                a_idx += 1;
            }
            Relation::Eq => {
                t[i][a_idx] = 1.0;
                basis[i] = a_idx;
                a_idx += 1;
            }
        }
    }

    // Phase 1: minimize sum of artificials.
    if n_art > 0 {
        let mut c1 = vec![0.0; total];
        for j in (n + n_slack)..total {
            c1[j] = 1.0;
        }
        let obj = run_phase(&mut t, &mut basis, &c1, total)?;
        if obj > 1e-6 {
            return Err(LpError::Infeasible);
        }
        // Drive remaining artificials out of the basis where possible.
        for i in 0..m {
            if basis[i] >= n + n_slack {
                if let Some(j) = (0..n + n_slack).find(|&j| t[i][j].abs() > 1e-7) {
                    pivot(&mut t, &mut basis, i, j, total);
                }
                // If no pivot column exists the row is redundant (all
                // zeros); the artificial stays basic at value 0 — harmless.
            }
        }
    }

    // Phase 2: real objective (artificial columns frozen at zero).
    let mut c2 = vec![0.0; total];
    c2[..n].copy_from_slice(c);
    let art_start = n + n_slack;
    let obj = run_phase_restricted(&mut t, &mut basis, &c2, total, art_start)?;

    let mut x = vec![0.0; n];
    for (i, &b) in basis.iter().enumerate() {
        if b < n {
            x[b] = t[i][total];
        }
    }
    Ok((x, obj))
}

fn run_phase(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    c: &[f64],
    total: usize,
) -> Result<f64, LpError> {
    run_phase_restricted(t, basis, c, total, total)
}

/// Simplex iterations; columns at `forbidden_from..` may not enter.
fn run_phase_restricted(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    c: &[f64],
    total: usize,
    forbidden_from: usize,
) -> Result<f64, LpError> {
    let m = t.len();
    for iter in 0..MAX_ITERS {
        // Reduced costs: r_j = c_j - c_B' B^-1 A_j (computed row-wise).
        let mut reduced = c[..total].to_vec();
        for (i, &b) in basis.iter().enumerate() {
            let cb = c[b];
            if cb != 0.0 {
                for j in 0..total {
                    reduced[j] -= cb * t[i][j];
                }
            }
        }
        // Entering column.
        let bland = iter > 4 * (m + total);
        let mut enter: Option<usize> = None;
        if bland {
            for (j, &rj) in reduced.iter().enumerate().take(forbidden_from) {
                if rj < -EPS {
                    enter = Some(j);
                    break;
                }
            }
        } else {
            let mut best = -EPS;
            for (j, &rj) in reduced.iter().enumerate().take(forbidden_from) {
                if rj < best {
                    best = rj;
                    enter = Some(j);
                }
            }
        }
        let Some(j) = enter else {
            // Optimal.
            let mut obj = 0.0;
            for (i, &b) in basis.iter().enumerate() {
                obj += c[b] * t[i][total];
            }
            return Ok(obj);
        };
        // Ratio test.
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            if t[i][j] > EPS {
                let ratio = t[i][total] / t[i][j];
                if ratio < best_ratio - EPS
                    || (bland
                        && (ratio - best_ratio).abs() <= EPS
                        && leave.is_some_and(|l| basis[i] < basis[l]))
                {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(i) = leave else {
            return Err(LpError::Unbounded);
        };
        pivot(t, basis, i, j, total);
    }
    Err(LpError::IterationLimit)
}

fn pivot(t: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize, total: usize) {
    let m = t.len();
    let pv = t[row][col];
    for j in 0..=total {
        t[row][j] /= pv;
    }
    for i in 0..m {
        if i != row {
            let factor = t[i][col];
            if factor.abs() > 0.0 {
                for j in 0..=total {
                    t[i][j] -= factor * t[row][j];
                }
            }
        }
    }
    basis[row] = col;
}
