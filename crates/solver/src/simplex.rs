//! The bounded-variable simplex engine: one dense tableau that lives as
//! long as its caller wants it to.
//!
//! Every column — structural or the one slack each row gets — carries
//! bounds `[lb, ub]`; a nonbasic column sits on one of them. That is what
//! makes the engine cheap under branch-and-bound:
//!
//! * a 0/1 variable is the column bound `ub = 1`, not a row;
//! * fixing a variable is `lb = ub`, and **no bound change can break dual
//!   feasibility** as long as the column stays boxed (put it on whichever
//!   bound its reduced cost likes). So after *any* change of bounds the
//!   basis the previous solve left behind is a valid dual-simplex start:
//!   [`Simplex::reoptimize`] puts the columns whose bounds changed on the
//!   bound their reduced cost likes, moves the basic values by what those
//!   columns moved, and repairs primal feasibility with a handful of dual
//!   pivots, in place — and may stop as soon as the objective, which only
//!   rises under the dual simplex, reaches the caller's cutoff.
//!
//! A pivot reads and updates only nonzeros: the ratio tests, the basic
//! values and the elimination run over the pivot row's and the pivot
//! column's nonzero positions, found once per pivot by a branch-free
//! pass, and the elimination touches the product of the two.
//!
//! A cold [`Simplex::solve`] crashes a starting basis from the slacks
//! plus, for rows the slack cannot satisfy, a column that appears in no
//! other row (CoPhy's empty-configuration `y_{q,0}` is exactly that for
//! its `Σ_k y_{q,k} = 1` row), then runs the bounded primal simplex. If
//! the crash leaves rows infeasible, phase 1 is the dual simplex under a
//! zero objective — every basis is dual feasible for it — so there are no
//! artificial columns anywhere.
//!
//! Both simplex loops price by largest violation and fall back to Bland's
//! rule when a solve runs long. Rows are scaled to unit max-norm. Because
//! the tableau is updated in place across thousands of pivots, it is
//! re-derived from the original rows and the current basis every
//! [`REDERIVE_EVERY`] pivots, so rounding error cannot accumulate.

use crate::lp::{LinearProgram, LpError, Relation};

/// Tolerance for optimality, feasibility and pivot eligibility.
const EPS: f64 = 1e-9;
/// Ratio-test ties closer than this are broken by pivot size.
const TIE: f64 = 1e-12;
/// Updated tableau entries smaller than this are rounding noise.
const DROP: f64 = 1e-13;
/// Iterations one solve may take before it is declared pathological.
const MAX_ITERS: usize = 50_000;
/// Pivots between two re-derivations of the tableau from the original
/// rows. A re-derivation costs about as much as one pivot per structural
/// basic column, so this keeps it to a few percent of the pivoting.
const REDERIVE_EVERY: usize = 2_000;

const NONBASIC: usize = usize::MAX;

/// How a [`Simplex::reoptimize`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reoptimized {
    /// The basis is optimal for the current bounds.
    Optimal,
    /// Stopped early: the optimum is at least the cutoff.
    Cutoff,
}

/// The live tableau `B⁻¹[A | I | b]` with its basis, bounds and reduced
/// costs. Columns `0..n` are the program's variables, `n + i` is the
/// slack of row `i` (`≥` rows are negated on the way in, so a slack is
/// `[0, ∞)` for an inequality and `[0, 0]` for an equality).
#[derive(Debug)]
pub(crate) struct Simplex {
    n: usize,
    m: usize,
    width: usize,
    // The program as given (rows scaled, duplicates summed).
    rows: Vec<Vec<(usize, f64)>>,
    b: Vec<f64>,
    offset: f64,
    cost: Vec<f64>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    // The live state.
    tab: Vec<f64>,
    rhs: Vec<f64>,
    d: Vec<f64>,
    basis: Vec<usize>,
    row_of: Vec<usize>,
    at_upper: Vec<bool>,
    beta: Vec<f64>,
    // Scratch: the columns where the pivot row is nonzero and their
    // values, and the rows where the pivot column is.
    piv_idx: Vec<usize>,
    piv_val: Vec<f64>,
    col_idx: Vec<usize>,
    /// Nonbasic columns whose bounds changed since the last solve, with
    /// the value each had then.
    moved: Vec<(usize, f64)>,
    is_moved: Vec<bool>,
    /// Every nonbasic column sits on the bound its reduced cost likes, as
    /// after an optimal primal solve or any dual-simplex run.
    priced: bool,
    iterations: usize,
    since_rederive: usize,
}

impl Simplex {
    /// Load `lp` and crash a starting basis. Nothing is solved yet.
    pub(crate) fn new(lp: &LinearProgram) -> Self {
        let n = lp.num_vars();
        let m = lp.num_constraints();
        let width = n + m;
        let mut rows = Vec::with_capacity(m);
        let mut b = Vec::with_capacity(m);
        let lb = vec![0.0; width];
        let mut ub = vec![f64::INFINITY; width];
        ub[..n].copy_from_slice(&lp.upper);
        for (i, c) in lp.constraints.iter().enumerate() {
            let mut coeffs = c.coeffs.clone();
            coeffs.sort_unstable_by_key(|&(v, _)| v);
            let mut row: Vec<(usize, f64)> = Vec::with_capacity(coeffs.len());
            for (v, a) in coeffs {
                match row.last_mut() {
                    Some(last) if last.0 == v => last.1 += a,
                    _ => row.push((v, a)),
                }
            }
            row.retain(|&(_, a)| a != 0.0);
            let norm = row.iter().fold(0.0f64, |acc, &(_, a)| acc.max(a.abs()));
            let mut scale = if norm > 0.0 { 1.0 / norm } else { 1.0 };
            if c.rel == Relation::Ge {
                scale = -scale;
            }
            for entry in &mut row {
                entry.1 *= scale;
            }
            rows.push(row);
            b.push(c.rhs * scale);
            if c.rel == Relation::Eq {
                ub[n + i] = 0.0;
            }
        }
        let mut cost = vec![0.0; width];
        cost[..n].copy_from_slice(&lp.objective);
        let mut s = Simplex {
            n,
            m,
            width,
            rows,
            b,
            offset: lp.offset,
            cost,
            lb,
            ub,
            tab: vec![0.0; m * width],
            rhs: vec![0.0; m],
            d: vec![0.0; width],
            basis: (n..width).collect(),
            row_of: vec![NONBASIC; width],
            at_upper: vec![false; width],
            beta: vec![0.0; m],
            piv_idx: Vec::with_capacity(width),
            piv_val: Vec::with_capacity(width),
            col_idx: Vec::with_capacity(m),
            moved: Vec::new(),
            is_moved: vec![false; n],
            priced: false,
            iterations: 0,
            since_rederive: 0,
        };
        for i in 0..m {
            s.row_of[n + i] = i;
        }
        s.load_rows();
        s.d.copy_from_slice(&s.cost);
        s.compute_basics();
        s.crash();
        s
    }

    /// Simplex iterations (pivots and bound flips) since construction.
    pub(crate) fn iterations(&self) -> usize {
        self.iterations
    }

    /// The reduced cost of structural column `j` and whether it sits on
    /// its upper bound, or `None` while `j` is basic. After an optimal
    /// solve, moving a nonbasic `j` off its bound by `t` raises the
    /// objective by at least `|d_j|·t`.
    pub(crate) fn nonbasic_reduced_cost(&self, j: usize) -> Option<(f64, bool)> {
        (self.row_of[j] == NONBASIC).then(|| (self.d[j], self.at_upper[j]))
    }

    /// Change the bounds of structural column `j`. Takes effect at the
    /// next [`Self::reoptimize`].
    pub(crate) fn set_bounds(&mut self, j: usize, lb: f64, ub: f64) {
        debug_assert!(j < self.n && lb.is_finite() && lb <= ub);
        if self.row_of[j] == NONBASIC && !self.is_moved[j] {
            self.is_moved[j] = true;
            self.moved.push((j, self.value(j)));
        }
        self.lb[j] = lb;
        self.ub[j] = ub;
    }

    /// Objective `c₀ + cᵀx` at the current point.
    pub(crate) fn objective(&self) -> f64 {
        self.offset
            + (0..self.n)
                .map(|j| self.cost[j] * self.value(j))
                .sum::<f64>()
    }

    /// The current point, structural columns only, into `x`.
    pub(crate) fn write_solution(&self, x: &mut Vec<f64>) {
        x.clear();
        x.extend((0..self.n).map(|j| self.value(j)));
    }

    /// Solve from whatever basis is loaded: phase 1 if it is not primal
    /// feasible, then the primal simplex.
    pub(crate) fn solve(&mut self) -> Result<(), LpError> {
        self.forget_moves();
        self.compute_basics();
        self.priced = false;
        if self.leaving_row(false).is_some() {
            // Under a zero objective every basis is dual feasible, so the
            // dual simplex is a phase 1 with no artificial columns.
            let cost = std::mem::replace(&mut self.cost, vec![0.0; self.width]);
            self.d.fill(0.0);
            let end = self.dual(f64::INFINITY);
            self.cost = cost;
            self.compute_reduced_costs();
            self.priced = false;
            end?;
        }
        self.primal()
    }

    /// Re-solve after bound changes, warm from the basis the last solve —
    /// of *any* bounds — left behind, stopping early once the objective is
    /// known to reach `cutoff`.
    pub(crate) fn reoptimize(&mut self, cutoff: f64) -> Result<Reoptimized, LpError> {
        // Put every nonbasic column whose bounds changed — every one, if
        // the last solve did not end dual feasible — on the bound its
        // reduced cost likes.
        let mut dual_feasible = true;
        if self.priced {
            for t in 0..self.moved.len() {
                let j = self.moved[t].0;
                if self.row_of[j] == NONBASIC {
                    dual_feasible &= self.place(j);
                }
            }
        } else {
            for j in 0..self.width {
                if self.row_of[j] == NONBASIC {
                    dual_feasible &= self.place(j);
                }
            }
        }
        if !dual_feasible {
            // Only a column that is not boxed can do this; start over
            // from the basis at hand.
            self.solve()?;
            return Ok(if self.objective() >= cutoff {
                Reoptimized::Cutoff
            } else {
                Reoptimized::Optimal
            });
        }
        if self.priced {
            self.apply_moves();
        } else {
            self.forget_moves();
            self.compute_basics();
        }
        self.priced = true;
        self.dual(cutoff)
    }

    /// Put nonbasic column `j` on the bound its reduced cost likes (a
    /// column with `|d_j| ≤ EPS` stays where it is); false if that bound
    /// is infinite.
    fn place(&mut self, j: usize) -> bool {
        let d = self.d[j];
        let upper = d < -EPS || (d <= EPS && self.at_upper[j]);
        if upper && self.ub[j].is_infinite() {
            self.at_upper[j] = false;
            d >= -EPS
        } else {
            self.at_upper[j] = upper;
            true
        }
    }

    fn forget_moves(&mut self) {
        for &(j, _) in &self.moved {
            self.is_moved[j] = false;
        }
        self.moved.clear();
    }

    /// Move the basic values by what the changed columns moved.
    fn apply_moves(&mut self) {
        let w = self.width;
        for t in 0..self.moved.len() {
            let (j, was) = self.moved[t];
            self.is_moved[j] = false;
            let delta = self.value(j) - was;
            if self.row_of[j] == NONBASIC && delta != 0.0 {
                for (i, beta) in self.beta.iter_mut().enumerate() {
                    *beta -= self.tab[i * w + j] * delta;
                }
            }
        }
        self.moved.clear();
    }

    fn value(&self, j: usize) -> f64 {
        match self.row_of[j] {
            NONBASIC if self.at_upper[j] => self.ub[j],
            NONBASIC => self.lb[j],
            r => self.beta[r],
        }
    }

    /// `tab = [A | I]`, `rhs = b`: the tableau of the all-slack basis,
    /// written over an all-zero `tab`.
    fn load_rows(&mut self) {
        for (i, row) in self.rows.iter().enumerate() {
            let t = &mut self.tab[i * self.width..(i + 1) * self.width];
            for &(j, a) in row {
                t[j] = a;
            }
            t[self.n + i] = 1.0;
        }
        self.rhs.copy_from_slice(&self.b);
    }

    /// Basic values from the transformed right-hand side and the nonbasic
    /// columns that sit on a nonzero bound.
    fn compute_basics(&mut self) {
        self.beta.copy_from_slice(&self.rhs);
        for j in 0..self.width {
            if self.row_of[j] != NONBASIC {
                continue;
            }
            let v = self.value(j);
            if v != 0.0 {
                for (i, beta) in self.beta.iter_mut().enumerate() {
                    *beta -= self.tab[i * self.width + j] * v;
                }
            }
        }
    }

    /// `d = c − c_Bᵀ B⁻¹ [A | I]` from the true costs.
    fn compute_reduced_costs(&mut self) {
        self.d.copy_from_slice(&self.cost);
        for (i, &bi) in self.basis.iter().enumerate() {
            let cb = self.cost[bi];
            if cb != 0.0 {
                let row = &self.tab[i * self.width..(i + 1) * self.width];
                for (d, &a) in self.d.iter_mut().zip(row) {
                    *d -= cb * a;
                }
            }
        }
        for &bi in &self.basis {
            self.d[bi] = 0.0;
        }
    }

    /// For each row its slack cannot satisfy, make basic a column that
    /// appears in no other row and whose implied value is within its
    /// bounds. Such a pivot touches one row only.
    fn crash(&mut self) {
        let mut uses = vec![0usize; self.n];
        for row in &self.rows {
            for &(j, _) in row {
                uses[j] += 1;
            }
        }
        for i in 0..self.m {
            let slack = self.n + i;
            if self.beta[i] >= -EPS && self.beta[i] <= self.ub[slack] + EPS {
                continue;
            }
            // With the slack at 0, column `j` alone absorbs the row's residual.
            let pick = self.rows[i].iter().find_map(|&(j, a)| {
                let x = self.value(j) + self.beta[i] / a;
                let fits = x >= self.lb[j] - EPS && x <= self.ub[j] + EPS;
                (uses[j] == 1 && self.row_of[j] == NONBASIC && fits).then_some((j, x))
            });
            if let Some((j, x)) = pick {
                self.at_upper[slack] = false;
                self.load_supports(i, j);
                self.pivot(i, j);
                self.beta[i] = x;
            }
        }
    }

    /// The basic variable that most violates a bound — under Bland's rule
    /// the violating one with the smallest column index — and whether it
    /// is below its lower bound.
    fn leaving_row(&self, bland: bool) -> Option<(usize, bool)> {
        let mut pick: Option<(usize, bool)> = None;
        let mut worst = 0.0;
        for (i, &bi) in self.basis.iter().enumerate() {
            let (below, above) = (self.lb[bi] - self.beta[i], self.beta[i] - self.ub[bi]);
            let violation = below.max(above);
            if violation <= EPS {
                continue;
            }
            let better = if bland {
                pick.is_none_or(|(p, _)| bi < self.basis[p])
            } else {
                violation > worst
            };
            if better {
                worst = violation;
                pick = Some((i, below > above));
            }
        }
        pick
    }

    /// Dual simplex from a dual-feasible basis.
    fn dual(&mut self, cutoff: f64) -> Result<Reoptimized, LpError> {
        let w = self.width;
        let mut z = self.objective();
        for iter in 0..MAX_ITERS {
            if z >= cutoff {
                // `z` was carried incrementally; confirm before pruning.
                z = self.objective();
                if z >= cutoff {
                    return Ok(Reoptimized::Cutoff);
                }
            }
            if self.since_rederive >= REDERIVE_EVERY {
                self.rederive()?;
            }
            let bland = iter > 4 * (self.m + w);
            let Some((r, below)) = self.leaving_row(bland) else {
                return Ok(Reoptimized::Optimal);
            };
            // Entering column: the basic variable must move back toward
            // the bound it violates, and the smallest |d/α| keeps every
            // reduced cost on its feasible side.
            nonzeros(self.tab[r * w..(r + 1) * w].iter(), &mut self.piv_idx);
            let row = &self.tab[r * w..(r + 1) * w];
            let mut enter: Option<usize> = None;
            let (mut best_ratio, mut best_abs) = (f64::INFINITY, 0.0);
            for &j in &self.piv_idx {
                let a = row[j];
                if a.abs() <= EPS || self.row_of[j] != NONBASIC || self.lb[j] == self.ub[j] {
                    continue;
                }
                let raises = (a < 0.0) != self.at_upper[j];
                if raises != below {
                    continue;
                }
                let ratio = self.d[j].abs() / a.abs();
                let better = if ratio < best_ratio - TIE {
                    true
                } else if ratio <= best_ratio + TIE {
                    !bland && a.abs() > best_abs
                } else {
                    false
                };
                if better {
                    best_ratio = best_ratio.min(ratio);
                    best_abs = a.abs();
                    enter = Some(j);
                }
            }
            let Some(j) = enter else {
                return Err(LpError::Infeasible);
            };
            let leaving = self.basis[r];
            let bound = if below {
                self.lb[leaving]
            } else {
                self.ub[leaving]
            };
            let step = (self.beta[r] - bound) / self.tab[r * w + j];
            nonzeros(self.tab[j..].iter().step_by(w), &mut self.col_idx);
            for &i in &self.col_idx {
                self.beta[i] -= self.tab[i * w + j] * step;
            }
            z += self.d[j] * step;
            let entered_at = self.value(j) + step;
            self.at_upper[leaving] = !below;
            self.pivot(r, j);
            self.beta[r] = entered_at;
        }
        Err(LpError::IterationLimit)
    }

    /// Bounded primal simplex from a primal-feasible basis.
    fn primal(&mut self) -> Result<(), LpError> {
        let w = self.width;
        for iter in 0..MAX_ITERS {
            if self.since_rederive >= REDERIVE_EVERY {
                self.rederive()?;
            }
            let bland = iter > 4 * (self.m + w);
            // Pricing: a nonbasic column whose move off its bound lowers
            // the objective fastest (Bland: the first such).
            let mut enter: Option<usize> = None;
            let mut best = EPS;
            for j in 0..w {
                if self.row_of[j] != NONBASIC || self.lb[j] == self.ub[j] {
                    continue;
                }
                let gain = if self.at_upper[j] {
                    self.d[j]
                } else {
                    -self.d[j]
                };
                if gain > best {
                    best = gain;
                    enter = Some(j);
                    if bland {
                        break;
                    }
                }
            }
            let Some(j) = enter else {
                self.priced = true;
                return Ok(());
            };
            let dir = if self.at_upper[j] { -1.0 } else { 1.0 };
            nonzeros(self.tab[j..].iter().step_by(w), &mut self.col_idx);
            // Ratio test: how far the column can move before a basic
            // variable — or the column itself — hits a bound.
            let limit_of = |s: &Self, i: usize| -> Option<(f64, bool)> {
                let a = dir * s.tab[i * w + j];
                let bi = s.basis[i];
                if a > EPS {
                    Some((((s.beta[i] - s.lb[bi]) / a).max(0.0), false))
                } else if a < -EPS && s.ub[bi].is_finite() {
                    Some((((s.ub[bi] - s.beta[i]) / -a).max(0.0), true))
                } else {
                    None
                }
            };
            let mut step = self.ub[j] - self.lb[j];
            for &i in &self.col_idx {
                if let Some((limit, _)) = limit_of(self, i) {
                    step = step.min(limit);
                }
            }
            if step.is_infinite() {
                return Err(LpError::Unbounded);
            }
            let flips = self.ub[j] - self.lb[j] <= step;
            let mut leave: Option<(usize, bool)> = None;
            if !flips {
                let mut best_abs = 0.0;
                for &i in &self.col_idx {
                    let Some((limit, to_upper)) = limit_of(self, i) else {
                        continue;
                    };
                    if limit > step + TIE {
                        continue;
                    }
                    let a = self.tab[i * w + j].abs();
                    let better = if bland {
                        leave.is_none_or(|(l, _)| self.basis[i] < self.basis[l])
                    } else {
                        a > best_abs
                    };
                    if better {
                        best_abs = a;
                        leave = Some((i, to_upper));
                    }
                }
            }
            for &i in &self.col_idx {
                self.beta[i] -= dir * self.tab[i * w + j] * step;
            }
            match leave {
                None => {
                    self.at_upper[j] = !self.at_upper[j];
                    self.iterations += 1;
                }
                Some((r, to_upper)) => {
                    let entered_at = self.value(j) + dir * step;
                    self.at_upper[self.basis[r]] = to_upper;
                    nonzeros(self.tab[r * w..(r + 1) * w].iter(), &mut self.piv_idx);
                    self.pivot(r, j);
                    self.beta[r] = entered_at;
                }
            }
        }
        Err(LpError::IterationLimit)
    }

    /// Make column `c` the unit vector of row `r` (tableau and right-hand
    /// side only), with `piv_idx` and `col_idx` holding the nonzeros of
    /// row `r` and of column `c`. Work is proportional to the nonzeros of
    /// the pivot row times the nonzeros of the pivot column.
    fn eliminate(&mut self, r: usize, c: usize) {
        let w = self.width;
        let inv = 1.0 / self.tab[r * w + c];
        self.piv_val.clear();
        let row = &mut self.tab[r * w..(r + 1) * w];
        for &j in &self.piv_idx {
            row[j] *= inv;
            self.piv_val.push(row[j]);
        }
        row[c] = 1.0;
        self.rhs[r] *= inv;
        let pivot_rhs = self.rhs[r];
        for &i in &self.col_idx {
            if i == r {
                continue;
            }
            let factor = self.tab[i * w + c];
            let row = &mut self.tab[i * w..(i + 1) * w];
            for (&j, &v) in self.piv_idx.iter().zip(&self.piv_val) {
                let e = &mut row[j];
                *e -= factor * v;
                if e.abs() < DROP {
                    *e = 0.0;
                }
            }
            row[c] = 0.0;
            self.rhs[i] -= factor * pivot_rhs;
        }
    }

    /// `piv_idx` and `col_idx` ← the nonzeros of row `r` and of column `c`.
    fn load_supports(&mut self, r: usize, c: usize) {
        let w = self.width;
        nonzeros(self.tab[r * w..(r + 1) * w].iter(), &mut self.piv_idx);
        nonzeros(self.tab[c..].iter().step_by(w), &mut self.col_idx);
    }

    /// Bring column `c` into the basis at row `r`, with `piv_idx` and
    /// `col_idx` holding the nonzeros of row `r` and of column `c`.
    fn pivot(&mut self, r: usize, c: usize) {
        self.eliminate(r, c);
        let factor = self.d[c];
        if factor != 0.0 {
            for (&j, &v) in self.piv_idx.iter().zip(&self.piv_val) {
                self.d[j] -= factor * v;
            }
        }
        self.d[c] = 0.0;
        self.row_of[self.basis[r]] = NONBASIC;
        self.row_of[c] = r;
        self.basis[r] = c;
        self.iterations += 1;
        self.since_rederive += 1;
    }

    /// Recompute the whole tableau from the original rows and the current
    /// basis (Gauss–Jordan with partial pivoting over the basic columns),
    /// discarding whatever error in-place updates have accumulated.
    fn rederive(&mut self) -> Result<(), LpError> {
        let (n, m, w) = (self.n, self.m, self.width);
        self.tab.fill(0.0);
        self.load_rows();
        let old = std::mem::replace(&mut self.basis, vec![NONBASIC; m]);
        // A basic slack is already the unit vector of its own row, and no
        // later elimination can change that.
        for &c in old.iter().filter(|&&c| c >= n) {
            self.basis[c - n] = c;
        }
        let mut singular = false;
        for &c in old.iter().filter(|&&c| c < n) {
            let mut pick: Option<usize> = None;
            let mut best = EPS;
            for r in 0..m {
                let a = self.tab[r * w + c].abs();
                if self.basis[r] == NONBASIC && a > best {
                    best = a;
                    pick = Some(r);
                }
            }
            match pick {
                Some(r) => {
                    self.load_supports(r, c);
                    self.eliminate(r, c);
                    self.basis[r] = c;
                }
                None => singular = true,
            }
        }
        // A basis that lost a column to rounding is completed with the
        // slacks of the rows left over: still a basis, no longer one the
        // caller's loop can continue from.
        for r in 0..m {
            if self.basis[r] == NONBASIC {
                self.basis[r] = n + r;
            }
        }
        self.row_of.fill(NONBASIC);
        for (r, &c) in self.basis.iter().enumerate() {
            self.row_of[c] = r;
        }
        self.compute_reduced_costs();
        self.compute_basics();
        self.since_rederive = 0;
        if singular {
            self.priced = false;
            Err(LpError::IterationLimit)
        } else {
            Ok(())
        }
    }
}

/// `out` ← the positions of the nonzeros of `values`, ascending. No
/// branch depends on an entry: a tenth to a third of a CoPhy tableau row
/// is nonzero, in no pattern a branch predictor could learn.
fn nonzeros<'a>(values: impl ExactSizeIterator<Item = &'a f64>, out: &mut Vec<usize>) {
    out.clear();
    out.resize(values.len(), 0);
    let mut k = 0;
    for (j, &a) in values.enumerate() {
        out[k] = j;
        k += usize::from(a != 0.0);
    }
    out.truncate(k);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// SplitMix64: the whole random program comes from one drawn seed.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        pub(crate) fn real(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A random LP with `≤ / ≥ / =` rows, negative right-hand sides and —
    /// for every variable if `boxed`, else for about half — finite upper
    /// bounds.
    fn random_lp(rng: &mut Rng, boxed: bool) -> LinearProgram {
        let mut lp = LinearProgram::new();
        let n = 2 + rng.below(7);
        for _ in 0..n {
            let v = lp.add_var(rng.real(-5.0, 5.0));
            if boxed || rng.below(2) == 0 {
                lp.set_upper(v, rng.real(0.5, 8.0));
            }
        }
        for _ in 0..1 + rng.below(7) {
            let mut coeffs: Vec<(usize, f64)> = Vec::new();
            for v in 0..n {
                if rng.below(3) > 0 {
                    coeffs.push((v, rng.real(-3.0, 3.0)));
                }
            }
            let rel = [Relation::Le, Relation::Ge, Relation::Eq][rng.below(3)];
            lp.add_constraint(coeffs, rel, rng.real(-6.0, 10.0));
        }
        lp
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-7 * (1.0 + a.abs().max(b.abs()))
    }

    /// `lp` with `[lb, ub]` on each variable, for the two-phase oracle:
    /// upper bounds ride on the program, lower bounds become `≥` rows.
    fn with_bounds(lp: &LinearProgram, bounds: &[(f64, f64)]) -> LinearProgram {
        let mut bounded = lp.clone();
        for (v, &(lb, ub)) in bounds.iter().enumerate() {
            bounded.set_upper(v, ub);
            if lb > 0.0 {
                bounded.add_constraint(vec![(v, 1.0)], Relation::Ge, lb);
            }
        }
        bounded
    }

    /// Warm re-solve, cold engine solve and the two-phase oracle on the
    /// same bounds: one verdict, one objective.
    fn assert_warm_equals_cold(warm: &mut Simplex, lp: &LinearProgram, bounds: &[(f64, f64)]) {
        for (v, &(lb, ub)) in bounds.iter().enumerate() {
            warm.set_bounds(v, lb, ub);
        }
        let warm_end = warm.reoptimize(f64::INFINITY).map(|_| warm.objective());
        assert_cold_agrees(warm_end, lp, bounds);
    }

    /// A cold engine solve and the two-phase oracle on `bounds` reach the
    /// verdict and objective `warm_end` holds.
    fn assert_cold_agrees(
        warm_end: Result<f64, LpError>,
        lp: &LinearProgram,
        bounds: &[(f64, f64)],
    ) {
        let mut cold = Simplex::new(lp);
        for (v, &(lb, ub)) in bounds.iter().enumerate() {
            cold.set_bounds(v, lb, ub);
        }
        let cold_end = cold.solve().map(|()| cold.objective());
        let oracle = with_bounds(lp, bounds)
            .solve_with_fixed(&BTreeMap::new())
            .map(|s| s.objective);
        match (&warm_end, &cold_end, &oracle) {
            (Ok(w), Ok(c), Ok(o)) => {
                assert!(close(*w, *c), "warm {w} vs cold {c}");
                assert!(close(*w, *o), "warm {w} vs oracle {o}");
            }
            (Err(LpError::Infeasible), Err(LpError::Infeasible), Err(LpError::Infeasible)) => {}
            other => panic!("verdicts differ: {other:?}"),
        }
    }

    /// New bounds on one to three of the variables with a finite upper
    /// bound.
    fn random_bounds(rng: &mut Rng, lp: &LinearProgram, bounds: &mut [(f64, f64)]) {
        let boxed: Vec<usize> = (0..bounds.len())
            .filter(|&v| lp.upper[v].is_finite())
            .collect();
        if boxed.is_empty() {
            return;
        }
        for _ in 0..1 + rng.below(3) {
            let v = boxed[rng.below(boxed.len())];
            let ub = lp.upper[v];
            bounds[v] = match rng.below(5) {
                0 => (0.0, 0.0),
                1 => (ub, ub),
                2 => (0.0, ub),
                _ => {
                    let (a, b) = (rng.real(0.0, ub), rng.real(0.0, ub));
                    (a.min(b), a.max(b))
                }
            };
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn engine_agrees_with_the_two_phase_oracle(seed in 0u64..u64::MAX) {
            let lp = random_lp(&mut Rng(seed), false);
            let oracle = lp.solve_with_fixed(&BTreeMap::new());
            match (lp.solve(), oracle) {
                (Ok(new), Ok(old)) => {
                    prop_assert!(close(new.objective, old.objective),
                        "engine {} vs oracle {}", new.objective, old.objective);
                    prop_assert!(lp.objective_if_feasible(&new.x).is_some());
                }
                (Err(new), Err(old)) => prop_assert_eq!(new, old),
                (new, old) => panic!("verdicts differ: engine {new:?}, oracle {old:?}"),
            }
        }

        #[test]
        fn warm_resolve_equals_cold_solve(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let lp = random_lp(&mut rng, true);
            let mut warm = Simplex::new(&lp);
            // An infeasible or unbounded start still leaves a basis that
            // every later re-solve must be right from.
            let _ = warm.solve();
            let loose: Vec<(f64, f64)> = lp.upper.iter().map(|&ub| (0.0, ub)).collect();
            let mut bounds = loose.clone();
            let mut visited: Vec<Vec<(f64, f64)>> = Vec::new();
            for step in 0..24 {
                random_bounds(&mut rng, &lp, &mut bounds);
                assert_warm_equals_cold(&mut warm, &lp, &bounds);
                visited.push(bounds.clone());
                if step % 6 == 5 {
                    // Back to a node solved long ago, from a distant basis.
                    let old = visited[rng.below(visited.len())].clone();
                    assert_warm_equals_cold(&mut warm, &lp, &old);
                }
                if step % 8 == 7 {
                    // The periodic re-derivation must be invisible.
                    let (before, rows_before) = (warm.tab.clone(), warm.row_of.clone());
                    prop_assert!(warm.rederive().is_ok());
                    let w = warm.width;
                    let mut drift = 0.0f64;
                    for &c in &warm.basis {
                        // The same basis, its rows possibly in another order.
                        let (old, new) = (rows_before[c], warm.row_of[c]);
                        prop_assert!(old != NONBASIC);
                        for j in 0..w {
                            drift = drift.max((before[old * w + j] - warm.tab[new * w + j]).abs());
                        }
                    }
                    prop_assert!(drift < 1e-8, "re-derived tableau moved by {drift}");
                    assert_warm_equals_cold(&mut warm, &lp, &bounds);
                }
            }
            assert_warm_equals_cold(&mut warm, &lp, &loose);
        }

        /// Warm re-solves that tell the engine only the bounds that
        /// changed, so that it re-places and moves the basic values by
        /// those columns alone. Programs are `random_lp` and the CoPhy-
        /// shaped ones of `milp`'s property; steps jump back to old bounds
        /// and force a re-derivation mid-sequence. After every re-solve the
        /// carried basic values equal a recomputation, and the verdict and
        /// objective equal a cold solve's and the two-phase oracle's.
        #[test]
        fn warm_resolves_move_only_the_changed_columns(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let lp = if rng.below(2) == 0 {
                random_lp(&mut rng, true)
            } else {
                crate::milp::tests::prop::cophy_shaped(rng.next()).0.lp
            };
            let mut warm = Simplex::new(&lp);
            let _ = warm.solve();
            let mut bounds: Vec<(f64, f64)> = lp.upper.iter().map(|&ub| (0.0, ub)).collect();
            let mut visited = vec![bounds.clone()];
            for step in 0..30 {
                let before = bounds.clone();
                if step % 6 == 5 {
                    bounds = visited[rng.below(visited.len())].clone();
                } else {
                    random_bounds(&mut rng, &lp, &mut bounds);
                }
                for (v, (&(lb, ub), &was)) in bounds.iter().zip(&before).enumerate() {
                    if (lb, ub) != was {
                        warm.set_bounds(v, lb, ub);
                    }
                }
                let warm_end = warm.reoptimize(f64::INFINITY).map(|_| warm.objective());
                let carried = warm.beta.clone();
                warm.compute_basics();
                for (i, (&c, &b)) in carried.iter().zip(&warm.beta).enumerate() {
                    prop_assert!(close(c, b), "step {step}: basic value {i} carried {c}, recomputed {b}");
                }
                assert_cold_agrees(warm_end, &lp, &bounds);
                visited.push(bounds.clone());
                if step == 15 {
                    prop_assert!(warm.rederive().is_ok());
                }
            }
        }
    }

    #[test]
    fn rederivation_fires_on_its_own_and_changes_nothing() {
        // One long-lived engine, enough bound changes to cross
        // REDERIVE_EVERY several times.
        let mut rng = Rng(12);
        let mut lp = random_lp(&mut rng, true);
        while lp.solve().is_err() || lp.num_constraints() < 5 {
            lp = random_lp(&mut rng, true);
        }
        let mut warm = Simplex::new(&lp);
        warm.solve().unwrap();
        let mut bounds: Vec<(f64, f64)> = lp.upper.iter().map(|&ub| (0.0, ub)).collect();
        let mut rederived = 0;
        let mut last = warm.since_rederive;
        while rederived < 3 {
            random_bounds(&mut rng, &lp, &mut bounds);
            assert_warm_equals_cold(&mut warm, &lp, &bounds);
            if warm.since_rederive < last {
                rederived += 1;
            }
            last = warm.since_rederive;
        }
        assert!(warm.iterations() >= 3 * REDERIVE_EVERY);
    }

    #[test]
    fn crash_makes_singleton_columns_basic_and_skips_phase_one() {
        // CoPhy's shape: Σ_k y_k = 1 with y_0 in no other row.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0);
        lp.set_upper(x, 1.0);
        let y0 = lp.add_var(100.0);
        let y1 = lp.add_var(10.0);
        lp.add_constraint(vec![(y0, 1.0), (y1, 1.0)], Relation::Eq, 1.0);
        lp.add_constraint(vec![(y1, 1.0), (x, -1.0)], Relation::Le, 0.0);
        let mut s = Simplex::new(&lp);
        assert_eq!(s.row_of[y0], 0, "y0 is crashed into its own row");
        assert!(
            s.leaving_row(false).is_none(),
            "the crash basis is feasible"
        );
        s.solve().unwrap();
        assert!(close(s.objective(), 10.0));
    }

    #[test]
    fn cutoff_stops_a_resolve_early() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        lp.set_upper(x, 1.0);
        let y = lp.add_var(2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 1.0);
        let mut s = Simplex::new(&lp);
        s.solve().unwrap();
        assert!(close(s.objective(), 1.0));
        s.set_bounds(x, 0.0, 0.0);
        assert_eq!(s.reoptimize(1.5), Ok(Reoptimized::Cutoff));
        assert_eq!(s.reoptimize(f64::INFINITY), Ok(Reoptimized::Optimal));
        assert!(close(s.objective(), 2.0));
    }
}
