//! # pgdesign-solver
//!
//! A self-contained linear and mixed-integer optimization kit.
//!
//! CoPhy casts index selection as a *convex combinatorial optimization
//! problem* and hands it to "sophisticated and mature solvers" (the paper,
//! §1). Shipping CPLEX is not an option for an open-source reproduction,
//! so this crate implements the contract CoPhy relies on:
//!
//! * [`lp`] — the linear-program model (minimization, `≤ / ≥ / =` rows,
//!   variables in `[0, u]` with the bound carried by the column), solved
//!   by a bounded-variable simplex engine: primal simplex for a cold
//!   solve, dual simplex to re-solve in place after bound changes;
//! * [`milp`] — depth-first branch-and-bound over the LP relaxation with
//!   binary variables, warm starts and reduced-cost fixing. The whole tree
//!   shares one live tableau: a node is its fixings applied as bounds plus
//!   a dual-simplex re-solve from the basis the previous node left — its
//!   parent's, while the search dives. The one budget is a
//!   node count — no clock is read, so the answer does not depend on the
//!   machine — and, crucially for CoPhy's "quality guarantees", a
//!   certified optimality *gap* between the incumbent and the best LP
//!   bound is reported wherever the search stops;
//! * [`knapsack`] — greedy and exact 0/1 knapsack used by COLT's storage-
//!   budgeted index retention and as a warm-start heuristic.
//!
//! Storage is one dense tableau, updated with work proportional to the
//! nonzeros a pivot touches. That suits the benchmark's programs (tens of
//! rows). A revised simplex over sparse columns was measured slower there,
//! and faster on `recommend --workload builtin:320` and `builtin:1280`; it
//! waits for a benchmark workload of that size (ROADMAP item 4(b)).

#![forbid(unsafe_code)]

pub mod knapsack;
pub mod lp;
pub mod milp;
mod simplex;
#[cfg(test)]
mod two_phase;

pub use lp::{LinearProgram, LpError, LpSolution, Relation};
pub use milp::{Milp, MilpOptions, MilpResult, MilpStatus};
