//! # pgdesign-cophy
//!
//! CoPhy — automated physical design with quality guarantees (Dash,
//! Polyzotis, Ailamaki; the paper's automatic index suggestion component,
//! §3.2.1).
//!
//! CoPhy replaces the greedy search of commercial advisors with an exact
//! combinatorial formulation:
//!
//! * enumerate candidate indexes from the workload ([`pgdesign_optimizer::candidates`]);
//! * per query, build *atomic configurations* — small index sets a single
//!   plan can exploit jointly (at most one index per table slot), costed
//!   through the INUM cache ([`atomic`]);
//! * encode index selection as a binary integer program: pick one atomic
//!   configuration per query, pay each index's storage once, respect the
//!   storage budget, minimise total weighted workload cost, with one
//!   coupling row per (query, index) ([`formulation`]);
//! * presolve by pure comparisons on those configurations (no column for
//!   an index nothing uses or a configuration another one dominates;
//!   identical queries merge, queries no index helps become a constant,
//!   and a query one single index helps folds into that index's
//!   coefficient), then solve with branch-and-bound over the LP
//!   relaxation; the solver's bound certifies an optimality gap at any
//!   node budget — the paper's
//!   "trade off execution time against the quality of the suggested
//!   solutions", with effort counted in nodes so the answer never depends
//!   on the machine ([`advisor`]).
//!
//! A classic greedy advisor ([`greedy`]) doubles as the comparison baseline
//! and as the MILP warm start. [`merging`] augments
//! the candidate pool with pairwise index merges, the classic trick for
//! tight storage budgets.

#![forbid(unsafe_code)]

pub mod advisor;
pub mod atomic;
pub mod formulation;
pub mod greedy;
pub mod merging;

pub use advisor::{CophyAdvisor, CophyConfig, Recommendation};
pub use atomic::{AtomicConfig, QueryConfigs};
pub use greedy::greedy_select;
