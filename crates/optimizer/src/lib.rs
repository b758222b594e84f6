//! # pgdesign-optimizer
//!
//! A from-scratch System-R-style cost-based query optimizer with built-in
//! *what-if* support — the substrate the paper obtains by modifying
//! PostgreSQL's optimizer (§3.1).
//!
//! Every advisor in the toolkit treats the DBMS purely as a cost oracle:
//! "what would query *q* cost under physical design *D*?". This crate
//! answers that question:
//!
//! * [`params`] — PostgreSQL-flavoured cost constants
//!   (`seq_page_cost`, `random_page_cost`, `cpu_tuple_cost`, ...);
//! * [`selectivity`] — predicate and join selectivity estimation over the
//!   catalog's histograms/NDV/MCV statistics;
//! * [`access`] — per-relation access-path selection: sequential scan,
//!   index scan, index-only scan, bitmap heap scan, vertical-fragment scan,
//!   with horizontal partition pruning; this is where hypothetical indexes
//!   and partitions earn (or fail to earn) their keep;
//! * [`plan`] — physical plan trees with costs, cardinalities, delivered
//!   sort orders and an `EXPLAIN`-style renderer;
//! * [`join`] — dynamic-programming join enumeration with hash, merge and
//!   (index-)nested-loop methods and interesting-order tracking, over
//!   value-typed plan entries on a reusable [`JoinPlanner`];
//! * [`optimizer`] — the façade: [`Optimizer::optimize`] plus the INUM
//!   hooks ([`Optimizer::optimize_skeletons`], [`Optimizer::best_access`])
//!   and the what-if join control (§3.1's "what-if join component");
//! * [`candidates`] — candidate-index enumeration from a workload, shared
//!   by CoPhy, COLT and the interactive sessions;
//! * [`maintenance`] — index/partition upkeep costs under a write profile,
//!   folded into the advisors' objectives so write-heavy tables repel
//!   marginal indexes.
//!
//! A reference executor over generated data samples (`exec`, test-only)
//! is the selectivity model's oracle: estimated cardinalities must track
//! the row counts it actually produces. The join DP's oracle is the
//! tree-building planner it replaced (`oracle`, test-only): every
//! `optimize` plan and every INUM skeleton cost must equal that planner's,
//! bit for bit.
//!
//! The *what-if* property needs no special machinery: a
//! [`pgdesign_catalog::PhysicalDesign`] is just a value, so evaluating a
//! hypothetical configuration is calling [`Optimizer::optimize`] with a
//! different design — no structures are ever built. Crucially, hypothetical
//! indexes carry real size estimates (see `pgdesign_catalog::sizing`),
//! avoiding the zero-size fallacy the paper criticises.

#![forbid(unsafe_code)]

pub mod access;
pub mod candidates;
#[cfg(test)]
mod exec;
pub mod join;
pub mod maintenance;
pub mod optimizer;
#[cfg(test)]
mod oracle;
pub mod params;
pub mod plan;
pub mod selectivity;

pub use join::JoinPlanner;
pub use optimizer::{JoinControl, Optimizer, Skeleton};
pub use params::CostParams;
pub use plan::{Plan, PlanNode};
