//! # pgdesign
//!
//! **An automated, yet interactive and portable DB designer** — a Rust
//! reproduction of the SIGMOD 2010 demonstration by Alagiannis, Dash,
//! Schnaitter, Ailamaki and Polyzotis.
//!
//! The toolkit suggests physical designs (indexes and partitions) for both
//! offline and online workloads, on top of a built-in what-if cost-based
//! optimizer. It integrates:
//!
//! * **CoPhy** — index selection as a combinatorial optimization problem
//!   with certified optimality gaps ([`pgdesign_cophy`]);
//! * **AutoPart** — vertical/horizontal partition suggestion
//!   ([`pgdesign_autopart`]);
//! * **COLT** — continuous on-line tuning of single-column indexes
//!   ([`pgdesign_colt`]);
//! * **INUM** — the cache-based cost model that makes thousands of what-if
//!   calls affordable ([`pgdesign_inum`]);
//! * **Index interactions** — degree-of-interaction analysis, the Figure-2
//!   interaction graph, and interaction-aware materialization scheduling
//!   ([`pgdesign_interaction`]).
//!
//! The portability claim of the paper — "the tool is designed so that it
//! can be ported to any relational DBMS, which offers a query optimizer, a
//! way to extract and create statistics, and control over join operations"
//! — maps to this crate's seams: a [`pgdesign_catalog::Catalog`] supplies
//! schema + statistics, a [`pgdesign_optimizer::Optimizer`] supplies
//! costing with join-method control, and everything above is engine-
//! agnostic.
//!
//! ## Quick start
//!
//! ```
//! use pgdesign::Designer;
//! use pgdesign_catalog::samples::sdss_catalog;
//! use pgdesign_query::generators::sdss_workload;
//!
//! let catalog = sdss_catalog(0.01);               // SDSS-like, 100k objects
//! let workload = sdss_workload(&catalog, 9, 42);  // 9 queries
//! let designer = Designer::new(catalog);
//!
//! // Scenario 2: automatic design. Budget: half the data size.
//! let budget = designer.catalog.data_bytes() / 2;
//! let report = designer.recommend(&workload, budget);
//! assert!(report.combined_cost <= report.base_cost);
//! println!("{report}");
//! ```
//!
//! ## One session, one matrix
//!
//! All three modes run on one substrate: a [`TuningSession`] owning a
//! single persistent, incrementally-maintained cost matrix, with every
//! design search expressed as an [`Advisor`] against it.
//! [`InteractiveSession`] is a session view whose evaluations are pure
//! matrix lookups; [`OnlineSession`] rotates COLT's epochs through the
//! session matrix and hands the warm cells to any advisor asked for
//! mid-stream ([`OnlineSession::advise`]); the `recommend_*` methods
//! above are one-shot session wrappers. See [`session`] for the
//! matrix-sharing contract. For concurrent what-if serving,
//! [`TuningSession::reader`] hands out [`SessionReader`]s — cheap
//! `Clone + Send` handles costing configurations lock-free against the
//! latest published snapshot while the session keeps mutating.
//!
//! ```
//! use pgdesign::{Designer, IndexAdvisor, PartitionAdvisor};
//! use pgdesign_catalog::samples::sdss_catalog;
//! use pgdesign_query::generators::sdss_workload;
//!
//! let catalog = sdss_catalog(0.005);
//! let workload = sdss_workload(&catalog, 5, 7);
//! let designer = Designer::new(catalog);
//! let mut session = designer.tuning_session(workload);
//! let indexes = session.advise(&mut IndexAdvisor::default());
//! let partitions = session.advise(&mut PartitionAdvisor::default()); // same matrix, warm cells
//! assert!(indexes.cost <= indexes.base_cost);
//! assert!(partitions.cost <= partitions.base_cost + 1e-6);
//! assert_eq!(session.stats().matrix.builds, 1);
//! ```

#![forbid(unsafe_code)]

pub mod designer;
mod durable;
mod fixed;
pub mod health;
pub mod interactive;
pub mod online;
pub mod report;
pub mod session;

pub use designer::{Designer, OfflineReport, UnsupportedJoinControl};
pub use health::{DegradeReason, ServiceHealth};
pub use interactive::{BenefitReport, InteractiveSession};
pub use online::OnlineSession;
pub use report::{ColdStart, RecoveryStats, TuningStats};
pub use session::{
    Advisor, IndexAdvisor, InteractionAdvisor, OfflineAdvisor, PartitionAdvisor, SessionReader,
    TuningSession,
};

// Re-export the component crates under one roof.
pub use pgdesign_autopart as autopart;
pub use pgdesign_catalog as catalog;
pub use pgdesign_colt as colt;
pub use pgdesign_cophy as cophy;
pub use pgdesign_interaction as interaction;
pub use pgdesign_inum as inum;
pub use pgdesign_optimizer as optimizer;
pub use pgdesign_query as query;
pub use pgdesign_solver as solver;
