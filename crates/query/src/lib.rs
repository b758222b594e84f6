//! # pgdesign-query
//!
//! Query representation and workload tooling for the pgdesign toolkit.
//!
//! The paper's designer consumes "a database, a set of queries and resource
//! constraints". This crate supplies the middle piece:
//!
//! * [`ast`] — a structured representation of conjunctive select-project-
//!   join queries with grouping, ordering and aggregation: precisely the
//!   query class the underlying advisors (CoPhy, AutoPart, COLT) reason
//!   about;
//! * [`parser`] — a small SQL parser so workloads can be written as text,
//!   which is how a DBA would feed the demo tool;
//! * [`workload`] — weighted workloads and online query streams;
//! * [`generators`] — SDSS-style and TPC-H-style workload generators plus
//!   the drifting stream used by the continuous-tuning scenario.

#![forbid(unsafe_code)]

pub mod ast;
pub mod generators;
pub mod parser;
pub mod workload;

pub use ast::{
    Aggregate, CmpOp, FilterPredicate, JoinPredicate, OrderItem, PredOp, Query, QueryColumn,
    QueryTable,
};
pub use parser::{parse_query, ParseError};
pub use workload::{Workload, WorkloadEntry};
