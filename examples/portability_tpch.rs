//! Portability: the identical designer pipeline on a TPC-H-like catalog.
//!
//! The paper claims the tool "can be ported to any relational DBMS, which
//! offers a query optimizer, a way to extract and create statistics, and
//! control over join operations". In this reproduction those are the
//! `Catalog` and `Optimizer` seams — so porting is: build a different
//! catalog. Nothing else changes: a 120-query TPC-H trace is tuned as is,
//! and the recommendation is checked against the what-if optimizer.
//!
//! ```sh
//! cargo run --release --example portability_tpch
//! ```

use pgdesign::Designer;
use pgdesign_catalog::design::PhysicalDesign;
use pgdesign_catalog::samples::tpch_catalog;
use pgdesign_query::generators::tpch_workload;

fn main() {
    let catalog = tpch_catalog(0.01);
    let trace = tpch_workload(&catalog, 120, 77);
    println!("workload: {} queries", trace.len());

    let designer = Designer::new(catalog);
    let report = designer.recommend(&trace, designer.catalog.data_bytes() / 2);
    println!("{report}");
    println!("Index definitions:");
    for idx in &report.indexes.indexes {
        println!(
            "  CREATE INDEX ON {};",
            idx.display(&designer.catalog.schema)
        );
    }

    // Sanity: the what-if optimizer agrees the design helps the trace.
    let cost_under = |design: &PhysicalDesign| -> f64 {
        trace
            .iter()
            .map(|(q, w)| w * designer.cost(design, q))
            .sum()
    };
    let (base, tuned) = (
        cost_under(&PhysicalDesign::empty()),
        cost_under(&report.design),
    );
    println!(
        "optimizer check: {base:.0} -> {tuned:.0} ({:.1}% benefit)",
        100.0 * (base - tuned).max(0.0) / base
    );
}
