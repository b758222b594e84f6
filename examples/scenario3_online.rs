//! Demo scenario 3 — continuous tuning of a drifting workload.
//!
//! "This component monitors the behavior of the system when the workload
//! changes and suggests changes to the set of indexes. Our tool presents
//! the change in system's performance accruing from adopting the new
//! suggested indexes."
//!
//! ```sh
//! cargo run --release --example scenario3_online
//! ```

use pgdesign::{Designer, OfflineAdvisor, OnlineSession};
use pgdesign_catalog::samples::sdss_catalog;
use pgdesign_colt::ColtConfig;
use pgdesign_query::generators::DriftingStream;

fn main() {
    let catalog = sdss_catalog(0.01);
    let designer = Designer::new(catalog.clone());

    // A stream whose template mix shifts every 100 queries through four
    // phases: positional → photometric → spectro-join → operational.
    let mut stream = DriftingStream::sdss_default(catalog, 100, 7);

    let mut session = designer.online_session(ColtConfig {
        epoch_length: 25,
        storage_budget_bytes: designer.catalog.data_bytes() / 4,
        whatif_budget_per_epoch: 120,
        ewma_alpha: 0.6,
        payback_horizon_epochs: 6.0,
        epoch_deadline: None,
    });

    // Each epoch's report is handed out as the epoch closes; keep its
    // trajectory row and its alerts.
    let mut trajectory = OnlineSession::TRAJECTORY_HEADER.to_string();
    let mut alerts = Vec::new();
    for round in 0..12 {
        // 12 phases' worth of batches.
        let phase = stream.current_phase();
        for q in stream.batch(100) {
            if let Some(report) = session.observe(q) {
                trajectory += &OnlineSession::trajectory_row(report);
                alerts.extend(report.events.iter().cloned());
            }
        }
        println!(
            "after phase {phase}: {} on-line index(es)",
            session.current_design().index_count()
        );
        for idx in session.current_design().indexes() {
            println!("   {}", idx.display(&designer.catalog.schema));
        }

        if round == 5 {
            // The background-advisor handoff: mid-stream, ask the offline
            // advisor for a full index + partition recommendation. It runs against the
            // *same* session matrix COLT keeps warm — the statistics below
            // show the reused cells.
            let reused_before = session.tuning_stats().matrix.cells_reused;
            let report =
                session.advise(&mut OfflineAdvisor::new(designer.catalog.data_bytes() / 4));
            let reused = session.tuning_stats().matrix.cells_reused - reused_before;
            println!(
                "
== Mid-stream offline recommendation (warm matrix) =="
            );
            println!(
                "   cost {:.0} -> {:.0}; {} matrix cells reused from the online run",
                report.base_cost, report.combined_cost, reused
            );
            for name in &report.index_display {
                println!("   would CREATE INDEX ON {name};");
            }
            println!();
        }
    }

    println!("\n== Tuning trajectory ==");
    print!("{trajectory}");

    let (untuned, tuned) = session.cumulative_costs();
    println!(
        "\ncumulative workload cost: untuned {untuned:.0}, with COLT {tuned:.0} ({:.1}% saved)",
        100.0 * (untuned - tuned).max(0.0) / untuned
    );

    println!("\n== Session statistics (one persistent matrix) ==");
    print!("{}", session.tuning_stats());

    println!("\n== Alerts raised ==");
    for e in &alerts {
        match e {
            pgdesign_colt::ColtEvent::Materialize {
                epoch,
                index,
                build_cost,
            } => {
                println!(
                    "epoch {epoch}: MATERIALIZE {} (build cost {build_cost:.0})",
                    index.display(&designer.catalog.schema)
                );
            }
            pgdesign_colt::ColtEvent::Drop { epoch, index } => {
                println!(
                    "epoch {epoch}: DROP {}",
                    index.display(&designer.catalog.schema)
                );
            }
        }
    }
}
