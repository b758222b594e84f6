//! Textual rendering of recommendations — the stand-in for the demo's GUI
//! panels (Figure 3's "list of suggested partitions ... individual query
//! benefit and the average workload benefit").
//!
//! A report is built into one `String` pre-sized for its rows. The O(1)
//! header lines go through `write!`; every per-query row goes through
//! `push_query_row`, the one row format shared by the offline and
//! interactive reports, whose numbers the crate's fixed-point writer
//! (`fixed.rs`) writes with the exact rounding of `{:.1}` at a fraction of
//! core::fmt's cost. On a 200-query interactive session the rows were
//! most of a toggle step.

use crate::designer::OfflineReport;
use crate::fixed::{push_fixed, push_uint, Align};
use crate::health::ServiceHealth;
use pgdesign_catalog::design::PhysicalDesign;
use pgdesign_catalog::schema::Schema;
use pgdesign_inum::{InumStats, MatrixStats};
use std::fmt;
use std::fmt::Write as _;

/// Counters from both INUM cache levels, captured after a tuning run —
/// what `pgdesign recommend --stats` prints.
#[derive(Debug, Clone, Copy, Default)]
pub struct TuningStats {
    /// First level: skeleton cache.
    pub inum: InumStats,
    /// Second level: precomputed cost matrices.
    pub matrix: MatrixStats,
    /// Generation of the latest published reader snapshot (0 = the
    /// build-time snapshot; each advise and each publish bumps it by one).
    pub published_generation: u64,
    /// Configuration-cost lookups served to concurrent snapshot readers
    /// (lock-free; not included in `matrix.lookups`).
    pub reader_lookups: u64,
    /// What recovery did at session open — `Some` only for sessions opened
    /// durably (`TuningSession::open_or_create_on` and its interactive and
    /// online counterparts).
    pub recovery: Option<RecoveryStats>,
    /// The daemon's current service state (worst of the tuner's epoch
    /// ladder and the durable log's condition).
    pub health: ServiceHealth,
    /// Consecutive epochs that published nothing: how many generations
    /// behind the stream concurrent readers currently are. Reset to zero
    /// by any publish.
    pub stale_generations: u64,
    /// Transient durable-I/O retries that succeeded (session lifetime).
    pub io_retries: u64,
    /// Times the edit log suspended until a checkpoint (retry budget
    /// exhausted or an unretryable append error).
    pub io_suspensions: u64,
}

/// Why a durable session open fell back to a cold matrix build instead of
/// a warm restore. Recovery *degrades, never fails*: every variant here
/// means "started like a non-durable session", not an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColdStart {
    /// No snapshot on disk — first run against this state directory.
    NoState,
    /// The snapshot failed its magic/CRC/payload checks.
    SnapshotCorrupt,
    /// The snapshot was written by a different format version.
    VersionSkew,
    /// The catalog changed shape (table count) since the snapshot.
    CatalogChanged,
    /// The snapshot's cells were computed under other optimizer cost
    /// parameters or another join control.
    OptimizerChanged,
}

impl fmt::Display for ColdStart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ColdStart::NoState => "no durable state found",
            ColdStart::SnapshotCorrupt => "snapshot failed verification",
            ColdStart::VersionSkew => "snapshot format version mismatch",
            ColdStart::CatalogChanged => "catalog shape changed",
            ColdStart::OptimizerChanged => "optimizer configuration changed",
        })
    }
}

/// What recovery did when a durable session opened: how much resident
/// state the warm restart recovered, and what it had to drop or redo.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryStats {
    /// Matrix cells adopted straight from the snapshot file.
    pub snapshot_cells_loaded: u64,
    /// Edit-log records replayed on top of the snapshot.
    pub log_records_replayed: u64,
    /// Log records dropped at a torn/corrupt tail (CRC or decode failure),
    /// or after the last `Publish` record (a partly flushed append).
    pub log_records_dropped: u64,
    /// Cells recomputed because their table's catalog statistics changed
    /// since the snapshot was written.
    pub cells_invalidated_stale: u64,
    /// `Some(reason)` when the open fell back to a cold build.
    pub cold_start: Option<ColdStart>,
}

impl fmt::Display for RecoveryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.cold_start {
            Some(reason) => writeln!(f, "   recovery: cold start ({reason})"),
            None => {
                writeln!(
                    f,
                    "   recovery: {} snapshot cells loaded, {} log records replayed \
                     ({} dropped at torn tail)",
                    self.snapshot_cells_loaded, self.log_records_replayed, self.log_records_dropped
                )?;
                writeln!(
                    f,
                    "   recovery: {} cells invalidated by catalog staleness",
                    self.cells_invalidated_stale
                )
            }
        }
    }
}

impl fmt::Display for TuningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "-- INUM / cost-matrix statistics --")?;
        write!(
            f,
            "   skeleton cache: {} cost calls ({} hits / {} misses, {} skeletons built \
             = order combinations planned",
            self.inum.cost_calls,
            self.inum.cache_hits,
            self.inum.cache_misses,
            self.inum.skeletons_built
        )?;
        // Until an entry leaves the cache (COLT's window sweep, or a
        // statistics refresh), every miss is resident and the count says
        // nothing new.
        if self.inum.resident_entries != self.inum.cache_misses {
            write!(f, "; {} resident", self.inum.resident_entries)?;
        }
        writeln!(f, ")")?;
        writeln!(
            f,
            "   cost matrices:  {} built ({} cells computed, {} cells reused, {} partition cells)",
            self.matrix.builds,
            self.matrix.cells,
            self.matrix.cells_reused,
            self.matrix.partition_cells
        )?;
        writeln!(
            f,
            "   matrix build time: {:.1} ms (cold builds + incremental updates)",
            self.matrix.build_nanos as f64 / 1e6
        )?;
        writeln!(
            f,
            "   matrix lookups: {} ({} partition-aware)",
            self.matrix.lookups, self.matrix.partition_lookups
        )?;
        writeln!(
            f,
            "   published snapshot: generation {} ({} reader lookups served)",
            self.published_generation, self.reader_lookups
        )?;
        writeln!(
            f,
            "   estimated what-if optimizer calls avoided: {}",
            self.matrix.whatif_calls_avoided()
        )?;
        writeln!(
            f,
            "   health: {} ({} stale generations, {} io retries, {} log suspensions)",
            self.health, self.stale_generations, self.io_retries, self.io_suspensions
        )?;
        if let Some(recovery) = &self.recovery {
            write!(f, "{recovery}")?;
        }
        Ok(())
    }
}

/// Bytes reserved per table row: a per-query row is 48 with its indent
/// and newline, a trajectory row 58, plus room for a wide cost.
const ROW_BYTES: usize = 64;

/// Bytes reserved for a report's O(1) header and footer lines.
const FRAME_BYTES: usize = 1024;

/// A `String` pre-sized for a report with `rows` table rows.
pub(crate) fn report_buffer(rows: usize) -> String {
    String::with_capacity(FRAME_BYTES + rows * ROW_BYTES)
}

/// Append one per-query row, the one row format of every per-query
/// benefit table:
///
/// `{indent}Q{n:<3} {base:>12.1} -> {tuned:>12.1}   ({pct:>5.1}%)`
///
/// The caller computes `pct`, so each report keeps its own formula.
pub(crate) fn push_query_row(
    out: &mut String,
    indent: &str,
    n: usize,
    base: f64,
    tuned: f64,
    pct: f64,
) {
    out.push_str(indent);
    out.push('Q');
    push_uint(out, n as u64, 3, Align::Left);
    out.push(' ');
    push_fixed(out, base, 1, 12);
    out.push_str(" -> ");
    push_fixed(out, tuned, 1, 12);
    out.push_str("   (");
    push_fixed(out, pct, 1, 5);
    out.push_str("%)\n");
}

/// The suggested partitions of `design`, one line each, with table and
/// column names resolved through `schema` — what the offline report's
/// partition section prints.
pub(crate) fn partition_lines(design: &PhysicalDesign, schema: &Schema) -> Vec<String> {
    let verticals = design.verticals().map(|vp| {
        format!(
            "table {}: {} vertical fragment(s)",
            schema.table(vp.table).name,
            vp.groups.len()
        )
    });
    let horizontals = design.horizontals().map(|hp| {
        let table = schema.table(hp.table);
        format!(
            "table {}: {} range partition(s) on column {}",
            table.name,
            hp.partitions(),
            table.column(hp.column).name
        )
    });
    verticals.chain(horizontals).collect()
}

/// Render the scenario-2 report (what `OfflineReport`'s `Display`
/// writes).
pub fn render_offline(r: &OfflineReport) -> String {
    let mut out = report_buffer(r.per_query.len());
    let _ = writeln!(
        out,
        "==================== Physical design recommendation ===================="
    );
    let _ = writeln!(
        out,
        "Workload cost: {:.1} -> {:.1} (indexes alone {:.1})   Average workload benefit: {:.1}%",
        r.base_cost,
        r.combined_cost,
        r.indexes.cost,
        100.0 * r.average_benefit()
    );
    out.push('\n');

    let _ = writeln!(out, "-- Suggested indexes ({}) --", r.indexes.indexes.len());
    let _ = writeln!(
        out,
        "   (storage: {:.1} MiB indexes + {:.1} MiB replicated fragments, solver gap: {:.2}%, \
         status: {:?}, nodes: {}, pivots: {})",
        r.indexes.total_index_bytes as f64 / (1024.0 * 1024.0),
        r.replication_bytes as f64 / (1024.0 * 1024.0),
        100.0 * r.indexes.gap,
        r.indexes.status,
        r.indexes.nodes,
        r.indexes.pivots
    );
    for (i, name) in r.index_display.iter().enumerate() {
        let _ = writeln!(out, "   [{}] {}", i + 1, name);
    }
    out.push('\n');

    out.push_str("-- Suggested partitions --\n");
    if r.partition_display.is_empty() {
        out.push_str("   (none beneficial)\n");
    }
    for line in &r.partition_display {
        out.push_str("   ");
        out.push_str(line);
        out.push('\n');
    }
    out.push('\n');

    out.push_str("-- Benefit per query --\n");
    for (i, &(base, tuned)) in r.per_query.iter().enumerate() {
        let pct = if base > 0.0 {
            100.0 * (base - tuned).max(0.0) / base
        } else {
            0.0
        };
        push_query_row(&mut out, "   ", i + 1, base, tuned, pct);
    }
    out.push('\n');

    let _ = write!(
        out,
        "-- Index interactions: {} pair(s) above threshold --",
        r.graph.edge_count()
    );
    if let Some(note) = r.graph.sampling_note() {
        let _ = write!(out, " {note}");
    }
    out.push('\n');
    for (i, j, w) in r.graph.top_edges(5) {
        let _ = writeln!(out, "   doi(#{}, #{}) = {:.4}", i + 1, j + 1, w);
    }
    out.push('\n');

    out.push_str("-- Materialization schedule --\n");
    let _ = writeln!(
        out,
        "   interaction-aware order: {:?}   (area {:.1})",
        r.schedule.order.iter().map(|i| i + 1).collect::<Vec<_>>(),
        r.schedule.area
    );
    let _ = writeln!(
        out,
        "   naive order:             {:?}   (area {:.1})",
        r.naive_schedule
            .order
            .iter()
            .map(|i| i + 1)
            .collect::<Vec<_>>(),
        r.naive_schedule.area
    );
    if r.naive_schedule.area > 0.0 {
        let _ = writeln!(
            out,
            "   area saved by scheduling: {:.1}%",
            100.0 * (r.naive_schedule.area - r.schedule.area).max(0.0) / r.naive_schedule.area
        );
    }
    out
}
