//! Textual rendering of recommendations — the stand-in for the demo's GUI
//! panels (Figure 3's "list of suggested partitions ... individual query
//! benefit and the average workload benefit").

use crate::designer::{JointReport, OfflineReport};
use crate::health::ServiceHealth;
use pgdesign_inum::{InumStats, MatrixStats};
use std::fmt;

/// Counters from both INUM cache levels, captured after a tuning run —
/// what `pgdesign recommend --stats` prints.
#[derive(Debug, Clone, Copy, Default)]
pub struct TuningStats {
    /// First level: skeleton cache.
    pub inum: InumStats,
    /// Second level: precomputed cost matrices.
    pub matrix: MatrixStats,
    /// Generation of the latest published reader snapshot (0 = the
    /// build-time snapshot; each advise/publish bumps it).
    pub published_generation: u64,
    /// Configuration-cost lookups served to concurrent snapshot readers
    /// (lock-free; not included in `matrix.lookups`).
    pub reader_lookups: u64,
    /// What recovery did at session open — `Some` only for sessions opened
    /// through a durable entry point (`TuningSession::open_or_create` and
    /// friends).
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
}

impl fmt::Display for ColdStart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ColdStart::NoState => "no durable state found",
            ColdStart::SnapshotCorrupt => "snapshot failed verification",
            ColdStart::VersionSkew => "snapshot format version mismatch",
            ColdStart::CatalogChanged => "catalog shape changed",
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
    /// Log records dropped at a torn/corrupt tail (CRC or decode failure).
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
        writeln!(
            f,
            "   skeleton cache: {} cost calls ({} hits / {} misses, {} skeletons built \
             = order combinations planned)",
            self.inum.cost_calls,
            self.inum.cache_hits,
            self.inum.cache_misses,
            self.inum.skeletons_built
        )?;
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

/// Render the joint index + partition report (called from `JointReport`'s
/// `Display`).
pub fn render_joint(r: &JointReport, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let j = &r.joint;
    writeln!(
        f,
        "================ Joint index + partition recommendation ================"
    )?;
    writeln!(
        f,
        "Workload cost: {:.1} -> {:.1} (indexes alone {:.1})   Average workload benefit: {:.1}%",
        j.base_cost,
        j.cost,
        j.index_cost,
        100.0 * j.average_benefit()
    )?;
    writeln!(f)?;
    writeln!(f, "-- Suggested indexes ({}) --", j.indexes.len())?;
    writeln!(
        f,
        "   (storage: {:.1} MiB indexes + {:.1} MiB replicated fragments)",
        j.total_index_bytes as f64 / (1024.0 * 1024.0),
        j.replication_bytes as f64 / (1024.0 * 1024.0)
    )?;
    for (i, name) in r.index_display.iter().enumerate() {
        writeln!(f, "   [{}] {}", i + 1, name)?;
    }
    writeln!(f)?;
    writeln!(
        f,
        "-- Suggested partitions ({} merge iterations) --",
        j.partition_iterations
    )?;
    let verticals: Vec<_> = j.design.verticals().collect();
    let horizontals: Vec<_> = j.design.horizontals().collect();
    if verticals.is_empty() && horizontals.is_empty() {
        writeln!(f, "   (none beneficial)")?;
    }
    for vp in verticals {
        writeln!(
            f,
            "   table {:?}: {} vertical fragment(s)",
            vp.table,
            vp.groups.len()
        )?;
    }
    for hp in horizontals {
        writeln!(
            f,
            "   table {:?}: {} range partition(s) on column {}",
            hp.table,
            hp.partitions(),
            hp.column
        )?;
    }
    writeln!(f)?;
    writeln!(f, "-- Benefit per query --")?;
    for (i, (base, tuned)) in j.per_query.iter().enumerate() {
        let pct = if *base > 0.0 {
            100.0 * (base - tuned).max(0.0) / base
        } else {
            0.0
        };
        writeln!(
            f,
            "   Q{:<3} {:>12.1} -> {:>12.1}   ({pct:>5.1}%)",
            i + 1,
            base,
            tuned
        )?;
    }
    Ok(())
}

/// Render the scenario-2 report (called from `OfflineReport`'s `Display`).
pub fn render_offline(r: &OfflineReport, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    writeln!(
        f,
        "==================== Physical design recommendation ===================="
    )?;
    writeln!(
        f,
        "Workload cost: {:.1} -> {:.1}   Average workload benefit: {:.1}%",
        r.base_cost,
        r.combined_cost,
        100.0 * r.average_benefit()
    )?;
    writeln!(f)?;

    writeln!(f, "-- Suggested indexes ({}) --", r.indexes.indexes.len())?;
    writeln!(
        f,
        "   (storage: {:.1} MiB, solver gap: {:.2}%, status: {:?}, nodes: {}, pivots: {})",
        r.indexes.total_index_bytes as f64 / (1024.0 * 1024.0),
        100.0 * r.indexes.gap,
        r.indexes.status,
        r.indexes.nodes,
        r.indexes.pivots
    )?;
    for (i, name) in r.index_display.iter().enumerate() {
        writeln!(f, "   [{}] {}", i + 1, name)?;
    }
    writeln!(f)?;

    writeln!(f, "-- Suggested partitions --")?;
    let verticals: Vec<_> = r.partitions.design.verticals().collect();
    let horizontals: Vec<_> = r.partitions.design.horizontals().collect();
    if verticals.is_empty() && horizontals.is_empty() {
        writeln!(f, "   (none beneficial)")?;
    }
    for vp in verticals {
        writeln!(
            f,
            "   table {:?}: {} vertical fragment(s)",
            vp.table,
            vp.groups.len()
        )?;
    }
    for hp in horizontals {
        writeln!(
            f,
            "   table {:?}: {} range partition(s) on column {}",
            hp.table,
            hp.partitions(),
            hp.column
        )?;
    }
    writeln!(f)?;

    writeln!(f, "-- Benefit per query --")?;
    for (i, (base, tuned)) in r.per_query.iter().enumerate() {
        let pct = if *base > 0.0 {
            100.0 * (base - tuned).max(0.0) / base
        } else {
            0.0
        };
        writeln!(
            f,
            "   Q{:<3} {:>12.1} -> {:>12.1}   ({pct:>5.1}%)",
            i + 1,
            base,
            tuned
        )?;
    }
    writeln!(f)?;

    writeln!(
        f,
        "-- Index interactions: {} pair(s) above threshold --{}",
        r.graph.edge_count(),
        r.graph
            .sampling_note()
            .map_or(String::new(), |note| format!(" {note}"))
    )?;
    for (i, j, w) in r.graph.top_edges(5) {
        writeln!(f, "   doi(#{}, #{}) = {:.4}", i + 1, j + 1, w)?;
    }
    writeln!(f)?;

    writeln!(f, "-- Materialization schedule --")?;
    writeln!(
        f,
        "   interaction-aware order: {:?}   (area {:.1})",
        r.schedule.order.iter().map(|i| i + 1).collect::<Vec<_>>(),
        r.schedule.area
    )?;
    writeln!(
        f,
        "   naive order:             {:?}   (area {:.1})",
        r.naive_schedule
            .order
            .iter()
            .map(|i| i + 1)
            .collect::<Vec<_>>(),
        r.naive_schedule.area
    )?;
    if r.naive_schedule.area > 0.0 {
        writeln!(
            f,
            "   area saved by scheduling: {:.1}%",
            100.0 * (r.naive_schedule.area - r.schedule.area).max(0.0) / r.naive_schedule.area
        )?;
    }
    Ok(())
}
