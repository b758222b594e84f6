//! The [`Catalog`]: schema + statistics + base physical design.

use crate::design::PhysicalDesign;
use crate::schema::{Schema, TableId};
use crate::stats::{ColumnStats, TableStats};

/// Why a [`Catalog`] (or a statistics update) was rejected.
///
/// Statistics arrive from outside the system — an `ANALYZE` pipe, a
/// drift feed, an operator — so malformed input is a runtime condition,
/// not a bug: it must surface as an error the daemon can refuse, never
/// as a `NaN` that poisons every downstream f64 cost accumulation.
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogError {
    /// `stats.len()` does not match the number of schema tables.
    TableCountMismatch {
        /// Tables in the schema.
        expected: usize,
        /// Table-stats entries provided.
        got: usize,
    },
    /// A table's column-stats vector does not align with its columns.
    ColumnCountMismatch {
        /// The misaligned table.
        table: TableId,
        /// Columns in the schema.
        expected: usize,
        /// Column-stats entries provided.
        got: usize,
    },
    /// A statistic that feeds cost arithmetic is NaN or infinite.
    NonFinite {
        /// The offending table.
        table: TableId,
        /// The offending column ordinal.
        column: u16,
        /// Which field was non-finite.
        field: &'static str,
    },
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::TableCountMismatch { expected, got } => write!(
                f,
                "stats must be provided for every table (schema has {expected} tables, got {got})"
            ),
            CatalogError::ColumnCountMismatch {
                table,
                expected,
                got,
            } => write!(
                f,
                "column stats must align with table {table} ({expected} columns, got {got})"
            ),
            CatalogError::NonFinite {
                table,
                column,
                field,
            } => write!(
                f,
                "non-finite statistic `{field}` for table {table} column {column}"
            ),
        }
    }
}

impl std::error::Error for CatalogError {}

/// Every float in `col` that feeds cost arithmetic must be finite.
fn check_column_finite(table: TableId, column: u16, col: &ColumnStats) -> Result<(), CatalogError> {
    let err = |field: &'static str| CatalogError::NonFinite {
        table,
        column,
        field,
    };
    let fields: [(&'static str, f64); 6] = [
        ("ndv", col.ndv),
        ("null_frac", col.null_frac),
        ("min", col.min),
        ("max", col.max),
        ("avg_width", col.avg_width),
        ("correlation", col.correlation),
    ];
    for (name, v) in fields {
        if !v.is_finite() {
            return Err(err(name));
        }
    }
    for (v, frac) in &col.mcv {
        if !v.is_finite() || !frac.is_finite() {
            return Err(err("mcv"));
        }
    }
    if let Some(h) = &col.histogram {
        if h.bounds().iter().any(|b| !b.is_finite()) {
            return Err(err("histogram"));
        }
    }
    Ok(())
}

/// Validate one table's stats block against its schema definition.
fn check_table_stats(
    schema: &Schema,
    table: TableId,
    stats: &TableStats,
) -> Result<(), CatalogError> {
    let expected = schema.table(table).columns.len();
    if stats.columns.len() != expected {
        return Err(CatalogError::ColumnCountMismatch {
            table,
            expected,
            got: stats.columns.len(),
        });
    }
    for (ordinal, col) in stats.columns.iter().enumerate() {
        check_column_finite(table, ordinal as u16, col)?;
    }
    Ok(())
}

/// Single source of truth for everything the optimizer and the advisors
/// need to know about the database.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Logical schema.
    pub schema: Schema,
    /// Per-table statistics, aligned with table ids.
    pub stats: Vec<TableStats>,
    /// The *materialized* physical design (real indexes/partitions). The
    /// what-if layer overlays hypothetical designs on top of this.
    pub base_design: PhysicalDesign,
}

impl Catalog {
    /// Assemble a catalog; panics if the stats are misaligned or contain
    /// non-finite values. For input that arrives from outside the
    /// process (drift feeds, operator updates) use [`Self::try_new`],
    /// which returns the reason as a typed [`CatalogError`] instead.
    pub fn new(schema: Schema, stats: Vec<TableStats>) -> Self {
        match Self::try_new(schema, stats) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Assemble a catalog, rejecting misaligned stats and any NaN or
    /// infinite statistic with a typed error. This is the input edge
    /// that keeps poisoned floats out of the cost model: every
    /// selectivity, page estimate and matrix cell downstream assumes
    /// finite inputs.
    pub fn try_new(schema: Schema, stats: Vec<TableStats>) -> Result<Self, CatalogError> {
        if schema.len() != stats.len() {
            return Err(CatalogError::TableCountMismatch {
                expected: schema.len(),
                got: stats.len(),
            });
        }
        for t in schema.tables() {
            check_table_stats(&schema, t.id, &stats[t.id.0 as usize])?;
        }
        Ok(Catalog {
            schema,
            stats,
            base_design: PhysicalDesign::empty(),
        })
    }

    /// Replace one table's statistics (the mid-stream drift path),
    /// subject to the same alignment and finiteness validation as
    /// construction. On error the catalog is unchanged.
    pub fn update_table_stats(
        &mut self,
        table: TableId,
        stats: TableStats,
    ) -> Result<(), CatalogError> {
        let slot =
            self.stats
                .get_mut(table.0 as usize)
                .ok_or(CatalogError::TableCountMismatch {
                    expected: self.schema.len(),
                    got: table.0 as usize + 1,
                })?;
        check_table_stats(&self.schema, table, &stats)?;
        *slot = stats;
        Ok(())
    }

    /// Statistics of one table.
    pub fn table_stats(&self, table: TableId) -> &TableStats {
        &self.stats[table.0 as usize]
    }

    /// Row count of one table.
    pub fn row_count(&self, table: TableId) -> u64 {
        self.table_stats(table).row_count
    }

    /// Total bytes of base-table heap storage (the "data size" against
    /// which storage budgets like "0.5× data" are expressed).
    pub fn data_bytes(&self) -> u64 {
        self.schema
            .tables()
            .map(|t| {
                crate::sizing::pages_to_bytes(crate::sizing::heap_pages(
                    self.stats[t.id.0 as usize].row_count,
                    t.row_byte_width(),
                ))
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::types::DataType;

    fn tiny() -> Catalog {
        let schema = SchemaBuilder::new()
            .table("t")
            .column("a", DataType::Int)
            .column("b", DataType::Float)
            .build()
            .unwrap();
        let stats = vec![TableStats {
            row_count: 1000,
            columns: vec![
                ColumnStats::synthetic_key(1000, 4.0),
                ColumnStats::synthetic_uniform(0.0, 1.0, 100.0, 8.0),
            ],
        }];
        Catalog::new(schema, stats)
    }

    #[test]
    fn lookups_align() {
        let c = tiny();
        assert_eq!(c.row_count(TableId(0)), 1000);
        let col = c.schema.resolve("t", "b").unwrap();
        assert_eq!(c.table_stats(col.table).column(col.column).ndv, 100.0);
    }

    #[test]
    fn data_bytes_positive() {
        let c = tiny();
        assert!(c.data_bytes() >= crate::sizing::PAGE_SIZE);
    }

    #[test]
    #[should_panic(expected = "stats must be provided")]
    fn misaligned_stats_panic() {
        let schema = SchemaBuilder::new()
            .table("t")
            .column("a", DataType::Int)
            .build()
            .unwrap();
        Catalog::new(schema, vec![]);
    }

    #[test]
    fn non_finite_stats_are_rejected_with_a_typed_error() {
        let schema = SchemaBuilder::new()
            .table("t")
            .column("a", DataType::Int)
            .build()
            .unwrap();
        let poison = |mutate: fn(&mut ColumnStats)| {
            let mut col = ColumnStats::synthetic_key(1000, 4.0);
            mutate(&mut col);
            TableStats {
                row_count: 1000,
                columns: vec![col],
            }
        };
        for (field, stats) in [
            ("ndv", poison(|c| c.ndv = f64::NAN)),
            ("null_frac", poison(|c| c.null_frac = f64::INFINITY)),
            ("min", poison(|c| c.min = f64::NEG_INFINITY)),
            ("max", poison(|c| c.max = f64::NAN)),
            ("avg_width", poison(|c| c.avg_width = f64::NAN)),
            ("correlation", poison(|c| c.correlation = f64::NAN)),
            ("mcv", poison(|c| c.mcv = vec![(f64::NAN, 0.1)])),
        ] {
            match Catalog::try_new(schema.clone(), vec![stats]) {
                Err(CatalogError::NonFinite { field: got, .. }) => {
                    assert_eq!(got, field, "wrong field reported")
                }
                other => panic!("{field}: expected NonFinite, got {other:?}"),
            }
        }
    }

    #[test]
    fn stats_updates_validate_and_leave_catalog_unchanged_on_error() {
        let mut c = tiny();
        let before_ndv = c.table_stats(TableId(0)).column(1).ndv;
        // Poisoned drift is refused...
        let mut bad = c.table_stats(TableId(0)).clone();
        bad.columns[1].ndv = f64::NAN;
        assert!(matches!(
            c.update_table_stats(TableId(0), bad),
            Err(CatalogError::NonFinite { .. })
        ));
        assert_eq!(
            c.table_stats(TableId(0)).column(1).ndv,
            before_ndv,
            "a rejected update must not mutate the catalog"
        );
        // ...misaligned drift is refused...
        let mut short = c.table_stats(TableId(0)).clone();
        short.columns.pop();
        assert!(matches!(
            c.update_table_stats(TableId(0), short),
            Err(CatalogError::ColumnCountMismatch { .. })
        ));
        // ...and valid drift lands.
        let mut good = c.table_stats(TableId(0)).clone();
        good.row_count = 2000;
        assert!(c.update_table_stats(TableId(0), good).is_ok());
        assert_eq!(c.row_count(TableId(0)), 2000);
        // An out-of-range table id is an error, not a panic.
        assert!(c
            .update_table_stats(TableId(9), c.table_stats(TableId(0)).clone())
            .is_err());
    }
}
