//! Logical schema: tables, columns, and stable identifiers.
//!
//! Identifiers are small copy types so that the optimizer, the INUM cache
//! and the solvers can key hash maps on them cheaply.

use crate::types::DataType;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a table within a [`Schema`] (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Reference to a column: table plus 0-based column position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnRef {
    /// Owning table.
    pub table: TableId,
    /// Column ordinal within the table.
    pub column: u16,
}

impl ColumnRef {
    /// Construct a reference from raw parts.
    pub fn new(table: TableId, column: u16) -> Self {
        ColumnRef { table, column }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.c{}", self.table, self.column)
    }
}

/// Definition of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name, unique within its table.
    pub name: String,
    /// Data type.
    pub dtype: DataType,
}

/// Definition of one table.
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Identifier (position within the schema).
    pub id: TableId,
    /// Table name, unique within the schema.
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
    name_index: HashMap<String, u16>,
}

impl TableDef {
    /// Look up a column ordinal by name.
    pub fn column_by_name(&self, name: &str) -> Option<u16> {
        self.name_index.get(name).copied()
    }

    /// The column definition at `ordinal`, panicking on out-of-range — the
    /// schema is the authority, so out-of-range ordinals are logic errors.
    pub fn column(&self, ordinal: u16) -> &ColumnDef {
        &self.columns[ordinal as usize]
    }

    /// Number of columns.
    pub fn width(&self) -> u16 {
        self.columns.len() as u16
    }

    /// Sum of average byte widths of the given columns, i.e. the payload
    /// width of a projection or vertical fragment.
    pub fn byte_width_of(&self, columns: &[u16]) -> u32 {
        columns
            .iter()
            .map(|&c| self.columns[c as usize].dtype.byte_width())
            .sum()
    }

    /// Payload width of the full row.
    pub fn row_byte_width(&self) -> u32 {
        self.columns.iter().map(|c| c.dtype.byte_width()).sum()
    }
}

/// A complete logical schema.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    tables: Vec<TableDef>,
    by_name: HashMap<String, TableId>,
}

impl Schema {
    /// Iterate over all tables in id order.
    pub fn tables(&self) -> impl Iterator<Item = &TableDef> {
        self.tables.iter()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the schema holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// The table with the given id.
    // analyzer:allow(panic-freedom): TableId values originate from this
    // schema's own tables/by_name maps, never from external input; an
    // out-of-range id is a construction bug the panic should surface.
    pub fn table(&self, id: TableId) -> &TableDef {
        &self.tables[id.0 as usize]
    }

    /// Look up a table by name.
    pub fn table_by_name(&self, name: &str) -> Option<&TableDef> {
        self.by_name.get(name).map(|id| self.table(*id))
    }

    /// Resolve `table.column` names into a [`ColumnRef`].
    pub fn resolve(&self, table: &str, column: &str) -> Option<ColumnRef> {
        let t = self.table_by_name(table)?;
        let c = t.column_by_name(column)?;
        Some(ColumnRef::new(t.id, c))
    }
}

/// Errors raised while building a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// Two tables with the same name.
    DuplicateTable(String),
    /// Two columns with the same name in one table.
    DuplicateColumn {
        /// The table involved.
        table: String,
        /// The repeated column name.
        column: String,
    },
    /// A table with no columns.
    EmptyTable(String),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::DuplicateTable(t) => write!(f, "duplicate table name {t:?}"),
            SchemaError::DuplicateColumn { table, column } => {
                write!(f, "duplicate column {column:?} in table {table:?}")
            }
            SchemaError::EmptyTable(t) => write!(f, "table {t:?} has no columns"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// Fluent builder for [`Schema`].
///
/// ```
/// use pgdesign_catalog::schema::SchemaBuilder;
/// use pgdesign_catalog::types::DataType;
///
/// let schema = SchemaBuilder::new()
///     .table("photoobj")
///     .column("objid", DataType::BigInt)
///     .column("ra", DataType::Float)
///     .column("dec", DataType::Float)
///     .table("specobj")
///     .column("specobjid", DataType::BigInt)
///     .column("bestobjid", DataType::BigInt)
///     .build()
///     .unwrap();
/// assert_eq!(schema.len(), 2);
/// assert!(schema.resolve("photoobj", "ra").is_some());
/// ```
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    tables: Vec<(String, Vec<ColumnDef>)>,
}

impl SchemaBuilder {
    /// Start an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin a new table; subsequent `column` calls attach to it.
    pub fn table(mut self, name: &str) -> Self {
        self.tables.push((name.to_string(), Vec::new()));
        self
    }

    /// Add a column to the current table. (How many of its values are
    /// NULL is a statistic: [`crate::stats::ColumnStats::null_frac`].)
    pub fn column(mut self, name: &str, dtype: DataType) -> Self {
        let (_, cols) = self
            .tables
            .last_mut()
            .expect("column() called before table()");
        cols.push(ColumnDef {
            name: name.to_string(),
            dtype,
        });
        self
    }

    /// Validate and produce the immutable [`Schema`].
    pub fn build(self) -> Result<Schema, SchemaError> {
        let mut schema = Schema::default();
        for (name, columns) in self.tables {
            if columns.is_empty() {
                return Err(SchemaError::EmptyTable(name));
            }
            if schema.by_name.contains_key(&name) {
                return Err(SchemaError::DuplicateTable(name));
            }
            let id = TableId(schema.tables.len() as u32);
            let mut name_index = HashMap::with_capacity(columns.len());
            for (i, c) in columns.iter().enumerate() {
                if name_index.insert(c.name.clone(), i as u16).is_some() {
                    return Err(SchemaError::DuplicateColumn {
                        table: name,
                        column: c.name.clone(),
                    });
                }
            }
            schema.by_name.insert(name.clone(), id);
            schema.tables.push(TableDef {
                id,
                name,
                columns,
                name_index,
            });
        }
        Ok(schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Schema {
        SchemaBuilder::new()
            .table("t1")
            .column("a", DataType::Int)
            .column("b", DataType::Float)
            .table("t2")
            .column("a", DataType::BigInt)
            .column("z", DataType::Text { avg_len: 10 })
            .build()
            .unwrap()
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let s = demo();
        assert_eq!(s.table_by_name("t1").unwrap().id, TableId(0));
        assert_eq!(s.table_by_name("t2").unwrap().id, TableId(1));
    }

    #[test]
    fn resolve_qualified_names() {
        let s = demo();
        let b = s.resolve("t1", "b").unwrap();
        assert_eq!(b, ColumnRef::new(TableId(0), 1));
        assert!(s.resolve("t1", "z").is_none());
        assert!(s.resolve("nope", "a").is_none());
    }

    #[test]
    fn duplicate_table_rejected() {
        let err = SchemaBuilder::new()
            .table("t")
            .column("a", DataType::Int)
            .table("t")
            .column("a", DataType::Int)
            .build()
            .unwrap_err();
        assert_eq!(err, SchemaError::DuplicateTable("t".into()));
    }

    #[test]
    fn duplicate_column_rejected() {
        let err = SchemaBuilder::new()
            .table("t")
            .column("a", DataType::Int)
            .column("a", DataType::Int)
            .build()
            .unwrap_err();
        assert!(matches!(err, SchemaError::DuplicateColumn { .. }));
    }

    #[test]
    fn empty_table_rejected() {
        let err = SchemaBuilder::new().table("t").build().unwrap_err();
        assert_eq!(err, SchemaError::EmptyTable("t".into()));
    }

    #[test]
    fn byte_widths_accumulate() {
        let s = demo();
        let t2 = s.table_by_name("t2").unwrap();
        assert_eq!(t2.row_byte_width(), 8 + 11);
        assert_eq!(t2.byte_width_of(&[0]), 8);
    }
}
