//! Query AST: conjunctive select-project-join queries.
//!
//! Tables appear as *slots* (instances), so self-joins — common in the
//! SDSS workload via the `neighbors` table — are first-class: two slots may
//! reference the same [`TableId`] while predicates always name a slot.

use pgdesign_catalog::schema::TableId;
use pgdesign_catalog::types::Value;
use std::collections::BTreeSet;
use std::fmt;

/// One table instance in the FROM clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTable {
    /// The underlying catalog table.
    pub table: TableId,
    /// Optional alias (required to disambiguate self-joins).
    pub alias: Option<String>,
}

/// Reference to a column of a specific table slot in the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryColumn {
    /// Index into [`Query::tables`].
    pub slot: u16,
    /// Column ordinal within that table.
    pub column: u16,
}

impl QueryColumn {
    /// Construct from raw parts.
    pub fn new(slot: u16, column: u16) -> Self {
        QueryColumn { slot, column }
    }
}

impl fmt::Display for QueryColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}.c{}", self.slot, self.column)
    }
}

/// Comparison operators for sargable predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<>`
    Ne,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Ne => "<>",
        };
        f.write_str(s)
    }
}

/// The operation of a single-column filter predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum PredOp {
    /// `col <op> literal`
    Cmp(CmpOp, Value),
    /// `col BETWEEN lo AND hi`
    Between(Value, Value),
    /// `col IN (v1, ..., vk)`
    InList(Vec<Value>),
    /// `col IS NULL`
    IsNull,
    /// `col IS NOT NULL`
    IsNotNull,
}

impl PredOp {
    /// True for predicates a B-tree range scan can evaluate on a matching
    /// key prefix (everything except `<>` and the null tests).
    pub fn is_sargable(&self) -> bool {
        !matches!(
            self,
            PredOp::Cmp(CmpOp::Ne, _) | PredOp::IsNull | PredOp::IsNotNull
        )
    }

    /// True for equality-style predicates (point or small IN-list), which
    /// can anchor further key columns after them in an index prefix.
    pub fn is_equality(&self) -> bool {
        matches!(self, PredOp::Cmp(CmpOp::Eq, _) | PredOp::InList(_))
    }
}

/// A filter predicate on one column (conjunct of the WHERE clause).
#[derive(Debug, Clone, PartialEq)]
pub struct FilterPredicate {
    /// The restricted column.
    pub col: QueryColumn,
    /// The restriction.
    pub op: PredOp,
}

/// An equi-join predicate between two slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinPredicate {
    /// Left column.
    pub left: QueryColumn,
    /// Right column.
    pub right: QueryColumn,
}

impl JoinPredicate {
    /// The join column on `slot`, if this predicate touches it.
    pub fn column_on(&self, slot: u16) -> Option<u16> {
        if self.left.slot == slot {
            Some(self.left.column)
        } else if self.right.slot == slot {
            Some(self.right.column)
        } else {
            None
        }
    }
}

/// Aggregate functions in the SELECT list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Aggregate {
    /// `COUNT(*)`
    CountStar,
    /// `COUNT(col)`
    Count(QueryColumn),
    /// `SUM(col)`
    Sum(QueryColumn),
    /// `AVG(col)`
    Avg(QueryColumn),
    /// `MIN(col)`
    Min(QueryColumn),
    /// `MAX(col)`
    Max(QueryColumn),
}

impl Aggregate {
    /// The aggregated column, if any.
    pub fn column(&self) -> Option<QueryColumn> {
        match self {
            Aggregate::CountStar => None,
            Aggregate::Count(c)
            | Aggregate::Sum(c)
            | Aggregate::Avg(c)
            | Aggregate::Min(c)
            | Aggregate::Max(c) => Some(*c),
        }
    }
}

/// One ORDER BY item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderItem {
    /// Ordered column.
    pub col: QueryColumn,
    /// Descending?
    pub desc: bool,
}

/// A conjunctive select-project-join query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    /// Table slots (FROM clause).
    pub tables: Vec<QueryTable>,
    /// Projected plain columns (empty + `select_star` = `SELECT *`).
    pub projection: Vec<QueryColumn>,
    /// Aggregates in the SELECT list.
    pub aggregates: Vec<Aggregate>,
    /// True for `SELECT *`.
    pub select_star: bool,
    /// Conjunctive single-column filters.
    pub filters: Vec<FilterPredicate>,
    /// Equi-join predicates.
    pub joins: Vec<JoinPredicate>,
    /// GROUP BY columns.
    pub group_by: Vec<QueryColumn>,
    /// ORDER BY items.
    pub order_by: Vec<OrderItem>,
    /// LIMIT, if any.
    pub limit: Option<u64>,
}

impl Query {
    /// Number of table slots.
    pub fn slot_count(&self) -> u16 {
        self.tables.len() as u16
    }

    /// Catalog table behind a slot.
    pub fn table_of(&self, slot: u16) -> TableId {
        self.tables[slot as usize].table
    }

    /// Filters restricted to one slot.
    pub fn filters_on(&self, slot: u16) -> impl Iterator<Item = &FilterPredicate> {
        self.filters.iter().filter(move |f| f.col.slot == slot)
    }

    /// Join predicates touching one slot.
    pub fn joins_on(&self, slot: u16) -> impl Iterator<Item = &JoinPredicate> {
        self.joins
            .iter()
            .filter(move |j| j.left.slot == slot || j.right.slot == slot)
    }

    /// All columns of `slot` the query touches anywhere (projection,
    /// filters, joins, grouping, ordering, aggregation). Sorted, distinct.
    /// This is the column set a vertical fragment must supply.
    pub fn columns_used(&self, slot: u16) -> Vec<u16> {
        let mut cols: BTreeSet<u16> = BTreeSet::new();
        if self.select_star {
            // SELECT * touches every column; caller widens via schema.
            // Mark by returning an empty set sentinel is worse — instead
            // the caller must check `select_star` itself; here we gather
            // only the explicitly named columns.
        }
        for c in &self.projection {
            if c.slot == slot {
                cols.insert(c.column);
            }
        }
        for a in &self.aggregates {
            if let Some(c) = a.column() {
                if c.slot == slot {
                    cols.insert(c.column);
                }
            }
        }
        for f in &self.filters {
            if f.col.slot == slot {
                cols.insert(f.col.column);
            }
        }
        for j in &self.joins {
            if let Some(c) = j.column_on(slot) {
                cols.insert(c);
            }
        }
        for g in &self.group_by {
            if g.slot == slot {
                cols.insert(g.column);
            }
        }
        for o in &self.order_by {
            if o.col.slot == slot {
                cols.insert(o.col.column);
            }
        }
        cols.into_iter().collect()
    }

    /// Columns with sargable filters on a slot, equality columns first —
    /// the natural candidate-index column ordering.
    pub fn sargable_columns(&self, slot: u16) -> Vec<u16> {
        let mut eq: Vec<u16> = Vec::new();
        let mut rng: Vec<u16> = Vec::new();
        for f in self.filters_on(slot) {
            if !f.op.is_sargable() {
                continue;
            }
            let bucket = if f.op.is_equality() {
                &mut eq
            } else {
                &mut rng
            };
            if !bucket.contains(&f.col.column) {
                bucket.push(f.col.column);
            }
        }
        for c in rng {
            if !eq.contains(&c) {
                eq.push(c);
            }
        }
        eq
    }

    /// A short structural signature used for caching (INUM keys queries by
    /// template: same tables, joins, filtered columns — literals ignored).
    pub fn template_signature(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        for t in &self.tables {
            t.table.0.hash(&mut h);
        }
        for f in &self.filters {
            f.col.hash(&mut h);
            std::mem::discriminant(&f.op).hash(&mut h);
        }
        for j in &self.joins {
            j.left.hash(&mut h);
            j.right.hash(&mut h);
        }
        for g in &self.group_by {
            g.hash(&mut h);
        }
        for o in &self.order_by {
            o.col.hash(&mut h);
            o.desc.hash(&mut h);
        }
        self.select_star.hash(&mut h);
        for p in &self.projection {
            p.hash(&mut h);
        }
        h.finish()
    }
}

/// Fluent builder for [`Query`] in tests (workloads are parsed from SQL
/// or generated).
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct QueryBuilder {
    q: Query,
}

#[cfg(test)]
impl QueryBuilder {
    /// Start an empty query.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a table slot; returns the builder for chaining.
    pub fn table(mut self, table: TableId) -> Self {
        self.q.tables.push(QueryTable { table, alias: None });
        self
    }

    /// Add an aliased table slot.
    pub fn table_as(mut self, table: TableId, alias: &str) -> Self {
        self.q.tables.push(QueryTable {
            table,
            alias: Some(alias.to_string()),
        });
        self
    }

    /// Project a column.
    pub fn project(mut self, slot: u16, column: u16) -> Self {
        self.q.projection.push(QueryColumn::new(slot, column));
        self
    }

    /// SELECT *.
    pub fn star(mut self) -> Self {
        self.q.select_star = true;
        self
    }

    /// Add a comparison filter.
    pub fn filter(mut self, slot: u16, column: u16, op: CmpOp, v: impl Into<Value>) -> Self {
        self.q.filters.push(FilterPredicate {
            col: QueryColumn::new(slot, column),
            op: PredOp::Cmp(op, v.into()),
        });
        self
    }

    /// Add a BETWEEN filter.
    pub fn between(
        mut self,
        slot: u16,
        column: u16,
        lo: impl Into<Value>,
        hi: impl Into<Value>,
    ) -> Self {
        self.q.filters.push(FilterPredicate {
            col: QueryColumn::new(slot, column),
            op: PredOp::Between(lo.into(), hi.into()),
        });
        self
    }

    /// Add an equi-join between two slots.
    pub fn join(mut self, ls: u16, lc: u16, rs: u16, rc: u16) -> Self {
        self.q.joins.push(JoinPredicate {
            left: QueryColumn::new(ls, lc),
            right: QueryColumn::new(rs, rc),
        });
        self
    }

    /// Add a GROUP BY column.
    pub fn group_by(mut self, slot: u16, column: u16) -> Self {
        self.q.group_by.push(QueryColumn::new(slot, column));
        self
    }

    /// Add an ORDER BY column.
    pub fn order_by(mut self, slot: u16, column: u16, desc: bool) -> Self {
        self.q.order_by.push(OrderItem {
            col: QueryColumn::new(slot, column),
            desc,
        });
        self
    }

    /// Finish.
    pub fn build(self) -> Query {
        self.q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Query {
        QueryBuilder::new()
            .table(TableId(0))
            .table(TableId(1))
            .project(0, 2)
            .filter(0, 1, CmpOp::Eq, 5i64)
            .between(0, 3, 1i64, 9i64)
            .join(0, 0, 1, 1)
            .group_by(1, 2)
            .order_by(0, 2, false)
            .build()
    }

    #[test]
    fn columns_used_gathers_all_clauses() {
        let q = sample();
        assert_eq!(q.columns_used(0), vec![0, 1, 2, 3]);
        assert_eq!(q.columns_used(1), vec![1, 2]);
    }

    #[test]
    fn sargable_columns_put_equality_first() {
        let q = QueryBuilder::new()
            .table(TableId(0))
            .between(0, 5, 1i64, 2i64)
            .filter(0, 3, CmpOp::Eq, 7i64)
            .build();
        assert_eq!(q.sargable_columns(0), vec![3, 5]);
    }

    #[test]
    fn ne_and_null_tests_are_not_sargable() {
        assert!(!PredOp::Cmp(CmpOp::Ne, Value::Int(1)).is_sargable());
        assert!(!PredOp::IsNull.is_sargable());
        assert!(PredOp::Between(Value::Int(0), Value::Int(1)).is_sargable());
        assert!(PredOp::InList(vec![Value::Int(1)]).is_equality());
    }

    #[test]
    fn join_predicate_sides() {
        let j = JoinPredicate {
            left: QueryColumn::new(0, 4),
            right: QueryColumn::new(1, 7),
        };
        assert_eq!(j.column_on(0), Some(4));
        assert_eq!(j.column_on(1), Some(7));
        assert_eq!(j.column_on(2), None);
    }

    #[test]
    fn template_signature_ignores_literals() {
        let a = QueryBuilder::new()
            .table(TableId(0))
            .filter(0, 1, CmpOp::Eq, 5i64)
            .build();
        let b = QueryBuilder::new()
            .table(TableId(0))
            .filter(0, 1, CmpOp::Eq, 99i64)
            .build();
        let c = QueryBuilder::new()
            .table(TableId(0))
            .filter(0, 2, CmpOp::Eq, 5i64)
            .build();
        assert_eq!(a.template_signature(), b.template_signature());
        assert_ne!(a.template_signature(), c.template_signature());
    }

    #[test]
    fn self_join_slots_are_distinct() {
        let q = QueryBuilder::new()
            .table_as(TableId(2), "n1")
            .table_as(TableId(2), "n2")
            .join(0, 1, 1, 0)
            .build();
        assert_eq!(q.slot_count(), 2);
        assert_eq!(q.table_of(0), q.table_of(1));
        assert_eq!(q.columns_used(0), vec![1]);
        assert_eq!(q.columns_used(1), vec![0]);
    }

    #[test]
    fn aggregate_columns() {
        assert_eq!(Aggregate::CountStar.column(), None);
        assert_eq!(
            Aggregate::Sum(QueryColumn::new(0, 3)).column(),
            Some(QueryColumn::new(0, 3))
        );
    }
}
