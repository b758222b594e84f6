//! A reference executor over generated data.
//!
//! The designer never needs to execute queries — every advisor works from
//! estimates. But an estimator nobody can check is how demo-grade tools
//! stay demo-grade. This module actually runs the supported query class
//! (filter → equi-join → group/aggregate → order → limit) against
//! [`pgdesign_catalog::datagen::TableData`] samples, giving the test suite
//! ground truth to hold the selectivity model against: estimated
//! cardinalities must track actual row counts on data the statistics were
//! computed from.
//!
//! The implementation favours clarity over speed (hash joins and plain
//! sorts over 2k-row samples); it is a measuring stick, not an engine.

use pgdesign_catalog::datagen::TableData;
use pgdesign_catalog::types::Value;
use pgdesign_query::ast::{Aggregate, CmpOp, JoinPredicate, PredOp, Query, QueryColumn};
use std::collections::HashMap;
use std::fmt;

/// Execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// No data supplied for a slot.
    MissingData(u16),
    /// Data column count does not match the referenced ordinals.
    ColumnOutOfRange {
        /// The slot involved.
        slot: u16,
        /// The offending ordinal.
        column: u16,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MissingData(s) => write!(f, "no data for slot {s}"),
            ExecError::ColumnOutOfRange { slot, column } => {
                write!(f, "column {column} out of range for slot {slot}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// A materialized result set.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output rows; the column layout is the query's projection followed
    /// by its aggregates (for grouped queries: group columns then
    /// aggregates).
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Number of output rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Evaluate one filter predicate against a value.
pub fn eval_predicate(op: &PredOp, v: &Value) -> bool {
    match op {
        PredOp::Cmp(cmp, lit) => match v.sql_cmp(lit) {
            None => false,
            Some(ord) => match cmp {
                CmpOp::Eq => ord.is_eq(),
                CmpOp::Ne => ord.is_ne(),
                CmpOp::Lt => ord.is_lt(),
                CmpOp::Le => ord.is_le(),
                CmpOp::Gt => ord.is_gt(),
                CmpOp::Ge => ord.is_ge(),
            },
        },
        PredOp::Between(lo, hi) => {
            matches!(v.sql_cmp(lo), Some(o) if o.is_ge())
                && matches!(v.sql_cmp(hi), Some(o) if o.is_le())
        }
        PredOp::InList(vals) => vals.iter().any(|lit| v.sql_eq(lit)),
        PredOp::IsNull => v.is_null(),
        PredOp::IsNotNull => !v.is_null(),
    }
}

/// Row indices of `data` surviving the query's filters on `slot`.
fn filtered_rows(data: &TableData, query: &Query, slot: u16) -> Result<Vec<usize>, ExecError> {
    let mut alive: Vec<usize> = (0..data.rows()).collect();
    for f in query.filters_on(slot) {
        let col = data
            .columns
            .get(f.col.column as usize)
            .ok_or(ExecError::ColumnOutOfRange {
                slot,
                column: f.col.column,
            })?;
        alive.retain(|&r| eval_predicate(&f.op, &col[r]));
    }
    Ok(alive)
}

/// Join key usable in a hash map (NULL keys never match, mirroring SQL).
/// The other side of join `j` relative to `slot`.
fn other_side(j: &JoinPredicate, slot: u16) -> Option<QueryColumn> {
    if j.left.slot == slot {
        Some(j.right)
    } else if j.right.slot == slot {
        Some(j.left)
    } else {
        None
    }
}

fn join_key(v: &Value) -> Option<u64> {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    if v.is_null() {
        return None;
    }
    let mut h = DefaultHasher::new();
    // Numeric image keeps Int(2) == Float(2.0) consistent with sql_eq.
    v.numeric_image()?.to_bits().hash(&mut h);
    Some(h.finish())
}

/// Execute `query` against per-slot data samples.
///
/// `data[slot]` must hold the sample for the table behind that slot (the
/// same `TableData` may back several slots of a self-join).
pub fn execute(data: &[&TableData], query: &Query) -> Result<ResultSet, ExecError> {
    let n = query.slot_count() as usize;
    if data.len() < n {
        return Err(ExecError::MissingData(data.len() as u16));
    }

    // Tuples are vectors of per-slot row indices; grow by folding slots in
    // with hash joins (or cartesian products when no edge applies).
    let mut joined: Vec<Vec<usize>> = filtered_rows(data[0], query, 0)?
        .into_iter()
        .map(|r| vec![r])
        .collect();
    let mut bound: Vec<u16> = vec![0];

    while bound.len() < n {
        // Pick the next slot with a join edge into the bound set, else the
        // lowest unbound slot (cartesian).
        let next = (0..query.slot_count())
            .filter(|s| !bound.contains(s))
            .max_by_key(|&s| {
                query
                    .joins_on(s)
                    .filter(|j| other_side(j, s).is_some_and(|o| bound.contains(&o.slot)))
                    .count()
            })
            .expect("unbound slot exists");
        let right_rows = filtered_rows(data[next as usize], query, next)?;

        // Applicable equi-join edges between `next` and the bound set.
        let edges: Vec<(u16, u16, u16)> = query
            .joins_on(next)
            .filter_map(|j| {
                let mine = j.column_on(next)?;
                let other = other_side(j, next)?;
                bound
                    .contains(&other.slot)
                    .then_some((mine, other.slot, other.column))
            })
            .collect();

        let mut out: Vec<Vec<usize>> = Vec::new();
        if edges.is_empty() {
            for t in &joined {
                for &r in &right_rows {
                    let mut nt = t.clone();
                    nt.push(r);
                    out.push(nt);
                }
            }
        } else {
            // Hash the right side on the first edge, verify the rest.
            let (rcol, lslot, lcol) = edges[0];
            let rdata = &data[next as usize].columns[rcol as usize];
            let mut table: HashMap<u64, Vec<usize>> = HashMap::new();
            for &r in &right_rows {
                if let Some(k) = join_key(&rdata[r]) {
                    table.entry(k).or_default().push(r);
                }
            }
            let lpos = bound.iter().position(|&s| s == lslot).expect("bound");
            for t in &joined {
                let lval = &data[lslot as usize].columns[lcol as usize][t[lpos]];
                let Some(k) = join_key(lval) else { continue };
                let Some(matches) = table.get(&k) else {
                    continue;
                };
                'cand: for &r in matches {
                    // Verify all edges (incl. the hashed one: hash collisions).
                    for &(mc, os, oc) in &edges {
                        let op = bound.iter().position(|&s| s == os).expect("bound");
                        let left = &data[os as usize].columns[oc as usize][t[op]];
                        let right = &data[next as usize].columns[mc as usize][r];
                        if !left.sql_eq(right) {
                            continue 'cand;
                        }
                    }
                    let mut nt = t.clone();
                    nt.push(r);
                    out.push(nt);
                }
            }
        }
        joined = out;
        bound.push(next);
    }

    // Position of each slot in the tuple layout.
    let pos_of = |slot: u16| bound.iter().position(|&s| s == slot).expect("bound");
    let fetch = |t: &[usize], slot: u16, col: u16| -> Value {
        data[slot as usize].columns[col as usize][t[pos_of(slot)]].clone()
    };

    let mut rows: Vec<Vec<Value>>;
    if !query.group_by.is_empty() || !query.aggregates.is_empty() {
        // Group tuples by the group-by key (empty key = one global group).
        let mut groups: HashMap<String, (Vec<Value>, Vec<Vec<usize>>)> = HashMap::new();
        for t in &joined {
            let key_vals: Vec<Value> = query
                .group_by
                .iter()
                .map(|g| fetch(t, g.slot, g.column))
                .collect();
            let key = format!("{key_vals:?}");
            groups
                .entry(key)
                .or_insert_with(|| (key_vals, Vec::new()))
                .1
                .push(t.clone());
        }
        if groups.is_empty() && query.group_by.is_empty() {
            groups.insert(String::from("[]"), (Vec::new(), Vec::new()));
        }
        rows = Vec::with_capacity(groups.len());
        for (_, (key_vals, members)) in groups {
            let mut row = key_vals;
            for agg in &query.aggregates {
                row.push(eval_aggregate(agg, &members, &fetch));
            }
            rows.push(row);
        }
        // Deterministic order for grouped output.
        rows.sort();
    } else {
        rows = joined
            .iter()
            .map(|t| {
                if query.select_star {
                    let mut row = Vec::new();
                    for slot in 0..query.slot_count() {
                        for col in 0..data[slot as usize].columns.len() as u16 {
                            row.push(fetch(t, slot, col));
                        }
                    }
                    row
                } else {
                    query
                        .projection
                        .iter()
                        .map(|p| fetch(t, p.slot, p.column))
                        .collect()
                }
            })
            .collect();
        // ORDER BY.
        if !query.order_by.is_empty() {
            let keys: Vec<(usize, bool)> = query
                .order_by
                .iter()
                .filter_map(|o| {
                    query
                        .projection
                        .iter()
                        .position(|p| *p == o.col)
                        .map(|i| (i, o.desc))
                })
                .collect();
            rows.sort_by(|a, b| {
                for &(i, desc) in &keys {
                    let ord = a[i].cmp(&b[i]);
                    if !ord.is_eq() {
                        return if desc { ord.reverse() } else { ord };
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
    }

    if let Some(limit) = query.limit {
        rows.truncate(limit as usize);
    }
    Ok(ResultSet { rows })
}

fn eval_aggregate(
    agg: &Aggregate,
    members: &[Vec<usize>],
    fetch: &impl Fn(&[usize], u16, u16) -> Value,
) -> Value {
    let values = |c: pgdesign_query::ast::QueryColumn| -> Vec<f64> {
        members
            .iter()
            .filter_map(|t| fetch(t, c.slot, c.column).numeric_image())
            .collect()
    };
    match agg {
        Aggregate::CountStar => Value::Int(members.len() as i64),
        Aggregate::Count(c) => Value::Int(values(*c).len() as i64),
        Aggregate::Sum(c) => Value::Float(values(*c).iter().sum()),
        Aggregate::Avg(c) => {
            let v = values(*c);
            if v.is_empty() {
                Value::Null
            } else {
                Value::Float(v.iter().sum::<f64>() / v.len() as f64)
            }
        }
        Aggregate::Min(c) => values(*c)
            .into_iter()
            .min_by(f64::total_cmp)
            .map_or(Value::Null, Value::Float),
        Aggregate::Max(c) => values(*c)
            .into_iter()
            .max_by(f64::total_cmp)
            .map_or(Value::Null, Value::Float),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selectivity;
    use pgdesign_catalog::datagen::{analyze, generate, ColumnGen};
    use pgdesign_catalog::schema::SchemaBuilder;
    use pgdesign_catalog::types::DataType;
    use pgdesign_catalog::Catalog;
    use pgdesign_query::parse_query;

    /// Catalog + retained data for a two-table schema.
    fn setup(rows: u64) -> (Catalog, TableData, TableData) {
        let schema = SchemaBuilder::new()
            .table("t")
            .column("id", DataType::BigInt)
            .column("x", DataType::Int)
            .column("y", DataType::Float)
            .column("cat", DataType::Int)
            .table("u")
            .column("tid", DataType::BigInt)
            .column("z", DataType::Float)
            .build()
            .unwrap();
        let t_data = generate(
            &[
                ColumnGen::Sequential,
                ColumnGen::UniformInt { lo: 0, hi: 99 },
                ColumnGen::UniformFloat { lo: 0.0, hi: 1.0 },
                ColumnGen::Zipf { n: 5, s: 0.7 },
            ],
            rows,
            11,
        );
        let u_data = generate(
            &[
                ColumnGen::ForeignKey { parent_rows: rows },
                ColumnGen::UniformFloat { lo: 0.0, hi: 10.0 },
            ],
            rows / 2,
            12,
        );
        let stats_t = analyze(&t_data, rows);
        let stats_u = analyze(&u_data, rows / 2);
        (Catalog::new(schema, vec![stats_t, stats_u]), t_data, u_data)
    }

    #[test]
    fn filters_and_projection() {
        let (c, t, _) = setup(1000);
        let q = parse_query(&c.schema, "SELECT id FROM t WHERE x < 50").unwrap();
        let rs = execute(&[&t], &q).unwrap();
        assert!(!rs.is_empty());
        // Verify every surviving row actually satisfies the predicate.
        for row in &rs.rows {
            let id = match row[0] {
                Value::Int(i) => i as usize,
                _ => panic!("id must be int"),
            };
            match &t.columns[1][id] {
                Value::Int(x) => assert!(*x < 50),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn estimated_selectivity_tracks_actual() {
        let (c, t, _) = setup(2000);
        for (sql, col) in [
            ("SELECT id FROM t WHERE x < 25", 1u16),
            ("SELECT id FROM t WHERE x BETWEEN 10 AND 30", 1),
            ("SELECT id FROM t WHERE cat = 0", 3),
        ] {
            let q = parse_query(&c.schema, sql).unwrap();
            let actual = execute(&[&t], &q).unwrap().len() as f64 / t.rows() as f64;
            let stats = c.table_stats(q.table_of(0)).column(col);
            let est = selectivity::predicate_selectivity(stats, &q.filters[0].op);
            assert!(
                (est - actual).abs() < 0.08,
                "{sql}: estimated {est:.3} vs actual {actual:.3}"
            );
        }
    }

    #[test]
    fn hash_join_matches_nested_loop_semantics() {
        let (c, t, u) = setup(400);
        let q = parse_query(
            &c.schema,
            "SELECT t.id, u.z FROM t, u WHERE t.id = u.tid AND t.x < 50",
        )
        .unwrap();
        let rs = execute(&[&t, &u], &q).unwrap();
        // Brute-force the expected count.
        let mut expected = 0usize;
        for i in 0..t.rows() {
            let x_ok = matches!(&t.columns[1][i], Value::Int(x) if *x < 50);
            if !x_ok {
                continue;
            }
            for j in 0..u.rows() {
                if t.columns[0][i].sql_eq(&u.columns[0][j]) {
                    expected += 1;
                }
            }
        }
        assert_eq!(rs.len(), expected);
    }

    #[test]
    fn join_cardinality_estimate_tracks_actual() {
        let (c, t, u) = setup(2000);
        let q = parse_query(&c.schema, "SELECT t.id FROM t, u WHERE t.id = u.tid").unwrap();
        let actual = execute(&[&t, &u], &q).unwrap().len() as f64;
        let est = selectivity::slot_rows(&c, &q, 0)
            * selectivity::slot_rows(&c, &q, 1)
            * selectivity::join_predicate_selectivity(&c, &q, &q.joins[0]);
        // FK join: every u row matches exactly one t row → actual = |u|.
        assert_eq!(actual, u.rows() as f64);
        assert!(
            (est - actual).abs() / actual < 0.25,
            "estimated {est:.0} vs actual {actual:.0}"
        );
    }

    #[test]
    fn group_by_and_aggregates() {
        let (c, t, _) = setup(500);
        let q = parse_query(&c.schema, "SELECT cat, count(*) FROM t GROUP BY cat").unwrap();
        let rs = execute(&[&t], &q).unwrap();
        assert!(rs.len() <= 5, "five categories at most");
        let total: i64 = rs
            .rows
            .iter()
            .map(|r| match r[1] {
                Value::Int(n) => n,
                _ => 0,
            })
            .sum();
        assert_eq!(total, t.rows() as i64, "counts partition the table");
    }

    #[test]
    fn scalar_aggregates_over_empty_input() {
        let (c, t, _) = setup(100);
        let q = parse_query(&c.schema, "SELECT count(*), avg(y) FROM t WHERE x > 1000").unwrap();
        let rs = execute(&[&t], &q).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(0));
        assert!(rs.rows[0][1].is_null());
    }

    #[test]
    fn order_by_and_limit() {
        let (c, t, _) = setup(300);
        let q = parse_query(&c.schema, "SELECT id, y FROM t ORDER BY y DESC LIMIT 10").unwrap();
        let rs = execute(&[&t], &q).unwrap();
        assert_eq!(rs.len(), 10);
        for w in rs.rows.windows(2) {
            assert!(w[0][1] >= w[1][1], "descending order");
        }
    }

    #[test]
    fn missing_data_is_an_error() {
        let (c, t, _) = setup(50);
        let q = parse_query(&c.schema, "SELECT t.id FROM t, u WHERE t.id = u.tid").unwrap();
        assert!(matches!(execute(&[&t], &q), Err(ExecError::MissingData(_))));
    }

    #[test]
    fn null_join_keys_never_match() {
        let schema = SchemaBuilder::new()
            .table("a")
            .column("k", DataType::Int)
            .table("b")
            .column("k", DataType::Int)
            .build()
            .unwrap();
        let a = TableData {
            columns: vec![vec![Value::Int(1), Value::Null]],
        };
        let b = TableData {
            columns: vec![vec![Value::Null, Value::Int(1)]],
        };
        let q = parse_query(&schema, "SELECT a.k FROM a, b WHERE a.k = b.k").unwrap();
        let rs = execute(&[&a, &b], &q).unwrap();
        assert_eq!(rs.len(), 1, "only the 1 = 1 pair joins");
    }
}
