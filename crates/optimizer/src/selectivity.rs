//! Predicate and join selectivity estimation.
//!
//! Follows PostgreSQL's clause-level estimators (`eqsel`, `scalarltsel`,
//! `eqjoinsel`) over the catalog statistics, with independence assumed
//! between conjuncts — the assumption every advisor in the paper also
//! inherits from the host optimizer.

use pgdesign_catalog::stats::ColumnStats;
use pgdesign_catalog::Catalog;
use pgdesign_query::ast::{CmpOp, FilterPredicate, PredOp, Query};

/// Selectivity of a single filter predicate against column statistics.
pub fn predicate_selectivity(stats: &ColumnStats, op: &PredOp) -> f64 {
    let sel = match op {
        PredOp::Cmp(cmp, v) => {
            let Some(image) = v.numeric_image() else {
                // Comparison against NULL selects nothing.
                return 0.0;
            };
            match cmp {
                CmpOp::Eq => stats.eq_selectivity(image),
                CmpOp::Ne => (1.0 - stats.null_frac - stats.eq_selectivity(image)).max(0.0),
                CmpOp::Lt => {
                    stats.range_selectivity(None, Some(image))
                        - stats.eq_selectivity(image).min(0.5)
                }
                CmpOp::Le => stats.range_selectivity(None, Some(image)),
                CmpOp::Gt => {
                    (1.0 - stats.null_frac - stats.range_selectivity(None, Some(image))).max(0.0)
                }
                CmpOp::Ge => (1.0 - stats.null_frac - stats.range_selectivity(None, Some(image))
                    + stats.eq_selectivity(image))
                .max(0.0),
            }
        }
        PredOp::Between(lo, hi) => {
            match (lo.numeric_image(), hi.numeric_image()) {
                (Some(l), Some(h)) if l <= h => stats.range_selectivity(Some(l), Some(h)),
                (Some(_), Some(_)) => 0.0, // empty range
                _ => 0.0,
            }
        }
        PredOp::InList(vals) => {
            let mut s = 0.0;
            for v in vals {
                if let Some(image) = v.numeric_image() {
                    s += stats.eq_selectivity(image);
                }
            }
            s
        }
        PredOp::IsNull => stats.null_frac,
        PredOp::IsNotNull => 1.0 - stats.null_frac,
    };
    sel.clamp(0.0, 1.0)
}

/// Selectivity of one filter in the context of a query and catalog.
pub fn filter_selectivity(catalog: &Catalog, query: &Query, f: &FilterPredicate) -> f64 {
    let table = query.table_of(f.col.slot);
    let stats = catalog.table_stats(table).column(f.col.column);
    predicate_selectivity(stats, &f.op)
}

/// Combined selectivity of all filters on a slot (independence assumed),
/// clamped away from zero so cardinalities never vanish entirely.
pub fn slot_selectivity(catalog: &Catalog, query: &Query, slot: u16) -> f64 {
    let mut s = 1.0;
    for f in query.filters_on(slot) {
        s *= filter_selectivity(catalog, query, f);
    }
    s.max(1e-9)
}

/// Estimated output rows of a slot after its pushed-down filters.
pub fn slot_rows(catalog: &Catalog, query: &Query, slot: u16) -> f64 {
    let table = query.table_of(slot);
    let base = catalog.row_count(table) as f64;
    (base * slot_selectivity(catalog, query, slot)).max(1.0)
}

/// Equi-join selectivity between two columns: `1 / max(ndv_l, ndv_r)`
/// (PostgreSQL's `eqjoinsel` without MCV matching).
pub fn join_selectivity(l: &ColumnStats, r: &ColumnStats) -> f64 {
    let d = l.ndv.max(r.ndv).max(1.0);
    (1.0 / d).clamp(1e-12, 1.0)
}

/// Join selectivity for a specific join predicate of a query.
pub fn join_predicate_selectivity(
    catalog: &Catalog,
    query: &Query,
    j: &pgdesign_query::ast::JoinPredicate,
) -> f64 {
    let ls = catalog
        .table_stats(query.table_of(j.left.slot))
        .column(j.left.column);
    let rs = catalog
        .table_stats(query.table_of(j.right.slot))
        .column(j.right.column);
    join_selectivity(ls, rs)
}

/// Number of groups a GROUP BY produces: joint NDV of the grouping
/// columns, capped by input rows.
#[cfg(test)]
pub(crate) fn group_count(catalog: &Catalog, query: &Query, input_rows: f64) -> f64 {
    if query.group_by.is_empty() {
        return 1.0;
    }
    group_ndv(catalog, query).min(input_rows).max(1.0)
}

/// The product of the GROUP BY columns' distinct-value counts: the group
/// count before it is capped by the input rows. Depends on the
/// query alone, so a planner costing many inputs computes it once.
pub fn group_ndv(catalog: &Catalog, query: &Query) -> f64 {
    let mut ndv = 1.0f64;
    for g in &query.group_by {
        let stats = catalog.table_stats(query.table_of(g.slot)).column(g.column);
        ndv *= stats.ndv.max(1.0);
    }
    ndv
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_catalog::types::Value;
    use pgdesign_query::parse_query;

    fn catalog() -> Catalog {
        sdss_catalog(0.01)
    }

    fn column<'a>(c: &'a Catalog, name: &str) -> &'a ColumnStats {
        let col = c.schema.resolve("photoobj", name).unwrap();
        c.table_stats(col.table).column(col.column)
    }

    #[test]
    fn equality_on_key_is_tiny() {
        let c = catalog();
        let q = parse_query(&c.schema, "SELECT ra FROM photoobj WHERE objid = 5").unwrap();
        let s = filter_selectivity(&c, &q, &q.filters[0]);
        assert!(s < 1e-4, "key equality should be selective: {s}");
    }

    #[test]
    fn range_narrower_is_more_selective() {
        let c = catalog();
        let narrow = parse_query(
            &c.schema,
            "SELECT ra FROM photoobj WHERE ra BETWEEN 10 AND 20",
        )
        .unwrap();
        let wide = parse_query(
            &c.schema,
            "SELECT ra FROM photoobj WHERE ra BETWEEN 10 AND 200",
        )
        .unwrap();
        let sn = filter_selectivity(&c, &narrow, &narrow.filters[0]);
        let sw = filter_selectivity(&c, &wide, &wide.filters[0]);
        assert!(sn < sw);
        assert!(sw < 1.0);
    }

    #[test]
    fn lt_plus_ge_covers_domain() {
        let c = catalog();
        let q = parse_query(&c.schema, "SELECT ra FROM photoobj WHERE ra < 180").unwrap();
        let q2 = parse_query(&c.schema, "SELECT ra FROM photoobj WHERE ra >= 180").unwrap();
        let s1 = filter_selectivity(&c, &q, &q.filters[0]);
        let s2 = filter_selectivity(&c, &q2, &q2.filters[0]);
        assert!((s1 + s2 - 1.0).abs() < 0.05, "{s1} + {s2} should ≈ 1");
    }

    #[test]
    fn in_list_sums_equalities() {
        let c = catalog();
        let q1 = parse_query(&c.schema, "SELECT ra FROM photoobj WHERE type = 1").unwrap();
        let q3 = parse_query(&c.schema, "SELECT ra FROM photoobj WHERE type IN (1, 2, 3)").unwrap();
        let s1 = filter_selectivity(&c, &q1, &q1.filters[0]);
        let s3 = filter_selectivity(&c, &q3, &q3.filters[0]);
        assert!(s3 > s1);
    }

    #[test]
    fn conjunction_multiplies() {
        let c = catalog();
        let q = parse_query(
            &c.schema,
            "SELECT ra FROM photoobj WHERE ra BETWEEN 10 AND 20 AND type = 1",
        )
        .unwrap();
        let s_all = slot_selectivity(&c, &q, 0);
        let s_a = filter_selectivity(&c, &q, &q.filters[0]);
        let s_b = filter_selectivity(&c, &q, &q.filters[1]);
        assert!((s_all - s_a * s_b).abs() < 1e-12);
    }

    #[test]
    fn join_selectivity_uses_larger_ndv() {
        let c = catalog();
        let q = parse_query(
            &c.schema,
            "SELECT p.ra FROM photoobj p, specobj s WHERE p.objid = s.bestobjid",
        )
        .unwrap();
        let s = join_predicate_selectivity(&c, &q, &q.joins[0]);
        // objid NDV ≈ 100k (scale 0.01 → photoobj 100k rows).
        assert!(s <= 1.0 / 50_000.0, "join sel too high: {s}");
    }

    #[test]
    fn group_count_capped_by_rows() {
        let c = catalog();
        let q = parse_query(
            &c.schema,
            "SELECT type, count(*) FROM photoobj GROUP BY type",
        )
        .unwrap();
        let g = group_count(&c, &q, 1e6);
        assert!(g <= 10.0, "type has few distinct values: {g}");
        let g_small = group_count(&c, &q, 2.0);
        assert!(g_small <= 2.0);
    }

    #[test]
    fn null_comparison_selects_nothing() {
        let c = catalog();
        let stats = column(&c, "ra");
        assert_eq!(
            predicate_selectivity(stats, &PredOp::Cmp(CmpOp::Eq, Value::Null)),
            0.0
        );
    }

    #[test]
    fn empty_between_selects_nothing() {
        let c = catalog();
        let stats = column(&c, "ra");
        let s = predicate_selectivity(
            stats,
            &PredOp::Between(Value::Float(50.0), Value::Float(10.0)),
        );
        assert_eq!(s, 0.0);
    }

    #[test]
    fn selectivities_clamped_to_unit() {
        let c = catalog();
        let stats = column(&c, "type");
        let many: Vec<Value> = (0..100).map(Value::Int).collect();
        let s = predicate_selectivity(stats, &PredOp::InList(many));
        assert!(s <= 1.0);
    }
}
