//! Physical plan trees.
//!
//! Every node carries its total cost, output cardinality, delivered sort
//! order and output width, so parent nodes can be costed compositionally
//! and INUM can peel leaf access costs off a finished plan.

use pgdesign_catalog::design::Index;
use pgdesign_catalog::schema::Schema;
use pgdesign_query::ast::{Query, QueryColumn};
use std::fmt::Write as _;
use std::sync::Arc;

/// A costed plan expression (node + derived properties).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanExpr {
    /// The operator.
    pub node: PlanNode,
    /// Total cost in optimizer cost units.
    pub cost: f64,
    /// Estimated output rows.
    pub rows: f64,
    /// Delivered sort order: columns whose ascending order the output
    /// respects. Leading equality-bound columns are omitted.
    pub order: Vec<QueryColumn>,
    /// Average output row width in bytes.
    pub width: f64,
}

/// Alias: the optimizer's final product.
pub type Plan = PlanExpr;

/// Physical operators. Children are shared handles, so cloning a plan
/// (or a leaf the join planner keeps for its tree rebuild) never
/// deep-copies a subtree.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Full sequential scan of a slot's table (or its sole fragment).
    SeqScan {
        /// Table slot scanned.
        slot: u16,
        /// Number of filter predicates applied during the scan.
        filters: usize,
    },
    /// Scan of one or more vertical fragments, stitched on row id.
    FragmentScan {
        /// Table slot scanned.
        slot: u16,
        /// How many fragments are read.
        fragments: usize,
        /// Number of filter predicates applied during the scan.
        filters: usize,
    },
    /// B-tree index scan (range or point), optionally index-only.
    IndexScan {
        /// Table slot scanned.
        slot: u16,
        /// The index used.
        index: Index,
        /// How many leading key columns are matched by predicates.
        matched_cols: usize,
        /// True when the heap is never touched.
        index_only: bool,
        /// True when this probe is parameterized by join keys (NLJ inner).
        parameterized: bool,
    },
    /// Bitmap index scan + sorted heap fetch.
    BitmapHeapScan {
        /// Table slot scanned.
        slot: u16,
        /// The index providing the bitmap.
        index: Index,
        /// How many leading key columns are matched.
        matched_cols: usize,
    },
    /// Explicit sort.
    Sort {
        /// Input plan.
        input: Arc<PlanExpr>,
        /// Sort keys.
        keys: Vec<QueryColumn>,
    },
    /// Hash join (build on inner).
    HashJoin {
        /// Probe side.
        outer: Arc<PlanExpr>,
        /// Build side.
        inner: Arc<PlanExpr>,
    },
    /// Merge join on one equi-key.
    MergeJoin {
        /// Left (order-defining) side.
        outer: Arc<PlanExpr>,
        /// Right side.
        inner: Arc<PlanExpr>,
        /// The merged key (outer column, inner column).
        key: (QueryColumn, QueryColumn),
    },
    /// Nested-loop join; the inner side re-executes per outer row.
    NestLoop {
        /// Outer side.
        outer: Arc<PlanExpr>,
        /// Inner side (often a parameterized index probe).
        inner: Arc<PlanExpr>,
    },
    /// Grouped or plain aggregation.
    Aggregate {
        /// Input plan.
        input: Arc<PlanExpr>,
        /// Hash aggregation (true) or sorted/stream aggregation (false).
        hash: bool,
    },
    /// Row-count limit.
    Limit {
        /// Input plan.
        input: Arc<PlanExpr>,
        /// Maximum rows returned.
        n: u64,
    },
}

impl PlanExpr {
    /// Sum of the costs of all *leaf access* operators (scans/probes) in
    /// the tree. `cost - leaf_access_cost()` is the INUM "internal" cost.
    #[cfg(test)]
    pub(crate) fn leaf_access_cost(&self) -> f64 {
        match &self.node {
            PlanNode::SeqScan { .. }
            | PlanNode::FragmentScan { .. }
            | PlanNode::IndexScan { .. }
            | PlanNode::BitmapHeapScan { .. } => self.cost,
            PlanNode::Sort { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Limit { input, .. } => input.leaf_access_cost(),
            PlanNode::HashJoin { outer, inner }
            | PlanNode::MergeJoin { outer, inner, .. }
            | PlanNode::NestLoop { outer, inner } => {
                outer.leaf_access_cost() + inner.leaf_access_cost()
            }
        }
    }

    /// All indexes referenced anywhere in the plan.
    #[cfg(test)]
    pub(crate) fn indexes_used(&self) -> Vec<&Index> {
        let mut out = Vec::new();
        self.collect_indexes(&mut out);
        out
    }

    #[cfg(test)]
    fn collect_indexes<'a>(&'a self, out: &mut Vec<&'a Index>) {
        match &self.node {
            PlanNode::IndexScan { index, .. } | PlanNode::BitmapHeapScan { index, .. } => {
                out.push(index);
            }
            PlanNode::Sort { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Limit { input, .. } => input.collect_indexes(out),
            PlanNode::HashJoin { outer, inner }
            | PlanNode::MergeJoin { outer, inner, .. }
            | PlanNode::NestLoop { outer, inner } => {
                outer.collect_indexes(out);
                inner.collect_indexes(out);
            }
            PlanNode::SeqScan { .. } | PlanNode::FragmentScan { .. } => {}
        }
    }

    /// Pretty EXPLAIN-style rendering.
    pub fn explain(&self, schema: &Schema, query: &Query) -> String {
        let mut s = String::new();
        self.explain_into(schema, query, 0, &mut s);
        s
    }

    fn explain_into(&self, schema: &Schema, query: &Query, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        let head = match &self.node {
            PlanNode::SeqScan { slot, filters } => {
                let t = schema.table(query.table_of(*slot));
                format!("Seq Scan on {} (filters={filters})", t.name)
            }
            PlanNode::FragmentScan {
                slot,
                fragments,
                filters,
            } => {
                let t = schema.table(query.table_of(*slot));
                format!(
                    "Fragment Scan on {} (fragments={fragments}, filters={filters})",
                    t.name
                )
            }
            PlanNode::IndexScan {
                index,
                matched_cols,
                index_only,
                parameterized,
                ..
            } => {
                let kind = if *index_only {
                    "Index Only Scan"
                } else {
                    "Index Scan"
                };
                let param = if *parameterized {
                    ", parameterized"
                } else {
                    ""
                };
                format!(
                    "{kind} using {} (matched={matched_cols}{param})",
                    index.display(schema)
                )
            }
            PlanNode::BitmapHeapScan {
                index,
                matched_cols,
                ..
            } => format!(
                "Bitmap Heap Scan using {} (matched={matched_cols})",
                index.display(schema)
            ),
            PlanNode::Sort { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| {
                        let t = schema.table(query.table_of(k.slot));
                        format!("{}.{}", t.name, t.column(k.column).name)
                    })
                    .collect();
                format!("Sort (keys: {})", ks.join(", "))
            }
            PlanNode::HashJoin { .. } => "Hash Join".to_string(),
            PlanNode::MergeJoin { key, .. } => {
                let t = schema.table(query.table_of(key.0.slot));
                format!(
                    "Merge Join (key: {}.{})",
                    t.name,
                    t.column(key.0.column).name
                )
            }
            PlanNode::NestLoop { .. } => "Nested Loop".to_string(),
            PlanNode::Aggregate { hash, .. } => {
                if *hash {
                    "HashAggregate".to_string()
                } else {
                    "GroupAggregate".to_string()
                }
            }
            PlanNode::Limit { n, .. } => format!("Limit ({n})"),
        };
        let _ = writeln!(
            out,
            "{pad}{head}  (cost={:.2} rows={:.0} width={:.0})",
            self.cost, self.rows, self.width
        );
        match &self.node {
            PlanNode::Sort { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Limit { input, .. } => input.explain_into(schema, query, depth + 1, out),
            PlanNode::HashJoin { outer, inner }
            | PlanNode::MergeJoin { outer, inner, .. }
            | PlanNode::NestLoop { outer, inner } => {
                outer.explain_into(schema, query, depth + 1, out);
                inner.explain_into(schema, query, depth + 1, out);
            }
            _ => {}
        }
    }
}

/// True when a delivered order satisfies a required order: the required
/// columns must appear as a prefix of the delivered order, in sequence,
/// except that columns bound by equality predicates may be skipped on
/// either side (they are constant within the output).
pub fn order_satisfies(
    delivered: &[QueryColumn],
    required: &[QueryColumn],
    eq_bound: &[QueryColumn],
) -> bool {
    let mut di = 0usize;
    for rc in required {
        if eq_bound.contains(rc) {
            continue; // constant column: any order satisfies it
        }
        // Skip delivered columns that are equality-bound (constants).
        while di < delivered.len() && eq_bound.contains(&delivered[di]) {
            di += 1;
        }
        if di >= delivered.len() || delivered[di] != *rc {
            return false;
        }
        di += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qc(slot: u16, col: u16) -> QueryColumn {
        QueryColumn::new(slot, col)
    }

    fn leaf(cost: f64) -> PlanExpr {
        PlanExpr {
            node: PlanNode::SeqScan {
                slot: 0,
                filters: 0,
            },
            cost,
            rows: 100.0,
            order: vec![],
            width: 8.0,
        }
    }

    #[test]
    fn order_satisfies_prefix() {
        let delivered = vec![qc(0, 1), qc(0, 2)];
        assert!(order_satisfies(&delivered, &[], &[]));
        assert!(order_satisfies(&delivered, &[qc(0, 1)], &[]));
        assert!(order_satisfies(&delivered, &[qc(0, 1), qc(0, 2)], &[]));
        assert!(!order_satisfies(&delivered, &[qc(0, 2)], &[]));
        assert!(!order_satisfies(&delivered, &[qc(0, 1), qc(0, 3)], &[]));
    }

    #[test]
    fn order_satisfies_skips_equality_bound() {
        // Index (a, b) with a = const delivers order on b.
        let delivered = vec![qc(0, 0), qc(0, 1)];
        let eq = vec![qc(0, 0)];
        assert!(order_satisfies(&delivered, &[qc(0, 1)], &eq));
        // Required order on a constant column is trivially satisfied.
        assert!(order_satisfies(&[], &[qc(0, 0)], &eq));
    }

    #[test]
    fn empty_required_always_satisfied() {
        assert!(order_satisfies(&[], &[], &[]));
    }

    #[test]
    fn leaf_access_cost_peels_internal_nodes() {
        let scan_a = leaf(10.0);
        let scan_b = leaf(20.0);
        let join = PlanExpr {
            node: PlanNode::HashJoin {
                outer: Arc::new(scan_a),
                inner: Arc::new(scan_b),
            },
            cost: 50.0,
            rows: 10.0,
            order: vec![],
            width: 16.0,
        };
        let sorted = PlanExpr {
            node: PlanNode::Sort {
                input: Arc::new(join),
                keys: vec![qc(0, 0)],
            },
            cost: 60.0,
            rows: 10.0,
            order: vec![qc(0, 0)],
            width: 16.0,
        };
        assert_eq!(sorted.leaf_access_cost(), 30.0);
    }

    #[test]
    fn indexes_used_walks_tree() {
        let idx = Index::new(pgdesign_catalog::schema::TableId(0), vec![1]);
        let scan = PlanExpr {
            node: PlanNode::IndexScan {
                slot: 0,
                index: idx.clone(),
                matched_cols: 1,
                index_only: false,
                parameterized: false,
            },
            cost: 5.0,
            rows: 10.0,
            order: vec![qc(0, 1)],
            width: 8.0,
        };
        let lim = PlanExpr {
            node: PlanNode::Limit {
                input: Arc::new(scan),
                n: 10,
            },
            cost: 5.0,
            rows: 10.0,
            order: vec![qc(0, 1)],
            width: 8.0,
        };
        assert_eq!(lim.indexes_used(), vec![&idx]);
    }
}
