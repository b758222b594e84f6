//! The optimizer façade: full query optimization, what-if costing, join
//! control, and the INUM skeleton hooks.

use crate::access::{self, AccessContext};
use crate::join::{AbstractLeafProvider, AccessLeafProvider, JoinPlanner};
use crate::params::CostParams;
use crate::plan::{order_satisfies, Plan, PlanExpr, PlanNode};
use crate::selectivity;
use pgdesign_catalog::design::PhysicalDesign;
use pgdesign_catalog::Catalog;
use pgdesign_query::ast::{PredOp, Query, QueryColumn};
use std::sync::Arc;

/// The "what-if join component" (§3.1): enables or disables join methods
/// in the produced execution plans so a DBA can explore how the design
/// interacts with join strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinControl {
    /// Allow hash joins.
    pub hash: bool,
    /// Allow merge joins.
    pub merge: bool,
    /// Allow nested-loop joins (including parameterized index probes).
    pub nestloop: bool,
}

impl Default for JoinControl {
    fn default() -> Self {
        JoinControl {
            hash: true,
            merge: true,
            nestloop: true,
        }
    }
}

/// The INUM skeleton: the design-*independent* part of a plan's cost for a
/// fixed combination of interesting orders, plus that combination.
///
/// `cost(q, design) = internal_cost + Σ_slots access_cost(slot, order, design)`
///
/// A skeleton is *dominated* when another skeleton of the same query has
/// an internal cost no higher and needs, slot by slot, no order or the
/// same order. Under any design it then costs at least as much (an
/// unordered access minimum ranges over a superset of an ordered one's
/// paths, and IEEE addition is monotone), so it can never be the minimum;
/// the `pgdesign-inum` skeleton cache drops it.
#[derive(Debug, Clone, PartialEq)]
pub struct Skeleton {
    /// Join/sort/aggregation cost with all leaf accesses at zero cost.
    pub internal_cost: f64,
    /// The interesting order each slot's access must deliver
    /// (`None` = any order).
    pub slot_orders: Vec<Option<Vec<u16>>>,
}

/// The cost-based what-if optimizer.
#[derive(Debug, Clone, Default)]
pub struct Optimizer {
    /// Cost model constants.
    pub params: CostParams,
    /// Join-method control.
    pub control: JoinControl,
}

impl Optimizer {
    /// Optimizer with default PostgreSQL-flavoured parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Optimizer with explicit parameters.
    pub fn with_params(params: CostParams) -> Self {
        Optimizer {
            params,
            control: JoinControl::default(),
        }
    }

    /// Replace the join control (builder style).
    pub fn with_control(mut self, control: JoinControl) -> Self {
        self.control = control;
        self
    }

    /// Optimize `query` under `design` (base + hypothetical structures all
    /// included in `design`). This *is* the what-if call: the design is
    /// never materialized.
    pub fn optimize(&self, catalog: &Catalog, design: &PhysicalDesign, query: &Query) -> Plan {
        let ctx = AccessContext {
            catalog,
            design,
            params: &self.params,
            query,
        };
        let planner = JoinPlanner::new(ctx, self.control, &AccessLeafProvider);
        let variants = planner.plan();
        self.finish(&ctx, variants)
    }

    /// Estimated cost of `query` under `design`.
    pub fn cost(&self, catalog: &Catalog, design: &PhysicalDesign, query: &Query) -> f64 {
        let cost = self.optimize(catalog, design, query).cost;
        debug_assert!(
            cost.is_finite(),
            "optimizer produced a non-finite plan cost"
        );
        cost
    }

    /// Total weighted workload cost under a design.
    pub fn workload_cost(
        &self,
        catalog: &Catalog,
        design: &PhysicalDesign,
        workload: &pgdesign_query::Workload,
    ) -> f64 {
        workload
            .iter()
            .map(|(q, w)| w * self.cost(catalog, design, q))
            .sum()
    }

    /// Extract the INUM skeleton for a fixed interesting-order combination.
    ///
    /// Nested loops are excluded (their inner side's cost is design-
    /// dependent, violating the INUM invariant), mirroring the original
    /// INUM space; merge and hash joins are both considered.
    pub fn optimize_skeleton(
        &self,
        catalog: &Catalog,
        query: &Query,
        slot_orders: Vec<Option<Vec<u16>>>,
    ) -> Skeleton {
        self.optimize_skeletons(catalog, query, vec![slot_orders])
            .pop()
            .expect("one combination in, one skeleton out")
    }

    /// Extract skeletons for a whole batch of interesting-order
    /// combinations of one query: one skeleton per combination, in input
    /// order. What depends on the query alone is computed once, not once
    /// per combination — the design-independent cardinalities
    /// ([`crate::join::query_cardinalities`]) and the abstract leaves cut
    /// from them ([`AbstractLeafProvider::new`]) — and the DP shares plan
    /// subtrees instead of copying them. This is the path the
    /// `pgdesign-inum` skeleton cache uses; it then keeps only the
    /// skeletons no other one dominates (see [`Skeleton`]).
    pub fn optimize_skeletons(
        &self,
        catalog: &Catalog,
        query: &Query,
        combos: Vec<Vec<Option<Vec<u16>>>>,
    ) -> Vec<Skeleton> {
        let design = PhysicalDesign::empty();
        let ctx = AccessContext {
            catalog,
            design: &design,
            params: &self.params,
            query,
        };
        let (slot_rows, edge_sel) = crate::join::query_cardinalities(&ctx);
        let unordered = AbstractLeafProvider::new(&ctx, &slot_rows);
        let control = JoinControl {
            nestloop: false,
            ..self.control
        };
        combos
            .into_iter()
            .map(|slot_orders| {
                let provider = unordered.with_orders(&slot_orders);
                let planner = JoinPlanner::with_cardinalities(
                    ctx,
                    control,
                    &provider,
                    slot_rows.clone(),
                    edge_sel.clone(),
                );
                let plan = self.finish(&ctx, planner.plan());
                Skeleton {
                    internal_cost: plan.cost,
                    slot_orders,
                }
            })
            .collect()
    }

    /// Best access path for one slot under a design, optionally required
    /// to deliver an order (columns of that slot). The INUM access oracle.
    pub fn best_access(
        &self,
        catalog: &Catalog,
        design: &PhysicalDesign,
        query: &Query,
        slot: u16,
        required_order: Option<&[u16]>,
    ) -> PlanExpr {
        let ctx = AccessContext {
            catalog,
            design,
            params: &self.params,
            query,
        };
        let order: Option<Vec<QueryColumn>> =
            required_order.map(|cols| cols.iter().map(|&c| QueryColumn::new(slot, c)).collect());
        access::best_access(&ctx, slot, order.as_deref(), &[])
    }

    /// Finish a set of join-output variants: aggregation, final ordering,
    /// limit; returns the cheapest complete plan.
    fn finish(&self, ctx: &AccessContext<'_>, variants: Vec<Arc<PlanExpr>>) -> Plan {
        let q = ctx.query;
        let p = ctx.params;
        let eq_bound = equality_bound_columns(q);
        let n_aggs = q.aggregates.len().max(1) as f64;
        let mut best: Option<PlanExpr> = None;
        for v in variants {
            let mut finals: Vec<PlanExpr> = Vec::new();
            if !q.group_by.is_empty() {
                let groups = selectivity::group_count(ctx.catalog, q, v.rows);
                // Hash aggregate.
                finals.push(PlanExpr {
                    cost: v.cost
                        + v.rows * n_aggs * p.cpu_operator_cost
                        + groups * p.cpu_tuple_cost
                        + p.hash_build_cost(groups, v.width) * 0.5,
                    rows: groups,
                    width: v.width,
                    order: vec![],
                    node: PlanNode::Aggregate {
                        input: Arc::clone(&v),
                        hash: true,
                    },
                });
                // Stream aggregate over ordered input (sort if needed).
                let ordered = if order_satisfies(&v.order, &q.group_by, &eq_bound) {
                    Arc::clone(&v)
                } else {
                    Arc::new(PlanExpr {
                        cost: v.cost + p.sort_cost(v.rows, v.width),
                        rows: v.rows,
                        width: v.width,
                        order: q.group_by.clone(),
                        node: PlanNode::Sort {
                            input: Arc::clone(&v),
                            keys: q.group_by.clone(),
                        },
                    })
                };
                finals.push(PlanExpr {
                    cost: ordered.cost
                        + ordered.rows * n_aggs * p.cpu_operator_cost
                        + groups * p.cpu_tuple_cost,
                    rows: groups,
                    width: ordered.width,
                    order: ordered.order.clone(),
                    node: PlanNode::Aggregate {
                        input: ordered,
                        hash: false,
                    },
                });
            } else if !q.aggregates.is_empty() {
                // Scalar aggregation collapses to one row.
                finals.push(PlanExpr {
                    cost: v.cost + v.rows * n_aggs * p.cpu_operator_cost,
                    rows: 1.0,
                    width: 8.0 * n_aggs,
                    order: vec![],
                    node: PlanNode::Aggregate {
                        input: Arc::clone(&v),
                        hash: false,
                    },
                });
            } else {
                finals.push(Arc::unwrap_or_clone(v));
            }

            for f in finals {
                let mut plan = f;
                // Final ORDER BY.
                if !q.order_by.is_empty() {
                    let keys: Vec<QueryColumn> = q.order_by.iter().map(|o| o.col).collect();
                    if !order_satisfies(&plan.order, &keys, &eq_bound) {
                        plan = PlanExpr {
                            cost: plan.cost + p.sort_cost(plan.rows, plan.width),
                            rows: plan.rows,
                            width: plan.width,
                            order: keys.clone(),
                            node: PlanNode::Sort {
                                input: Arc::new(plan),
                                keys,
                            },
                        };
                    }
                }
                // LIMIT.
                if let Some(n) = q.limit {
                    let rows = plan.rows.min(n as f64);
                    plan = PlanExpr {
                        cost: plan.cost,
                        rows,
                        width: plan.width,
                        order: plan.order.clone(),
                        node: PlanNode::Limit {
                            input: Arc::new(plan),
                            n,
                        },
                    };
                }
                if best.as_ref().is_none_or(|b| plan.cost < b.cost) {
                    best = Some(plan);
                }
            }
        }
        best.expect("at least one variant exists")
    }
}

/// All query columns bound by equality predicates (constants for order
/// satisfaction purposes).
pub fn equality_bound_columns(q: &Query) -> Vec<QueryColumn> {
    q.filters
        .iter()
        .filter(|f| matches!(f.op, PredOp::Cmp(pgdesign_query::ast::CmpOp::Eq, _)))
        .map(|f| f.col)
        .collect()
}

/// Interesting orders of one slot: orders that could change the plan's
/// internal cost — join columns, ORDER BY / GROUP BY columns on the slot.
/// Returns the list *excluding* the trivial `None`; INUM enumerates
/// `None ∪ these`.
pub fn interesting_slot_orders(q: &Query, slot: u16) -> Vec<Vec<u16>> {
    let mut out: Vec<Vec<u16>> = Vec::new();
    let mut push = |o: Vec<u16>| {
        if !o.is_empty() && !out.contains(&o) {
            out.push(o);
        }
    };
    for j in q.joins_on(slot) {
        if let Some(c) = j.column_on(slot) {
            push(vec![c]);
        }
    }
    let ob: Vec<u16> = q
        .order_by
        .iter()
        .filter(|o| o.col.slot == slot)
        .map(|o| o.col.column)
        .collect();
    if !ob.is_empty() && q.order_by.iter().all(|o| o.col.slot == slot) {
        push(ob);
    }
    if !q.group_by.is_empty() && q.group_by.iter().all(|g| g.slot == slot) {
        push(q.group_by.iter().map(|g| g.column).collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::design::Index;
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_query::parse_query;

    #[test]
    fn what_if_index_reduces_cost_without_materialization() {
        let c = sdss_catalog(0.05);
        let q = parse_query(&c.schema, "SELECT ra FROM photoobj WHERE objid = 12345").unwrap();
        let opt = Optimizer::new();
        let base = opt.cost(&c, &PhysicalDesign::empty(), &q);
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        let whatif = PhysicalDesign::with_indexes([Index::new(photo, vec![0])]);
        let tuned = opt.cost(&c, &whatif, &q);
        assert!(tuned < base / 100.0, "{tuned} vs {base}");
    }

    #[test]
    fn group_by_query_completes_with_aggregate_node() {
        let c = sdss_catalog(0.02);
        let q = parse_query(
            &c.schema,
            "SELECT type, count(*) FROM photoobj GROUP BY type",
        )
        .unwrap();
        let opt = Optimizer::new();
        let plan = opt.optimize(&c, &PhysicalDesign::empty(), &q);
        assert!(matches!(plan.node, PlanNode::Aggregate { .. }));
        assert!(plan.rows < 20.0, "few groups: {}", plan.rows);
    }

    #[test]
    fn order_by_adds_sort_unless_index_provides_it() {
        let c = sdss_catalog(0.02);
        let q = parse_query(
            &c.schema,
            "SELECT objid FROM photoobj WHERE r BETWEEN 13 AND 13.2 ORDER BY r",
        )
        .unwrap();
        let opt = Optimizer::new();
        let plain = opt.optimize(&c, &PhysicalDesign::empty(), &q);
        fn has_sort(p: &PlanExpr) -> bool {
            match &p.node {
                PlanNode::Sort { .. } => true,
                PlanNode::Aggregate { input, .. } | PlanNode::Limit { input, .. } => {
                    has_sort(input)
                }
                PlanNode::HashJoin { outer, inner }
                | PlanNode::MergeJoin { outer, inner, .. }
                | PlanNode::NestLoop { outer, inner } => has_sort(outer) || has_sort(inner),
                _ => false,
            }
        }
        assert!(has_sort(&plain));
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        // Covering (r, objid) index: the ordered index-only scan wins.
        // An index on r alone would lose to bitmap + sort here, as in
        // PostgreSQL, because heap fetches on an uncorrelated column
        // dominate the cost.
        let with_idx = PhysicalDesign::with_indexes([Index::new(photo, vec![6, 0])]);
        let tuned = opt.optimize(&c, &with_idx, &q);
        assert!(
            !has_sort(&tuned),
            "index on r delivers the order:\n{}",
            tuned.explain(&c.schema, &q)
        );
        assert!(tuned.cost < plain.cost);
    }

    #[test]
    fn limit_caps_rows() {
        let c = sdss_catalog(0.02);
        let q = parse_query(&c.schema, "SELECT objid FROM photoobj LIMIT 10").unwrap();
        let opt = Optimizer::new();
        let plan = opt.optimize(&c, &PhysicalDesign::empty(), &q);
        assert_eq!(plan.rows, 10.0);
    }

    #[test]
    fn workload_cost_sums_weights() {
        let c = sdss_catalog(0.01);
        let q = parse_query(&c.schema, "SELECT ra FROM photoobj WHERE type = 1").unwrap();
        let opt = Optimizer::new();
        let mut w = pgdesign_query::Workload::new();
        w.push(q.clone(), 1.0);
        w.push(q, 2.0);
        let d = PhysicalDesign::empty();
        let total = opt.workload_cost(&c, &d, &w);
        let single = opt.cost(&c, &d, w.query(0));
        assert!((total - 3.0 * single).abs() < 1e-6);
    }

    #[test]
    fn skeleton_internal_cost_is_leaf_free() {
        let c = sdss_catalog(0.02);
        let q = parse_query(
            &c.schema,
            "SELECT p.ra FROM photoobj p, specobj s WHERE p.objid = s.bestobjid",
        )
        .unwrap();
        let opt = Optimizer::new();
        let sk = opt.optimize_skeleton(&c, &q, vec![None, None]);
        assert!(sk.internal_cost > 0.0);
        // With join-column orders fixed, the merge-join skeleton is
        // cheaper (sorts disappear from the internal cost).
        let sk_ordered = opt.optimize_skeleton(&c, &q, vec![Some(vec![0]), Some(vec![1])]);
        assert!(sk_ordered.internal_cost <= sk.internal_cost);
    }

    #[test]
    fn interesting_orders_cover_joins_and_clauses() {
        let c = sdss_catalog(0.01);
        let q = parse_query(
            &c.schema,
            "SELECT p.objid FROM photoobj p, specobj s \
             WHERE p.objid = s.bestobjid AND p.r < 19 ORDER BY p.ra",
        )
        .unwrap();
        let o0 = interesting_slot_orders(&q, 0);
        assert!(o0.contains(&vec![0]), "join col objid");
        assert!(o0.contains(&vec![1]), "order-by col ra");
        let o1 = interesting_slot_orders(&q, 1);
        assert_eq!(o1, vec![vec![1]], "join col bestobjid only");
    }

    #[test]
    fn join_control_is_respected_end_to_end() {
        let c = sdss_catalog(0.02);
        let q = parse_query(
            &c.schema,
            "SELECT p.ra FROM photoobj p, specobj s WHERE p.objid = s.bestobjid",
        )
        .unwrap();
        let opt = Optimizer::new().with_control(JoinControl {
            hash: true,
            merge: false,
            nestloop: false,
        });
        let plan = opt.optimize(&c, &PhysicalDesign::empty(), &q);
        fn only_hash(p: &PlanExpr) -> bool {
            match &p.node {
                PlanNode::MergeJoin { .. } | PlanNode::NestLoop { .. } => false,
                PlanNode::HashJoin { outer, inner } => only_hash(outer) && only_hash(inner),
                PlanNode::Sort { input, .. }
                | PlanNode::Aggregate { input, .. }
                | PlanNode::Limit { input, .. } => only_hash(input),
                _ => true,
            }
        }
        assert!(only_hash(&plan));
    }

    #[test]
    fn explain_renders_tree() {
        let c = sdss_catalog(0.01);
        let q = parse_query(
            &c.schema,
            "SELECT p.ra FROM photoobj p, specobj s WHERE p.objid = s.bestobjid",
        )
        .unwrap();
        let opt = Optimizer::new();
        let plan = opt.optimize(&c, &PhysicalDesign::empty(), &q);
        let text = plan.explain(&c.schema, &q);
        assert!(text.contains("photoobj"));
        assert!(text.contains("specobj"));
        assert!(text.contains("cost="));
    }
}
