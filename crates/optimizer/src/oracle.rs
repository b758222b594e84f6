//! The tree-building planner the arena DP in [`crate::join`] replaced,
//! kept as its oracle: every subplan is a shared [`PlanExpr`] handle, the
//! leaves come from a [`LeafProvider`], and finishing (aggregation, final
//! ordering, limit) works on trees. [`optimize`] and [`skeleton`] are what
//! `Optimizer::optimize` and one INUM skeleton were before the arena; the
//! properties below pin the arena DP to them bit for bit.

use crate::access::{self, AccessContext};
use crate::optimizer::{equality_bound_columns, JoinControl, Optimizer};
use crate::plan::{order_satisfies, PlanExpr, PlanNode};
use crate::selectivity;
use pgdesign_catalog::design::PhysicalDesign;
use pgdesign_catalog::Catalog;
use pgdesign_query::ast::Query;
use pgdesign_query::ast::QueryColumn;
use std::sync::Arc;

/// Supplies leaf (single-slot) plans to the join DP.
pub trait LeafProvider {
    /// Candidate plans for a slot (unordered and natively-ordered ones).
    fn leaves(&self, ctx: &AccessContext<'_>, slot: u16) -> Vec<PlanExpr>;

    /// Best plan for a slot that delivers `order` (may contain a Sort).
    fn ordered_leaf(
        &self,
        ctx: &AccessContext<'_>,
        slot: u16,
        order: &[QueryColumn],
    ) -> Option<PlanExpr>;

    /// A parameterized probe of `slot` with equality bindings on
    /// `eq_cols`, for use as a nested-loop inner. `None` disables NLJ.
    fn param_probe(&self, ctx: &AccessContext<'_>, slot: u16, eq_cols: &[u16]) -> Option<PlanExpr>;
}

/// The production leaf provider: real access paths under the design.
pub struct AccessLeafProvider;

impl LeafProvider for AccessLeafProvider {
    fn leaves(&self, ctx: &AccessContext<'_>, slot: u16) -> Vec<PlanExpr> {
        access::access_paths(ctx, slot, &[])
    }

    fn ordered_leaf(
        &self,
        ctx: &AccessContext<'_>,
        slot: u16,
        order: &[QueryColumn],
    ) -> Option<PlanExpr> {
        Some(access::best_access(ctx, slot, Some(order), &[]))
    }

    fn param_probe(&self, ctx: &AccessContext<'_>, slot: u16, eq_cols: &[u16]) -> Option<PlanExpr> {
        Some(access::best_access(ctx, slot, None, eq_cols))
    }
}

/// Maximum plans retained per subset.
const PARETO_CAP: usize = 6;
/// Rescan discount for repeated parameterized probes (cache warmth).
const RESCAN_FACTOR: f64 = 0.7;

/// Insert `plan` into a Pareto set pruned on (cost, delivered order).
/// Sets hold shared handles, so a plan that survives here is referenced —
/// never copied — by every parent later built on it.
fn pareto_insert(set: &mut Vec<Arc<PlanExpr>>, plan: PlanExpr) {
    // Dominated: someone is no more expensive and delivers at least the
    // same order prefix.
    for p in set.iter() {
        if p.cost <= plan.cost && order_satisfies(&p.order, &plan.order, &[]) {
            return;
        }
    }
    set.retain(|p| !(plan.cost <= p.cost && order_satisfies(&plan.order, &p.order, &[])));
    set.push(Arc::new(plan));
    if set.len() > PARETO_CAP {
        set.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        set.truncate(PARETO_CAP);
    }
}

/// The tree-building join planner.
pub struct TreePlanner<'a, L: LeafProvider> {
    ctx: AccessContext<'a>,
    control: JoinControl,
    provider: &'a L,
    /// Per-slot output rows (after filters).
    slot_rows: Vec<f64>,
    /// Join edge selectivities, aligned with `query.joins`.
    edge_sel: Vec<f64>,
}

/// Design-independent cardinalities of a query: per-slot output rows and
/// join-edge selectivities. Computing these involves selectivity
/// estimation over the statistics, so callers that plan the same query
/// repeatedly (INUM builds one skeleton per interesting-order combination)
/// compute them once and hand them to
/// [`TreePlanner::with_cardinalities`].
pub fn query_cardinalities(ctx: &AccessContext<'_>) -> (Vec<f64>, Vec<f64>) {
    let q = ctx.query;
    let slot_rows = (0..q.slot_count())
        .map(|s| selectivity::slot_rows(ctx.catalog, q, s))
        .collect();
    let edge_sel = q
        .joins
        .iter()
        .map(|j| selectivity::join_predicate_selectivity(ctx.catalog, q, j))
        .collect();
    (slot_rows, edge_sel)
}

impl<'a, L: LeafProvider> TreePlanner<'a, L> {
    /// Create a planner for `ctx.query`.
    pub fn new(ctx: AccessContext<'a>, control: JoinControl, provider: &'a L) -> Self {
        let (slot_rows, edge_sel) = query_cardinalities(&ctx);
        Self::with_cardinalities(ctx, control, provider, slot_rows, edge_sel)
    }

    /// Create a planner with precomputed [`query_cardinalities`] (they are
    /// design-independent, so one computation serves every skeleton of a
    /// query).
    pub fn with_cardinalities(
        ctx: AccessContext<'a>,
        control: JoinControl,
        provider: &'a L,
        slot_rows: Vec<f64>,
        edge_sel: Vec<f64>,
    ) -> Self {
        TreePlanner {
            ctx,
            control,
            provider,
            slot_rows,
            edge_sel,
        }
    }

    /// Design-independent cardinality of a slot subset.
    pub fn subset_rows(&self, mask: u32) -> f64 {
        let q = self.ctx.query;
        let mut rows = 1.0f64;
        for s in 0..q.slot_count() {
            if mask & (1 << s) != 0 {
                rows *= self.slot_rows[s as usize];
            }
        }
        for (i, j) in q.joins.iter().enumerate() {
            let l = 1u32 << j.left.slot;
            let r = 1u32 << j.right.slot;
            if mask & l != 0 && mask & r != 0 {
                rows *= self.edge_sel[i];
            }
        }
        rows.max(1.0)
    }

    /// Edges crossing between two disjoint masks.
    fn crossing_edges(&self, a: u32, b: u32) -> Vec<usize> {
        self.ctx
            .query
            .joins
            .iter()
            .enumerate()
            .filter(|(_, j)| {
                let l = 1u32 << j.left.slot;
                let r = 1u32 << j.right.slot;
                (a & l != 0 && b & r != 0) || (a & r != 0 && b & l != 0)
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Run the DP and return the Pareto plans for the full slot set.
    pub fn plan(&self) -> Vec<Arc<PlanExpr>> {
        let q = self.ctx.query;
        let n = q.slot_count() as usize;
        assert!((1..=16).contains(&n), "join DP supports 1..=16 slots");
        let full = (1u32 << n) - 1;
        let mut table: Vec<Vec<Arc<PlanExpr>>> = vec![Vec::new(); (full + 1) as usize];

        // Leaves.
        for s in 0..n {
            let mask = 1u32 << s;
            let mut set = Vec::new();
            for leaf in self.provider.leaves(&self.ctx, s as u16) {
                pareto_insert(&mut set, leaf);
            }
            // Seed interesting orders: join columns of this slot, plus
            // top-level order/group columns, so merge joins and ordered
            // aggregation have ordered inputs available.
            let mut interesting: Vec<Vec<QueryColumn>> = Vec::new();
            for j in q.joins_on(s as u16) {
                if let Some(c) = j.column_on(s as u16) {
                    interesting.push(vec![QueryColumn::new(s as u16, c)]);
                }
            }
            for o in &q.order_by {
                if o.col.slot == s as u16 {
                    interesting.push(vec![o.col]);
                }
            }
            if q.group_by.iter().all(|g| g.slot == s as u16) && !q.group_by.is_empty() {
                interesting.push(q.group_by.clone());
            }
            for order in interesting {
                if let Some(p) = self.provider.ordered_leaf(&self.ctx, s as u16, &order) {
                    pareto_insert(&mut set, p);
                }
            }
            table[mask as usize] = set;
        }

        // Compose.
        for mask in 1..=full {
            if (mask & (mask - 1)) == 0 {
                continue; // single slot, already done
            }
            let mut set: Vec<Arc<PlanExpr>> = Vec::new();
            let mut connected_split_found = false;
            // Enumerate proper submasks as the outer side.
            let mut a = (mask - 1) & mask;
            while a > 0 {
                let b = mask & !a;
                if !table[a as usize].is_empty() && !table[b as usize].is_empty() {
                    let edges = self.crossing_edges(a, b);
                    if !edges.is_empty() {
                        connected_split_found = true;
                        self.combine(&mut set, &table, a, b, &edges, mask);
                    }
                }
                a = (a - 1) & mask;
            }
            if !connected_split_found {
                // Disconnected query: permit cartesian products.
                let mut a = (mask - 1) & mask;
                while a > 0 {
                    let b = mask & !a;
                    if !table[a as usize].is_empty() && !table[b as usize].is_empty() {
                        self.cartesian(&mut set, &table, a, b, mask);
                    }
                    a = (a - 1) & mask;
                }
            }
            table[mask as usize] = set;
        }

        std::mem::take(&mut table[full as usize])
    }

    /// Combine subsets `a` (outer) and `b` (inner) over `edges`.
    fn combine(
        &self,
        set: &mut Vec<Arc<PlanExpr>>,
        table: &[Vec<Arc<PlanExpr>>],
        a: u32,
        b: u32,
        edges: &[usize],
        mask: u32,
    ) {
        let q = self.ctx.query;
        let p = self.ctx.params;
        let out_rows = self.subset_rows(mask);

        // Hash join: probe = outer (any variant), build = cheapest inner.
        if self.control.hash {
            if let Some(inner) = cheapest(&table[b as usize]) {
                for outer in &table[a as usize] {
                    let cost = outer.cost
                        + inner.cost
                        + p.hash_build_cost(inner.rows, inner.width)
                        + outer.rows * p.cpu_operator_cost
                        + out_rows * p.cpu_tuple_cost;
                    pareto_insert(
                        set,
                        PlanExpr {
                            node: PlanNode::HashJoin {
                                outer: Arc::clone(outer),
                                inner: Arc::clone(inner),
                            },
                            cost,
                            rows: out_rows,
                            order: vec![],
                            width: outer.width + inner.width,
                        },
                    );
                }
            }
        }

        // Merge join on each crossing edge.
        if self.control.merge {
            for &e in edges {
                let j = &q.joins[e];
                let (ok, ik) = if a & (1 << j.left.slot) != 0 {
                    (j.left, j.right)
                } else {
                    (j.right, j.left)
                };
                let outer = self.ordered_variant(table, a, &[ok]);
                let inner = self.ordered_variant(table, b, &[ik]);
                if let (Some(outer), Some(inner)) = (outer, inner) {
                    let cost = outer.cost
                        + inner.cost
                        + (outer.rows + inner.rows) * p.cpu_operator_cost
                        + out_rows * p.cpu_tuple_cost;
                    let width = outer.width + inner.width;
                    pareto_insert(
                        set,
                        PlanExpr {
                            node: PlanNode::MergeJoin {
                                outer,
                                inner,
                                key: (ok, ik),
                            },
                            cost,
                            rows: out_rows,
                            order: vec![ok],
                            width,
                        },
                    );
                }
            }
        }

        // Parameterized nested loop: inner must be a single base slot.
        if self.control.nestloop && b.count_ones() == 1 {
            let inner_slot = b.trailing_zeros() as u16;
            let eq_cols: Vec<u16> = edges
                .iter()
                .filter_map(|&e| q.joins[e].column_on(inner_slot))
                .collect();
            if !eq_cols.is_empty() {
                if let Some(probe) = self.provider.param_probe(&self.ctx, inner_slot, &eq_cols) {
                    let probe = Arc::new(probe);
                    for outer in &table[a as usize] {
                        let probes = outer.rows.max(1.0);
                        let probe_cost = probe.cost * (1.0 + RESCAN_FACTOR * (probes - 1.0));
                        let cost = outer.cost + probe_cost + out_rows * p.cpu_tuple_cost;
                        pareto_insert(
                            set,
                            PlanExpr {
                                node: PlanNode::NestLoop {
                                    outer: Arc::clone(outer),
                                    inner: Arc::clone(&probe),
                                },
                                cost,
                                rows: out_rows,
                                order: outer.order.clone(),
                                width: outer.width + probe.width,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Cartesian product via materialized nested loop (disconnected query
    /// graphs only).
    fn cartesian(
        &self,
        set: &mut Vec<Arc<PlanExpr>>,
        table: &[Vec<Arc<PlanExpr>>],
        a: u32,
        b: u32,
        mask: u32,
    ) {
        let p = self.ctx.params;
        let out_rows = self.subset_rows(mask);
        if let (Some(outer), Some(inner)) =
            (cheapest(&table[a as usize]), cheapest(&table[b as usize]))
        {
            let cost = outer.cost
                + inner.cost
                + outer.rows * inner.rows * p.cpu_operator_cost
                + out_rows * p.cpu_tuple_cost;
            pareto_insert(
                set,
                PlanExpr {
                    node: PlanNode::NestLoop {
                        outer: Arc::clone(outer),
                        inner: Arc::clone(inner),
                    },
                    cost,
                    rows: out_rows,
                    order: outer.order.clone(),
                    width: outer.width + inner.width,
                },
            );
        }
    }

    /// Best plan for subset `mask` delivering `order` — a native variant
    /// if one exists, else the cheapest plan wrapped in a Sort; for single
    /// slots, ask the provider (it may have an index delivering the order).
    fn ordered_variant(
        &self,
        table: &[Vec<Arc<PlanExpr>>],
        mask: u32,
        order: &[QueryColumn],
    ) -> Option<Arc<PlanExpr>> {
        if mask.count_ones() == 1 {
            let slot = mask.trailing_zeros() as u16;
            if let Some(leaf) = self.provider.ordered_leaf(&self.ctx, slot, order) {
                // The provider's answer competes with the Pareto set below.
                let from_set = self.sorted_from_set(&table[mask as usize], order);
                return match from_set {
                    Some(s) if s.cost < leaf.cost => Some(s),
                    _ => Some(Arc::new(leaf)),
                };
            }
        }
        self.sorted_from_set(&table[mask as usize], order)
    }

    fn sorted_from_set(
        &self,
        set: &[Arc<PlanExpr>],
        order: &[QueryColumn],
    ) -> Option<Arc<PlanExpr>> {
        let native = set
            .iter()
            .filter(|p| order_satisfies(&p.order, order, &[]))
            .min_by(|x, y| x.cost.total_cmp(&y.cost));
        if let Some(p) = native {
            return Some(Arc::clone(p));
        }
        let base = cheapest(set)?;
        let cost = base.cost + self.ctx.params.sort_cost(base.rows, base.width);
        Some(Arc::new(PlanExpr {
            cost,
            rows: base.rows,
            width: base.width,
            order: order.to_vec(),
            node: PlanNode::Sort {
                input: Arc::clone(base),
                keys: order.to_vec(),
            },
        }))
    }
}

/// Cheapest plan in a set.
pub fn cheapest(set: &[Arc<PlanExpr>]) -> Option<&Arc<PlanExpr>> {
    set.iter().min_by(|x, y| x.cost.total_cmp(&y.cost))
}

/// An abstract leaf provider for INUM skeleton extraction: every slot is
/// accessed at zero cost, delivering exactly the interesting order fixed
/// for it, with design-independent cardinalities. Nested loops are
/// disabled (their inner cost is inherently design-dependent).
///
/// A slot's abstract access depends on the query alone, so the leaves are
/// built once per query ([`Self::new`], from the rows
/// [`query_cardinalities`] already estimated) and each interesting-order
/// combination only relabels the orders they deliver
/// ([`Self::with_orders`]).
pub struct AbstractLeafProvider {
    /// One zero-cost sequential access per slot.
    leaves: Vec<PlanExpr>,
}

impl AbstractLeafProvider {
    /// Unordered abstract leaves for every slot of `ctx.query`; `slot_rows`
    /// is the per-slot half of [`query_cardinalities`].
    pub fn new(ctx: &AccessContext<'_>, slot_rows: &[f64]) -> Self {
        let q = ctx.query;
        let leaves = (0..q.slot_count())
            .map(|slot| {
                let tdef = ctx.catalog.schema.table(q.table_of(slot));
                let needed = if q.select_star {
                    (0..tdef.width()).collect()
                } else {
                    q.columns_used(slot)
                };
                PlanExpr {
                    node: PlanNode::SeqScan {
                        slot,
                        filters: q.filters_on(slot).count(),
                    },
                    cost: 0.0,
                    rows: slot_rows[slot as usize],
                    order: Vec::new(),
                    width: f64::from(tdef.byte_width_of(&needed)).max(8.0),
                }
            })
            .collect();
        AbstractLeafProvider { leaves }
    }

    /// The same leaves, each slot's access delivering `slot_orders[slot]`
    /// (columns of that slot; `None` = no order).
    pub fn with_orders(&self, slot_orders: &[Option<Vec<u16>>]) -> Self {
        let leaves = self
            .leaves
            .iter()
            .zip(slot_orders)
            .enumerate()
            .map(|(slot, (leaf, order))| PlanExpr {
                order: order
                    .as_deref()
                    .unwrap_or(&[])
                    .iter()
                    .map(|&c| QueryColumn::new(slot as u16, c))
                    .collect(),
                ..leaf.clone()
            })
            .collect();
        AbstractLeafProvider { leaves }
    }
}

impl LeafProvider for AbstractLeafProvider {
    fn leaves(&self, _ctx: &AccessContext<'_>, slot: u16) -> Vec<PlanExpr> {
        vec![self.leaves[slot as usize].clone()]
    }

    fn ordered_leaf(
        &self,
        ctx: &AccessContext<'_>,
        slot: u16,
        order: &[QueryColumn],
    ) -> Option<PlanExpr> {
        let base = self.leaves[slot as usize].clone();
        if order_satisfies(&base.order, order, &[]) {
            return Some(base);
        }
        // Sorting on top of the abstract access is internal cost.
        let cost = base.cost + ctx.params.sort_cost(base.rows, base.width);
        Some(PlanExpr {
            cost,
            rows: base.rows,
            width: base.width,
            order: order.to_vec(),
            node: PlanNode::Sort {
                input: Arc::new(base),
                keys: order.to_vec(),
            },
        })
    }

    fn param_probe(
        &self,
        _ctx: &AccessContext<'_>,
        _slot: u16,
        _eq_cols: &[u16],
    ) -> Option<PlanExpr> {
        None
    }
}

/// [`Optimizer::optimize`] as the tree-building planner answered it.
pub fn optimize(
    opt: &Optimizer,
    catalog: &Catalog,
    design: &PhysicalDesign,
    query: &Query,
) -> PlanExpr {
    let ctx = AccessContext {
        catalog,
        design,
        params: &opt.params,
        query,
    };
    let planner = TreePlanner::new(ctx, opt.control, &AccessLeafProvider);
    finish(&ctx, planner.plan())
}

/// The plan of one INUM skeleton (its cost is the internal cost) as the
/// tree-building planner found it: abstract leaves delivering `combo`,
/// nested loops off.
pub fn skeleton(
    opt: &Optimizer,
    catalog: &Catalog,
    query: &Query,
    combo: &[Option<Vec<u16>>],
) -> PlanExpr {
    let design = PhysicalDesign::empty();
    let ctx = AccessContext {
        catalog,
        design: &design,
        params: &opt.params,
        query,
    };
    let (slot_rows, edge_sel) = query_cardinalities(&ctx);
    let provider = AbstractLeafProvider::new(&ctx, &slot_rows).with_orders(combo);
    let control = JoinControl {
        nestloop: false,
        ..opt.control
    };
    let planner = TreePlanner::with_cardinalities(ctx, control, &provider, slot_rows, edge_sel);
    finish(&ctx, planner.plan())
}

/// Finish a set of join-output variants: aggregation, final ordering,
/// limit; returns the cheapest complete plan.
fn finish(ctx: &AccessContext<'_>, variants: Vec<Arc<PlanExpr>>) -> PlanExpr {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{workload_candidates, CandidateConfig};
    use crate::join::JoinPlanner;
    use crate::optimizer::interesting_slot_orders;
    use pgdesign_catalog::samples::{sdss_catalog, tpch_catalog};
    use pgdesign_query::generators::{sdss_workload, tpch_workload};
    use pgdesign_query::Workload;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::OnceLock;

    fn sdss() -> &'static Catalog {
        static C: OnceLock<Catalog> = OnceLock::new();
        C.get_or_init(|| sdss_catalog(0.01))
    }

    fn tpch() -> &'static Catalog {
        static C: OnceLock<Catalog> = OnceLock::new();
        C.get_or_init(|| tpch_catalog(0.01))
    }

    /// Every interesting-order combination of `q`: the cartesian product
    /// of `None` and each slot's interesting orders.
    fn combinations(q: &Query) -> Vec<Vec<Option<Vec<u16>>>> {
        let mut combos: Vec<Vec<Option<Vec<u16>>>> = vec![Vec::new()];
        for slot in 0..q.slot_count() {
            let orders = interesting_slot_orders(q, slot);
            combos = combos
                .iter()
                .flat_map(|prefix| {
                    std::iter::once(None)
                        .chain(orders.iter().cloned().map(Some))
                        .map(move |o| {
                            let mut combo = prefix.clone();
                            combo.push(o);
                            combo
                        })
                })
                .collect();
        }
        combos
    }

    /// Every skeleton of every combination of every query of `w`, planned
    /// on one reused planner, costs what the oracle's tree costs, bit for
    /// bit, and rebuilds to the oracle's tree.
    fn assert_skeletons_match(c: &Catalog, w: &Workload) {
        let opt = Optimizer::new();
        let mut planner = JoinPlanner::default();
        for (qi, (q, _)) in w.iter().enumerate() {
            let combos = combinations(q);
            let arena = opt.optimize_skeletons(&mut planner, c, q, combos.clone());
            for (combo, sk) in combos.iter().zip(&arena) {
                let oracle = skeleton(&opt, c, q, combo);
                assert_eq!(
                    sk.internal_cost.to_bits(),
                    oracle.cost.to_bits(),
                    "Q{qi} {combo:?}: arena {} vs oracle {}",
                    sk.internal_cost,
                    oracle.cost
                );
            }
            let design = PhysicalDesign::empty();
            let ctx = AccessContext {
                catalog: c,
                design: &design,
                params: &opt.params,
                query: q,
            };
            let control = JoinControl {
                nestloop: false,
                ..opt.control
            };
            for combo in &combos {
                let tree = planner.skeleton_plan(&ctx, control, combo);
                assert_eq!(tree, skeleton(&opt, c, q, combo), "Q{qi} {combo:?}");
            }
        }
    }

    /// Under `designs` random subsets (1–8) of `w`'s candidate indexes and
    /// random join controls (hash or merge allowed; nested loops on by
    /// default), `Optimizer::optimize` returns the oracle's plan tree and
    /// `Optimizer::cost` its cost bits.
    fn assert_plans_match(c: &Catalog, w: &Workload, seed: u64, designs: usize) {
        let cands = workload_candidates(c, w, &CandidateConfig::default()).indexes;
        let mut rng = StdRng::seed_from_u64(seed);
        for d in 0..designs {
            let design = if d == 0 || cands.is_empty() {
                PhysicalDesign::empty()
            } else {
                let k = rng.random_range(1..9usize);
                PhysicalDesign::with_indexes(
                    (0..k).map(|_| cands[rng.random_range(0..cands.len())].clone()),
                )
            };
            let control = match rng.random_range(0..4usize) {
                0 => JoinControl {
                    hash: false,
                    ..JoinControl::default()
                },
                1 => JoinControl {
                    merge: false,
                    ..JoinControl::default()
                },
                2 => JoinControl {
                    nestloop: false,
                    ..JoinControl::default()
                },
                _ => JoinControl::default(),
            };
            let opt = Optimizer::new().with_control(control);
            for (qi, (q, _)) in w.iter().enumerate() {
                let oracle = optimize(&opt, c, &design, q);
                let plan = opt.optimize(c, &design, q);
                assert_eq!(plan, oracle, "Q{qi} design {d} {control:?}");
                assert_eq!(
                    opt.cost(c, &design, q).to_bits(),
                    oracle.cost.to_bits(),
                    "Q{qi} design {d} {control:?}"
                );
            }
        }
    }

    #[test]
    fn arena_planner_matches_the_tree_planner_on_the_generator_corpus() {
        for (c, w) in [
            (sdss(), sdss_workload(sdss(), 24, 5)),
            (tpch(), tpch_workload(tpch(), 24, 5)),
        ] {
            assert_skeletons_match(c, &w);
            assert_plans_match(c, &w, 5, 6);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn arena_planner_matches_the_tree_planner(seed in 0u64..1_000_000, n in 1usize..9) {
            let (c, w) = if seed % 2 == 0 {
                (sdss(), sdss_workload(sdss(), n, seed))
            } else {
                (tpch(), tpch_workload(tpch(), n, seed))
            };
            assert_skeletons_match(c, &w);
            assert_plans_match(c, &w, seed ^ 0x5eed, 3);
        }
    }
}
