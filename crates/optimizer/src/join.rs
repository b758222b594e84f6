//! Dynamic-programming join enumeration with interesting orders.
//!
//! A faithful miniature of System R / PostgreSQL join planning: bottom-up
//! DP over slot subsets, hash/merge/nested-loop methods, a Pareto set of
//! plans per subset keyed by delivered sort order, and design-independent
//! cardinalities (which is exactly the property INUM exploits).
//!
//! Leaves are supplied through [`LeafProvider`] so the same enumeration
//! serves two masters: normal optimization (leaves = costed access paths)
//! and INUM skeleton extraction (leaves = zero-cost abstract accesses that
//! deliver a fixed interesting-order combination).

use crate::access::{self, AccessContext};
use crate::optimizer::JoinControl;
use crate::plan::{order_satisfies, PlanExpr, PlanNode};
use crate::selectivity;
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

/// Join planner state.
pub struct JoinPlanner<'a, L: LeafProvider> {
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
/// [`JoinPlanner::with_cardinalities`].
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

impl<'a, L: LeafProvider> JoinPlanner<'a, L> {
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
        JoinPlanner {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CostParams;
    use pgdesign_catalog::design::{Index, PhysicalDesign};
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_catalog::Catalog;
    use pgdesign_query::parse_query;

    fn plan_best(catalog: &Catalog, design: &PhysicalDesign, sql: &str) -> PlanExpr {
        let q = parse_query(&catalog.schema, sql).unwrap();
        let params = CostParams::default();
        let ctx = AccessContext {
            catalog,
            design,
            params: &params,
            query: &q,
        };
        let planner = JoinPlanner::new(ctx, JoinControl::default(), &AccessLeafProvider);
        PlanExpr::clone(cheapest(&planner.plan()).unwrap())
    }

    #[test]
    fn two_way_join_plans() {
        let c = sdss_catalog(0.02);
        let d = PhysicalDesign::empty();
        let plan = plan_best(
            &c,
            &d,
            "SELECT p.ra FROM photoobj p, specobj s WHERE p.objid = s.bestobjid",
        );
        assert!(plan.cost > 0.0);
        assert!(matches!(
            plan.node,
            PlanNode::HashJoin { .. } | PlanNode::MergeJoin { .. } | PlanNode::NestLoop { .. }
        ));
    }

    #[test]
    fn index_on_join_column_enables_cheap_nlj() {
        let c = sdss_catalog(0.02);
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        let no_idx = PhysicalDesign::empty();
        let with_idx = PhysicalDesign::with_indexes([Index::new(photo, vec![0])]);
        // Selective filter on specobj makes few probes into photoobj.
        let sql = "SELECT p.ra FROM photoobj p, specobj s \
                   WHERE p.objid = s.bestobjid AND s.specobjid = 77";
        let base = plan_best(&c, &no_idx, sql);
        let tuned = plan_best(&c, &with_idx, sql);
        assert!(
            tuned.cost < base.cost / 10.0,
            "NLJ with index probe should dominate: {} vs {}",
            tuned.cost,
            base.cost
        );
        assert!(matches!(tuned.node, PlanNode::NestLoop { .. }));
    }

    #[test]
    fn three_way_join_plans() {
        let c = sdss_catalog(0.02);
        let d = PhysicalDesign::empty();
        let plan = plan_best(
            &c,
            &d,
            "SELECT p.objid FROM photoobj p, specobj s, field f \
             WHERE p.objid = s.bestobjid AND p.run = f.run AND f.quality = 1",
        );
        assert!(plan.cost.is_finite());
        // All three slots appear as leaves.
        let mut slots = Vec::new();
        collect_slots(&plan, &mut slots);
        slots.sort_unstable();
        assert_eq!(slots, vec![0, 1, 2]);
    }

    fn collect_slots(p: &PlanExpr, out: &mut Vec<u16>) {
        match &p.node {
            PlanNode::SeqScan { slot, .. }
            | PlanNode::FragmentScan { slot, .. }
            | PlanNode::IndexScan { slot, .. }
            | PlanNode::BitmapHeapScan { slot, .. } => out.push(*slot),
            PlanNode::Sort { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Limit { input, .. } => collect_slots(input, out),
            PlanNode::HashJoin { outer, inner }
            | PlanNode::MergeJoin { outer, inner, .. }
            | PlanNode::NestLoop { outer, inner } => {
                collect_slots(outer, out);
                collect_slots(inner, out);
            }
        }
    }

    #[test]
    fn join_control_disables_methods() {
        let c = sdss_catalog(0.02);
        let d = PhysicalDesign::empty();
        let q = parse_query(
            &c.schema,
            "SELECT p.ra FROM photoobj p, specobj s WHERE p.objid = s.bestobjid",
        )
        .unwrap();
        let params = CostParams::default();
        let ctx = AccessContext {
            catalog: &c,
            design: &d,
            params: &params,
            query: &q,
        };
        let only_merge = JoinControl {
            hash: false,
            merge: true,
            nestloop: false,
        };
        let planner = JoinPlanner::new(ctx, only_merge, &AccessLeafProvider);
        let best = cheapest(&planner.plan()).unwrap().clone();
        assert!(
            matches!(best.node, PlanNode::MergeJoin { .. }),
            "only merge allowed, got {:?}",
            best.node
        );
    }

    #[test]
    fn cartesian_when_no_edges() {
        let c = sdss_catalog(0.005);
        let d = PhysicalDesign::empty();
        let plan = plan_best(
            &c,
            &d,
            "SELECT f.fieldid FROM field f, specobj s WHERE f.quality = 1 AND s.plate = 300",
        );
        assert!(matches!(plan.node, PlanNode::NestLoop { .. }));
        assert!(plan.rows >= 1.0);
    }

    #[test]
    fn subset_rows_multiplies_edge_selectivities() {
        let c = sdss_catalog(0.02);
        let d = PhysicalDesign::empty();
        let q = parse_query(
            &c.schema,
            "SELECT p.ra FROM photoobj p, specobj s WHERE p.objid = s.bestobjid",
        )
        .unwrap();
        let params = CostParams::default();
        let ctx = AccessContext {
            catalog: &c,
            design: &d,
            params: &params,
            query: &q,
        };
        let planner = JoinPlanner::new(ctx, JoinControl::default(), &AccessLeafProvider);
        let r0 = planner.subset_rows(0b01);
        let r1 = planner.subset_rows(0b10);
        let rj = planner.subset_rows(0b11);
        // FK join: |join| ≈ |specobj| (every spec row matches one photo).
        assert!(rj < r0 * r1, "join must be selective");
        assert!(
            (rj / r1 - 1.0).abs() < 0.5,
            "FK join ≈ inner size: {rj} vs {r1}"
        );
    }

    #[test]
    fn abstract_provider_gives_zero_cost_leaves() {
        let c = sdss_catalog(0.02);
        let d = PhysicalDesign::empty();
        let q = parse_query(
            &c.schema,
            "SELECT p.ra FROM photoobj p, specobj s WHERE p.objid = s.bestobjid",
        )
        .unwrap();
        let params = CostParams::default();
        let ctx = AccessContext {
            catalog: &c,
            design: &d,
            params: &params,
            query: &q,
        };
        let provider = AbstractLeafProvider::new(&ctx, &query_cardinalities(&ctx).0)
            .with_orders(&[None, None]);
        let planner = JoinPlanner::new(ctx, JoinControl::default(), &provider);
        let best = cheapest(&planner.plan()).unwrap().clone();
        assert_eq!(best.leaf_access_cost(), 0.0);
        assert!(best.cost > 0.0, "join work itself is not free");
    }

    #[test]
    fn abstract_provider_order_skips_sort() {
        let c = sdss_catalog(0.02);
        let d = PhysicalDesign::empty();
        let q = parse_query(
            &c.schema,
            "SELECT p.ra FROM photoobj p, specobj s WHERE p.objid = s.bestobjid",
        )
        .unwrap();
        let params = CostParams::default();
        let ctx = AccessContext {
            catalog: &c,
            design: &d,
            params: &params,
            query: &q,
        };
        // Orders on the join columns make a sort-free merge join possible.
        let unordered = AbstractLeafProvider::new(&ctx, &query_cardinalities(&ctx).0);
        let ordered = unordered.with_orders(&[Some(vec![0]), Some(vec![1])]);
        let merge_only = JoinControl {
            hash: false,
            merge: true,
            nestloop: false,
        };
        let with_orders = {
            let planner = JoinPlanner::new(ctx, merge_only, &ordered);
            cheapest(&planner.plan()).unwrap().clone()
        };
        let without = {
            let planner = JoinPlanner::new(ctx, merge_only, &unordered);
            cheapest(&planner.plan()).unwrap().clone()
        };
        assert!(
            with_orders.cost < without.cost,
            "pre-ordered inputs avoid sorts: {} vs {}",
            with_orders.cost,
            without.cost
        );
    }
}
