//! Dynamic-programming join enumeration with interesting orders.
//!
//! A faithful miniature of System R / PostgreSQL join planning: bottom-up
//! DP over slot subsets, hash/merge/nested-loop methods, a Pareto set of
//! plans per subset keyed by delivered sort order, and design-independent
//! cardinalities (which is exactly the property INUM exploits).
//!
//! The same enumeration serves two masters: normal optimization (leaves =
//! the design's costed access paths, [`crate::Optimizer::optimize`]) and
//! INUM skeleton extraction (leaves = zero-cost abstract accesses that
//! deliver a fixed interesting-order combination,
//! [`crate::Optimizer::optimize_skeletons`]).
//!
//! Plans are values while they are planned, not trees. A candidate plan is
//! an arena entry — cost, rows, width, an interned sort order and its
//! origin (the operator plus the arena ids of its inputs) — and a subset's
//! Pareto set is a fixed-capacity list of arena ids. A [`JoinPlanner`]
//! owns the arena, the sets and the facts every interesting-order
//! combination of a query shares (subset rows, merge keys, seed orders,
//! abstract leaves, finishing columns, group counts), and keeps every
//! buffer across combinations and queries, so once its buffers have grown
//! planning a combination allocates nothing. Consecutive combinations that
//! agree on the orders of their first slots share the plans of those
//! slots' subsets, which are bit for bit what planning them again would
//! give. Only `optimize` turns the winner into a [`PlanExpr`] tree, by
//! following its back-pointers.

use crate::access::{self, AccessContext};
use crate::optimizer::{equality_bound_columns, JoinControl};
use crate::plan::{order_satisfies, PlanExpr, PlanNode};
use crate::selectivity;
use pgdesign_query::ast::QueryColumn;
use std::cmp::Ordering;
use std::sync::Arc;

/// Maximum plans retained per subset.
const PARETO_CAP: usize = 6;
/// Rescan discount for repeated parameterized probes (cache warmth).
const RESCAN_FACTOR: f64 = 0.7;

/// Arena index of a plan entry.
type EntryId = u32;
/// Id of a sort order interned in [`Orders`].
type OrderId = u32;
/// The empty order (no order delivered or required).
const NO_ORDER: OrderId = 0;

/// One candidate plan: its properties and how it was built.
#[derive(Debug, Clone, Copy)]
struct Entry {
    cost: f64,
    rows: f64,
    width: f64,
    order: OrderId,
    origin: Origin,
}

/// The operator an entry applies, with the arena ids of its inputs.
#[derive(Debug, Clone, Copy)]
enum Origin {
    /// An access path of the design (index into [`AccessLeaves::plans`]).
    Access(u32),
    /// A slot's zero-cost abstract sequential access.
    Abstract(u16),
    /// Sort of the input on the entry's own order.
    Sort(EntryId),
    HashJoin(EntryId, EntryId),
    MergeJoin(EntryId, EntryId, (QueryColumn, QueryColumn)),
    NestLoop(EntryId, EntryId),
    /// Aggregation; `true` = hash aggregation.
    Aggregate(EntryId, bool),
    Limit(EntryId, u64),
}

/// A subset's Pareto set, pruned on (cost, delivered order): arena ids,
/// with room for the one insert that overflows it before it is cut back
/// to [`PARETO_CAP`].
#[derive(Clone, Copy)]
struct Pareto {
    ids: [EntryId; PARETO_CAP + 1],
    len: usize,
}

impl Pareto {
    const EMPTY: Pareto = Pareto {
        ids: [0; PARETO_CAP + 1],
        len: 0,
    };

    fn ids(&self) -> &[EntryId] {
        &self.ids[..self.len]
    }
}

/// The sort orders of one query, interned: id `i` is
/// `cols[spans[i].0..spans[i].1]`, id [`NO_ORDER`] the empty order.
#[derive(Default)]
struct Orders {
    cols: Vec<QueryColumn>,
    spans: Vec<(u32, u32)>,
}

impl Orders {
    fn reset(&mut self) {
        self.cols.clear();
        self.spans.clear();
        self.spans.push((0, 0));
    }

    fn get(&self, id: OrderId) -> &[QueryColumn] {
        let (start, end) = self.spans[id as usize];
        &self.cols[start as usize..end as usize]
    }

    fn intern(&mut self, order: impl ExactSizeIterator<Item = QueryColumn> + Clone) -> OrderId {
        let found = (0..self.spans.len()).find(|&id| {
            let have = self.get(id as OrderId);
            have.len() == order.len() && have.iter().copied().eq(order.clone())
        });
        if let Some(id) = found {
            return id as OrderId;
        }
        let start = self.cols.len() as u32;
        self.cols.extend(order);
        self.spans.push((start, self.cols.len() as u32));
        (self.spans.len() - 1) as OrderId
    }

    /// [`order_satisfies`] with no equality-bound columns.
    fn satisfies(&self, delivered: OrderId, required: OrderId) -> bool {
        delivered == required || order_satisfies(self.get(delivered), self.get(required), &[])
    }
}

/// A join predicate as the DP reads it: each side's slot bit, column and
/// single-column order.
#[derive(Debug, Clone, Copy)]
struct Edge {
    left_bit: usize,
    right_bit: usize,
    left: (QueryColumn, OrderId),
    right: (QueryColumn, OrderId),
}

/// A slot's abstract access: zero cost, design-independent rows and width.
#[derive(Debug, Clone, Copy)]
struct AbstractLeaf {
    rows: f64,
    width: f64,
    filters: usize,
}

/// The design's access paths, as the DP has asked for them: each leaf
/// plan once (the tree rebuild clones it), and the ordered leaves and
/// parameterized probes memoised per request (each is a pure function of
/// its request).
#[derive(Default)]
struct AccessLeaves {
    plans: Vec<PlanExpr>,
    ordered: Vec<(u16, OrderId, EntryId)>,
    probes: Vec<(u16, Vec<u16>, EntryId)>,
}

/// Where the DP's single-slot plans come from.
enum Leaves<'a> {
    /// Zero-cost abstract accesses, slot `s` delivering order `combo[s]`.
    Abstract(&'a [OrderId]),
    /// The design's access paths.
    Access(&'a mut AccessLeaves),
}

/// The join planner: the DP's arena and Pareto sets plus the facts of the
/// query it plans, all kept across calls so their buffers are reused.
/// One planner serves any number of queries, one at a time; a parallel
/// warm-up keeps one per worker.
#[derive(Default)]
pub struct JoinPlanner {
    /// Slots of the query.
    slots: usize,
    /// Per-slot output rows (after filters).
    slot_rows: Vec<f64>,
    /// Join edge selectivities, aligned with `query.joins`.
    edge_sel: Vec<f64>,
    /// Design-independent cardinality of every slot subset.
    subset_rows: Vec<f64>,
    /// The query's join predicates.
    edges: Vec<Edge>,
    /// Seed orders of slot `s`: `seeds[seed_start[s]..seed_start[s + 1]]`.
    seeds: Vec<OrderId>,
    seed_start: Vec<usize>,
    /// Abstract access per slot (skeleton extraction only).
    abstract_leaves: Vec<AbstractLeaf>,
    /// Columns bound by equality predicates.
    eq_bound: Vec<QueryColumn>,
    /// The GROUP BY columns and the ORDER BY keys, as orders.
    group_by: OrderId,
    order_by: OrderId,
    /// Distinct-value product of the GROUP BY columns.
    group_ndv: f64,
    orders: Orders,
    arena: Vec<Entry>,
    /// Pareto set per slot subset.
    sets: Vec<Pareto>,
    /// Scratch: edges crossing the split being combined.
    crossing: Vec<usize>,
    /// Scratch: the inner slot's columns of the crossing edges.
    eq_cols: Vec<u16>,
    /// Arena length before slot `s`'s plans ([`Self::plan_subsets`]).
    marks: Vec<usize>,
    /// The order per slot of the combination planned last.
    combo: Vec<OrderId>,
    /// Whether the arena holds the plans of `combo` (of the loaded query,
    /// under the control it was planned with).
    combo_planned: bool,
    /// The arena id of each slot's abstract leaf in this combination.
    base: Vec<EntryId>,
}

impl JoinPlanner {
    /// The cheapest complete plan (joins, aggregation, final ordering,
    /// limit) of `ctx.query` under `ctx.design`.
    pub(crate) fn best_plan(&mut self, ctx: &AccessContext<'_>, control: JoinControl) -> PlanExpr {
        let mut access = AccessLeaves::default();
        let best = self.plan_access(ctx, control, &mut access);
        self.tree(best, &access.plans)
    }

    /// The cost of [`Self::best_plan`], without building its tree.
    pub(crate) fn best_cost(&mut self, ctx: &AccessContext<'_>, control: JoinControl) -> f64 {
        let best = self.plan_access(ctx, control, &mut AccessLeaves::default());
        self.arena[best as usize].cost
    }

    /// For each interesting-order combination of `ctx.query` (per slot,
    /// the columns of that slot its access delivers, `None` = no order),
    /// the cost of the cheapest complete plan whose leaves are zero-cost
    /// abstract accesses delivering that order: the INUM internal cost.
    /// `ctx.design` is not read.
    pub(crate) fn internal_costs(
        &mut self,
        ctx: &AccessContext<'_>,
        control: JoinControl,
        combos: &[Vec<Option<Vec<u16>>>],
    ) -> Vec<f64> {
        self.load(ctx);
        self.load_abstract_leaves(ctx);
        combos
            .iter()
            .map(|combo| {
                let best = self.plan_abstract(ctx, control, combo);
                self.arena[best as usize].cost
            })
            .collect()
    }

    /// The plan behind one [`Self::internal_costs`] entry, as a tree.
    #[cfg(test)]
    pub(crate) fn skeleton_plan(
        &mut self,
        ctx: &AccessContext<'_>,
        control: JoinControl,
        combo: &[Option<Vec<u16>>],
    ) -> PlanExpr {
        self.load(ctx);
        self.load_abstract_leaves(ctx);
        let best = self.plan_abstract(ctx, control, combo);
        self.tree(best, &[])
    }

    fn plan_access(
        &mut self,
        ctx: &AccessContext<'_>,
        control: JoinControl,
        access: &mut AccessLeaves,
    ) -> EntryId {
        self.load(ctx);
        let variants = self.plan_subsets(ctx, control, &mut Leaves::Access(access), 0);
        self.finish(ctx, variants)
    }

    /// Plan one combination after [`Self::load`] and
    /// [`Self::load_abstract_leaves`]. The subsets of the slots before the
    /// first one whose order differs from the previous combination's keep
    /// their plans; combinations come in cartesian order, last slot
    /// fastest, so most differ in the last slot alone.
    fn plan_abstract(
        &mut self,
        ctx: &AccessContext<'_>,
        control: JoinControl,
        combo: &[Option<Vec<u16>>],
    ) -> EntryId {
        let mut ids = std::mem::take(&mut self.combo);
        let mut keep = if self.combo_planned {
            self.slots - 1
        } else {
            0
        };
        ids.resize(self.slots, NO_ORDER);
        for (slot, order) in combo.iter().enumerate() {
            let cols = order.as_deref().unwrap_or(&[]);
            let id = self
                .orders
                .intern(cols.iter().map(|&c| QueryColumn::new(slot as u16, c)));
            if ids[slot] != id {
                ids[slot] = id;
                keep = keep.min(slot);
            }
        }
        let variants = self.plan_subsets(ctx, control, &mut Leaves::Abstract(&ids), keep);
        self.combo = ids;
        self.combo_planned = true;
        self.finish(ctx, variants)
    }

    /// Compute the facts every plan of `ctx.query` shares.
    fn load(&mut self, ctx: &AccessContext<'_>) {
        let q = ctx.query;
        let n = q.slot_count() as usize;
        assert!((1..=16).contains(&n), "join DP supports 1..=16 slots");
        self.slots = n;
        self.combo_planned = false;
        self.orders.reset();

        self.slot_rows.clear();
        self.slot_rows
            .extend((0..n as u16).map(|s| selectivity::slot_rows(ctx.catalog, q, s)));
        self.edge_sel.clear();
        self.edge_sel.extend(
            q.joins
                .iter()
                .map(|j| selectivity::join_predicate_selectivity(ctx.catalog, q, j)),
        );
        let (slot_rows, edge_sel) = (&self.slot_rows, &self.edge_sel);
        self.subset_rows.clear();
        self.subset_rows.extend((0..1usize << n).map(|mask| {
            let mut rows = 1.0f64;
            for (s, r) in slot_rows.iter().enumerate() {
                if mask & (1 << s) != 0 {
                    rows *= r;
                }
            }
            for (j, sel) in q.joins.iter().zip(edge_sel) {
                if mask & (1 << j.left.slot) != 0 && mask & (1 << j.right.slot) != 0 {
                    rows *= sel;
                }
            }
            rows.max(1.0)
        }));

        self.edges.clear();
        for j in &q.joins {
            let left = (j.left, self.orders.intern(std::iter::once(j.left)));
            let right = (j.right, self.orders.intern(std::iter::once(j.right)));
            self.edges.push(Edge {
                left_bit: 1 << j.left.slot,
                right_bit: 1 << j.right.slot,
                left,
                right,
            });
        }

        // Seed interesting orders: join columns of each slot, plus
        // top-level order/group columns, so merge joins and ordered
        // aggregation have ordered inputs available.
        self.seeds.clear();
        self.seed_start.clear();
        for s in 0..n as u16 {
            self.seed_start.push(self.seeds.len());
            for j in q.joins_on(s) {
                if let Some(c) = j.column_on(s) {
                    let id = self.orders.intern(std::iter::once(QueryColumn::new(s, c)));
                    self.seeds.push(id);
                }
            }
            for o in q.order_by.iter().filter(|o| o.col.slot == s) {
                let id = self.orders.intern(std::iter::once(o.col));
                self.seeds.push(id);
            }
            if q.group_by.iter().all(|g| g.slot == s) && !q.group_by.is_empty() {
                let id = self.orders.intern(q.group_by.iter().copied());
                self.seeds.push(id);
            }
        }
        self.seed_start.push(self.seeds.len());

        self.eq_bound.clear();
        self.eq_bound.extend(equality_bound_columns(q));
        self.group_by = self.orders.intern(q.group_by.iter().copied());
        self.order_by = self.orders.intern(q.order_by.iter().map(|o| o.col));
        self.group_ndv = selectivity::group_ndv(ctx.catalog, q);
    }

    /// Each slot's abstract access, cut from the rows [`Self::load`]
    /// estimated.
    fn load_abstract_leaves(&mut self, ctx: &AccessContext<'_>) {
        let q = ctx.query;
        self.abstract_leaves.clear();
        for slot in 0..q.slot_count() {
            let tdef = ctx.catalog.schema.table(q.table_of(slot));
            let needed = if q.select_star {
                (0..tdef.width()).collect()
            } else {
                q.columns_used(slot)
            };
            self.abstract_leaves.push(AbstractLeaf {
                rows: self.slot_rows[slot as usize],
                width: f64::from(tdef.byte_width_of(&needed)).max(8.0),
                filters: q.filters_on(slot).count(),
            });
        }
    }

    fn push(&mut self, entry: Entry) -> EntryId {
        self.arena.push(entry);
        (self.arena.len() - 1) as EntryId
    }

    fn entry(&self, id: EntryId) -> Entry {
        self.arena[id as usize]
    }

    /// Run the DP and return the Pareto set of the full slot set.
    ///
    /// Slot `s`'s leaves and then every subset whose highest slot is `s`
    /// are planned together, so the arena holds the plans of the subsets
    /// of the first `s` slots below `marks[s]`. The plans of the first
    /// `keep` slots' subsets are kept from the previous call: the caller
    /// guarantees those slots' leaves are what they were then, and a
    /// subset's plans depend on nothing else, so what is kept is what
    /// planning afresh would give, bit for bit.
    fn plan_subsets(
        &mut self,
        ctx: &AccessContext<'_>,
        control: JoinControl,
        leaves: &mut Leaves<'_>,
        keep: usize,
    ) -> Pareto {
        let n = self.slots;
        if keep == 0 {
            self.arena.clear();
            self.marks.clear();
            self.base.clear();
            self.sets.clear();
            self.sets.resize(1 << n, Pareto::EMPTY);
        } else {
            self.arena.truncate(self.marks[keep]);
            self.marks.truncate(keep);
            self.base.truncate(keep);
        }
        for s in keep..n {
            self.marks.push(self.arena.len());
            self.sets[1 << s] = self.plan_leaf(ctx, leaves, s as u16);
            for mask in (1 << s) + 1..1 << (s + 1) {
                self.sets[mask] = self.plan_join(ctx, control, leaves, mask);
            }
        }
        self.sets[(1 << n) - 1]
    }

    /// The Pareto set of one slot: its leaves, plus a plan delivering each
    /// seed order.
    fn plan_leaf(&mut self, ctx: &AccessContext<'_>, leaves: &mut Leaves<'_>, slot: u16) -> Pareto {
        let s = slot as usize;
        let mut set = Pareto::EMPTY;
        match leaves {
            Leaves::Abstract(combo) => {
                let leaf = self.abstract_leaves[s];
                let id = self.push(Entry {
                    cost: 0.0,
                    rows: leaf.rows,
                    width: leaf.width,
                    order: combo[s],
                    origin: Origin::Abstract(slot),
                });
                self.base.push(id);
                self.offer_id(&mut set, id);
            }
            Leaves::Access(access) => {
                for plan in access::access_paths(ctx, slot, &[]) {
                    let entry = access.entry(plan, &mut self.orders);
                    self.offer(&mut set, entry);
                }
            }
        }
        for k in self.seed_start[s]..self.seed_start[s + 1] {
            let order = self.seeds[k];
            if let Some(id) = self.ordered_leaf(ctx, leaves, slot, order) {
                self.offer_id(&mut set, id);
            }
        }
        set
    }

    /// The Pareto set of a subset of two or more slots, from the sets of
    /// its proper subsets.
    fn plan_join(
        &mut self,
        ctx: &AccessContext<'_>,
        control: JoinControl,
        leaves: &mut Leaves<'_>,
        mask: usize,
    ) -> Pareto {
        let mut set = Pareto::EMPTY;
        let mut connected_split_found = false;
        // Enumerate proper submasks as the outer side.
        let mut a = (mask - 1) & mask;
        while a > 0 {
            let b = mask & !a;
            if self.sets[a].len > 0 && self.sets[b].len > 0 {
                self.crossing.clear();
                for (i, e) in self.edges.iter().enumerate() {
                    let (l, r) = (e.left_bit, e.right_bit);
                    if (a & l != 0 && b & r != 0) || (a & r != 0 && b & l != 0) {
                        self.crossing.push(i);
                    }
                }
                if !self.crossing.is_empty() {
                    connected_split_found = true;
                    self.combine(ctx, control, leaves, &mut set, a, b);
                }
            }
            a = (a - 1) & mask;
        }
        if !connected_split_found {
            // Disconnected query: permit cartesian products.
            let mut a = (mask - 1) & mask;
            while a > 0 {
                let b = mask & !a;
                if self.sets[a].len > 0 && self.sets[b].len > 0 {
                    self.cartesian(ctx, &mut set, a, b);
                }
                a = (a - 1) & mask;
            }
        }
        set
    }

    /// Combine subsets `a` (outer) and `b` (inner) over the crossing edges.
    fn combine(
        &mut self,
        ctx: &AccessContext<'_>,
        control: JoinControl,
        leaves: &mut Leaves<'_>,
        set: &mut Pareto,
        a: usize,
        b: usize,
    ) {
        let p = ctx.params;
        let out_rows = self.subset_rows[a | b];

        // Hash join: probe = outer (any variant), build = cheapest inner.
        if control.hash {
            if let Some(inner_id) = self.cheapest(&self.sets[b]) {
                let inner = self.entry(inner_id);
                let outers = self.sets[a];
                for &outer_id in outers.ids() {
                    let outer = self.entry(outer_id);
                    let cost = outer.cost
                        + inner.cost
                        + p.hash_build_cost(inner.rows, inner.width)
                        + outer.rows * p.cpu_operator_cost
                        + out_rows * p.cpu_tuple_cost;
                    self.offer(
                        set,
                        Entry {
                            cost,
                            rows: out_rows,
                            width: outer.width + inner.width,
                            order: NO_ORDER,
                            origin: Origin::HashJoin(outer_id, inner_id),
                        },
                    );
                }
            }
        }

        // Merge join on each crossing edge.
        if control.merge {
            for k in 0..self.crossing.len() {
                let e = self.edges[self.crossing[k]];
                let (ok, ik) = if a & e.left_bit != 0 {
                    (e.left, e.right)
                } else {
                    (e.right, e.left)
                };
                let outer = self.ordered_variant(ctx, leaves, a, ok.1);
                let inner = self.ordered_variant(ctx, leaves, b, ik.1);
                if let (Some(outer_id), Some(inner_id)) = (outer, inner) {
                    let (outer, inner) = (self.entry(outer_id), self.entry(inner_id));
                    let cost = outer.cost
                        + inner.cost
                        + (outer.rows + inner.rows) * p.cpu_operator_cost
                        + out_rows * p.cpu_tuple_cost;
                    self.offer(
                        set,
                        Entry {
                            cost,
                            rows: out_rows,
                            width: outer.width + inner.width,
                            order: ok.1,
                            origin: Origin::MergeJoin(outer_id, inner_id, (ok.0, ik.0)),
                        },
                    );
                }
            }
        }

        // Parameterized nested loop: inner must be a single base slot.
        if control.nestloop && b.count_ones() == 1 {
            let inner_slot = b.trailing_zeros() as u16;
            let joins = &ctx.query.joins;
            self.eq_cols.clear();
            self.eq_cols.extend(
                self.crossing
                    .iter()
                    .filter_map(|&e| joins[e].column_on(inner_slot)),
            );
            if !self.eq_cols.is_empty() {
                if let Some(probe_id) = self.param_probe(ctx, leaves, inner_slot) {
                    let probe = self.entry(probe_id);
                    let outers = self.sets[a];
                    for &outer_id in outers.ids() {
                        let outer = self.entry(outer_id);
                        let probes = outer.rows.max(1.0);
                        let probe_cost = probe.cost * (1.0 + RESCAN_FACTOR * (probes - 1.0));
                        let cost = outer.cost + probe_cost + out_rows * p.cpu_tuple_cost;
                        self.offer(
                            set,
                            Entry {
                                cost,
                                rows: out_rows,
                                width: outer.width + probe.width,
                                order: outer.order,
                                origin: Origin::NestLoop(outer_id, probe_id),
                            },
                        );
                    }
                }
            }
        }
    }

    /// Cartesian product via materialized nested loop (disconnected query
    /// graphs only).
    fn cartesian(&mut self, ctx: &AccessContext<'_>, set: &mut Pareto, a: usize, b: usize) {
        let p = ctx.params;
        let out_rows = self.subset_rows[a | b];
        if let (Some(outer_id), Some(inner_id)) =
            (self.cheapest(&self.sets[a]), self.cheapest(&self.sets[b]))
        {
            let (outer, inner) = (self.entry(outer_id), self.entry(inner_id));
            let cost = outer.cost
                + inner.cost
                + outer.rows * inner.rows * p.cpu_operator_cost
                + out_rows * p.cpu_tuple_cost;
            self.offer(
                set,
                Entry {
                    cost,
                    rows: out_rows,
                    width: outer.width + inner.width,
                    order: outer.order,
                    origin: Origin::NestLoop(outer_id, inner_id),
                },
            );
        }
    }

    /// Best plan for slot `slot` delivering `order` (may be a Sort).
    fn ordered_leaf(
        &mut self,
        ctx: &AccessContext<'_>,
        leaves: &mut Leaves<'_>,
        slot: u16,
        order: OrderId,
    ) -> Option<EntryId> {
        match leaves {
            Leaves::Abstract(_) => {
                let base_id = self.base[slot as usize];
                let base = self.entry(base_id);
                if self.orders.satisfies(base.order, order) {
                    return Some(base_id);
                }
                // Sorting on top of the abstract access is internal cost.
                Some(self.push(Entry {
                    cost: base.cost + ctx.params.sort_cost(base.rows, base.width),
                    order,
                    origin: Origin::Sort(base_id),
                    ..base
                }))
            }
            Leaves::Access(access) => {
                if let Some(&(_, _, id)) = access
                    .ordered
                    .iter()
                    .find(|&&(s, o, _)| s == slot && o == order)
                {
                    return Some(id);
                }
                let plan = access::best_access(ctx, slot, Some(self.orders.get(order)), &[]);
                let entry = access.entry(plan, &mut self.orders);
                let id = self.push(entry);
                access.ordered.push((slot, order, id));
                Some(id)
            }
        }
    }

    /// A parameterized probe of `slot` with equality bindings on
    /// `self.eq_cols`, for use as a nested-loop inner; `None` for abstract
    /// leaves, whose probe cost would depend on the design.
    fn param_probe(
        &mut self,
        ctx: &AccessContext<'_>,
        leaves: &mut Leaves<'_>,
        slot: u16,
    ) -> Option<EntryId> {
        let Leaves::Access(access) = leaves else {
            return None;
        };
        if let Some((_, _, id)) = access
            .probes
            .iter()
            .find(|(s, cols, _)| *s == slot && *cols == self.eq_cols)
        {
            return Some(*id);
        }
        let plan = access::best_access(ctx, slot, None, &self.eq_cols);
        let entry = access.entry(plan, &mut self.orders);
        let id = self.push(entry);
        access.probes.push((slot, self.eq_cols.clone(), id));
        Some(id)
    }

    /// Best plan for subset `mask` delivering `order` — a native variant
    /// if one exists, else the cheapest plan wrapped in a Sort; for single
    /// slots, the slot's ordered leaf competes with the Pareto set.
    fn ordered_variant(
        &mut self,
        ctx: &AccessContext<'_>,
        leaves: &mut Leaves<'_>,
        mask: usize,
        order: OrderId,
    ) -> Option<EntryId> {
        if mask.count_ones() == 1 {
            let slot = mask.trailing_zeros() as u16;
            if let Some(leaf) = self.ordered_leaf(ctx, leaves, slot, order) {
                return match self.sorted_from_set(ctx, mask, order) {
                    Some(s) if self.entry(s).cost < self.entry(leaf).cost => Some(s),
                    _ => Some(leaf),
                };
            }
        }
        self.sorted_from_set(ctx, mask, order)
    }

    fn sorted_from_set(
        &mut self,
        ctx: &AccessContext<'_>,
        mask: usize,
        order: OrderId,
    ) -> Option<EntryId> {
        let set = self.sets[mask];
        let native = set
            .ids()
            .iter()
            .copied()
            .filter(|&id| self.orders.satisfies(self.entry(id).order, order))
            .min_by(|&x, &y| self.entry(x).cost.total_cmp(&self.entry(y).cost));
        if native.is_some() {
            return native;
        }
        let base_id = self.cheapest(&set)?;
        let base = self.entry(base_id);
        Some(self.push(Entry {
            cost: base.cost + ctx.params.sort_cost(base.rows, base.width),
            order,
            origin: Origin::Sort(base_id),
            ..base
        }))
    }

    /// Cheapest plan in a set (the first of equals).
    fn cheapest(&self, set: &Pareto) -> Option<EntryId> {
        set.ids()
            .iter()
            .copied()
            .min_by(|&x, &y| self.entry(x).cost.total_cmp(&self.entry(y).cost))
    }

    /// Insert `plan` into `set` unless a member dominates it (no more
    /// expensive, delivering at least the same order prefix); only an
    /// admitted plan takes an arena place.
    fn offer(&mut self, set: &mut Pareto, plan: Entry) {
        if !self.dominated(set, &plan) {
            let id = self.push(plan);
            self.admit(set, id);
        }
    }

    /// [`Self::offer`] for a plan already in the arena.
    fn offer_id(&mut self, set: &mut Pareto, id: EntryId) {
        if !self.dominated(set, &self.entry(id)) {
            self.admit(set, id);
        }
    }

    fn dominated(&self, set: &Pareto, plan: &Entry) -> bool {
        set.ids().iter().any(|&p| {
            let p = self.entry(p);
            p.cost <= plan.cost && self.orders.satisfies(p.order, plan.order)
        })
    }

    /// Add `id` to `set`, dropping the members it dominates; past
    /// [`PARETO_CAP`], keep the cheapest (a stable sort, equal costs in
    /// insertion order).
    fn admit(&self, set: &mut Pareto, id: EntryId) {
        let plan = self.entry(id);
        let mut kept = 0;
        for i in 0..set.len {
            let p = self.entry(set.ids[i]);
            if !(plan.cost <= p.cost && self.orders.satisfies(plan.order, p.order)) {
                set.ids[kept] = set.ids[i];
                kept += 1;
            }
        }
        set.ids[kept] = id;
        set.len = kept + 1;
        if set.len > PARETO_CAP {
            for i in 1..set.len {
                let mut j = i;
                while j > 0
                    && self
                        .entry(set.ids[j - 1])
                        .cost
                        .total_cmp(&self.entry(set.ids[j]).cost)
                        == Ordering::Greater
                {
                    set.ids.swap(j - 1, j);
                    j -= 1;
                }
            }
            set.len = PARETO_CAP;
        }
    }

    /// Finish the join-output variants: aggregation, final ordering,
    /// limit; returns the cheapest complete plan (the first of equals).
    fn finish(&mut self, ctx: &AccessContext<'_>, variants: Pareto) -> EntryId {
        let q = ctx.query;
        let p = ctx.params;
        let n_aggs = q.aggregates.len().max(1) as f64;
        let mut best: Option<EntryId> = None;
        for &v_id in variants.ids() {
            let v = self.entry(v_id);
            let mut finals = [v_id; 2];
            let mut n_finals = 1;
            if !q.group_by.is_empty() {
                let groups = self.group_ndv.min(v.rows).max(1.0);
                // Hash aggregate.
                finals[0] = self.push(Entry {
                    cost: v.cost
                        + v.rows * n_aggs * p.cpu_operator_cost
                        + groups * p.cpu_tuple_cost
                        + p.hash_build_cost(groups, v.width) * 0.5,
                    rows: groups,
                    width: v.width,
                    order: NO_ORDER,
                    origin: Origin::Aggregate(v_id, true),
                });
                // Stream aggregate over ordered input (sort if needed).
                let ordered_id = if self.satisfies_bound(v.order, self.group_by) {
                    v_id
                } else {
                    self.push(Entry {
                        cost: v.cost + p.sort_cost(v.rows, v.width),
                        order: self.group_by,
                        origin: Origin::Sort(v_id),
                        ..v
                    })
                };
                let ordered = self.entry(ordered_id);
                finals[1] = self.push(Entry {
                    cost: ordered.cost
                        + ordered.rows * n_aggs * p.cpu_operator_cost
                        + groups * p.cpu_tuple_cost,
                    rows: groups,
                    width: ordered.width,
                    order: ordered.order,
                    origin: Origin::Aggregate(ordered_id, false),
                });
                n_finals = 2;
            } else if !q.aggregates.is_empty() {
                // Scalar aggregation collapses to one row.
                finals[0] = self.push(Entry {
                    cost: v.cost + v.rows * n_aggs * p.cpu_operator_cost,
                    rows: 1.0,
                    width: 8.0 * n_aggs,
                    order: NO_ORDER,
                    origin: Origin::Aggregate(v_id, false),
                });
            }

            for &f in &finals[..n_finals] {
                let mut plan_id = f;
                let mut plan = self.entry(f);
                // Final ORDER BY.
                if !q.order_by.is_empty() && !self.satisfies_bound(plan.order, self.order_by) {
                    plan = Entry {
                        cost: plan.cost + p.sort_cost(plan.rows, plan.width),
                        order: self.order_by,
                        origin: Origin::Sort(plan_id),
                        ..plan
                    };
                    plan_id = self.push(plan);
                }
                // LIMIT.
                if let Some(n) = q.limit {
                    plan = Entry {
                        rows: plan.rows.min(n as f64),
                        origin: Origin::Limit(plan_id, n),
                        ..plan
                    };
                    plan_id = self.push(plan);
                }
                if best.is_none_or(|b| plan.cost < self.entry(b).cost) {
                    best = Some(plan_id);
                }
            }
        }
        best.expect("at least one variant exists")
    }

    /// [`order_satisfies`] with the query's equality-bound columns.
    fn satisfies_bound(&self, delivered: OrderId, required: OrderId) -> bool {
        order_satisfies(
            self.orders.get(delivered),
            self.orders.get(required),
            &self.eq_bound,
        )
    }

    /// The plan tree of entry `id`, rebuilt from its back-pointers;
    /// `plans` are the access paths its `Access` leaves index.
    fn tree(&self, id: EntryId, plans: &[PlanExpr]) -> PlanExpr {
        let e = self.entry(id);
        let sub = |id| Arc::new(self.tree(id, plans));
        let order = self.orders.get(e.order);
        let node = match e.origin {
            Origin::Access(leaf) => return plans[leaf as usize].clone(),
            Origin::Abstract(slot) => PlanNode::SeqScan {
                slot,
                filters: self.abstract_leaves[slot as usize].filters,
            },
            Origin::Sort(input) => PlanNode::Sort {
                input: sub(input),
                keys: order.to_vec(),
            },
            Origin::HashJoin(outer, inner) => PlanNode::HashJoin {
                outer: sub(outer),
                inner: sub(inner),
            },
            Origin::MergeJoin(outer, inner, key) => PlanNode::MergeJoin {
                outer: sub(outer),
                inner: sub(inner),
                key,
            },
            Origin::NestLoop(outer, inner) => PlanNode::NestLoop {
                outer: sub(outer),
                inner: sub(inner),
            },
            Origin::Aggregate(input, hash) => PlanNode::Aggregate {
                input: sub(input),
                hash,
            },
            Origin::Limit(input, n) => PlanNode::Limit {
                input: sub(input),
                n,
            },
        };
        PlanExpr {
            node,
            cost: e.cost,
            rows: e.rows,
            order: order.to_vec(),
            width: e.width,
        }
    }
}

impl AccessLeaves {
    /// Keep an access path for the tree rebuild; its arena entry.
    fn entry(&mut self, plan: PlanExpr, orders: &mut Orders) -> Entry {
        let entry = Entry {
            cost: plan.cost,
            rows: plan.rows,
            width: plan.width,
            order: orders.intern(plan.order.iter().copied()),
            origin: Origin::Access(self.plans.len() as u32),
        };
        self.plans.push(plan);
        entry
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
        JoinPlanner::default().best_plan(&ctx, JoinControl::default())
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

    fn two_way(c: &Catalog) -> pgdesign_query::Query {
        parse_query(
            &c.schema,
            "SELECT p.ra FROM photoobj p, specobj s WHERE p.objid = s.bestobjid",
        )
        .unwrap()
    }

    #[test]
    fn join_control_disables_methods() {
        let c = sdss_catalog(0.02);
        let d = PhysicalDesign::empty();
        let q = two_way(&c);
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
        let best = JoinPlanner::default().best_plan(&ctx, only_merge);
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
        let q = two_way(&c);
        let params = CostParams::default();
        let ctx = AccessContext {
            catalog: &c,
            design: &d,
            params: &params,
            query: &q,
        };
        let mut planner = JoinPlanner::default();
        planner.load(&ctx);
        let r0 = planner.subset_rows[0b01];
        let r1 = planner.subset_rows[0b10];
        let rj = planner.subset_rows[0b11];
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
        let q = two_way(&c);
        let params = CostParams::default();
        let ctx = AccessContext {
            catalog: &c,
            design: &d,
            params: &params,
            query: &q,
        };
        let best =
            JoinPlanner::default().skeleton_plan(&ctx, JoinControl::default(), &[None, None]);
        assert_eq!(best.leaf_access_cost(), 0.0);
        assert!(best.cost > 0.0, "join work itself is not free");
    }

    #[test]
    fn abstract_provider_order_skips_sort() {
        let c = sdss_catalog(0.02);
        let d = PhysicalDesign::empty();
        let q = two_way(&c);
        let params = CostParams::default();
        let ctx = AccessContext {
            catalog: &c,
            design: &d,
            params: &params,
            query: &q,
        };
        // Orders on the join columns make a sort-free merge join possible.
        let merge_only = JoinControl {
            hash: false,
            merge: true,
            nestloop: false,
        };
        let costs = JoinPlanner::default().internal_costs(
            &ctx,
            merge_only,
            &[vec![Some(vec![0]), Some(vec![1])], vec![None, None]],
        );
        assert!(
            costs[0] < costs[1],
            "pre-ordered inputs avoid sorts: {} vs {}",
            costs[0],
            costs[1]
        );
    }
}
