//! Access-path selection for one table slot.
//!
//! Enumerates and costs every way to produce a slot's filtered rows under
//! a given [`PhysicalDesign`]: sequential scan, vertical-fragment scan,
//! (index-only) B-tree scans, bitmap heap scans — with horizontal partition
//! pruning applied where the design provides it. The what-if machinery of
//! the paper reduces to calling these functions with hypothetical designs.

use crate::params::CostParams;
use crate::plan::{order_satisfies, PlanExpr, PlanNode};
use crate::selectivity;
use pgdesign_catalog::design::{Index, PhysicalDesign};
use pgdesign_catalog::sizing;
use pgdesign_catalog::Catalog;
use pgdesign_query::ast::{PredOp, Query, QueryColumn};
use std::sync::Arc;

/// Everything access-path costing needs, bundled to keep signatures sane.
#[derive(Clone, Copy)]
pub struct AccessContext<'a> {
    /// Catalog (schema + statistics).
    pub catalog: &'a Catalog,
    /// Effective physical design (base ∪ what-if).
    pub design: &'a PhysicalDesign,
    /// Cost constants.
    pub params: &'a CostParams,
    /// The query being planned.
    pub query: &'a Query,
}

/// Per-column predicate summary used for index prefix matching.
#[derive(Debug, Clone, Copy, Default)]
struct ColRestriction {
    eq_sel: Option<f64>,
    range_sel: Option<f64>,
}

/// Derived information about a slot, shared by all candidate paths.
pub struct SlotProfile {
    /// The slot.
    pub slot: u16,
    /// Base-table rows.
    pub base_rows: f64,
    /// Rows the path must output (all filters + parameterized equalities).
    pub rows_out: f64,
    /// Columns the slot must supply upward.
    pub needed_cols: Vec<u16>,
    /// Output width in bytes.
    pub out_width: f64,
    /// Number of filter predicates on the slot.
    pub n_filters: usize,
    /// Horizontal-partition surviving fraction for this slot's predicates.
    pub h_frac: f64,
    /// Equality-bound columns (for order satisfaction).
    pub eq_bound: Vec<QueryColumn>,
    restrictions: Vec<ColRestriction>,
}

impl SlotProfile {
    /// Build the profile for `slot`, optionally adding parameterized
    /// equality columns (the nested-loop inner case).
    pub fn build(ctx: &AccessContext<'_>, slot: u16, param_eq_cols: &[u16]) -> SlotProfile {
        let table = ctx.query.table_of(slot);
        let tdef = ctx.catalog.schema.table(table);
        let tstats = ctx.catalog.table_stats(table);
        let base_rows = tstats.row_count as f64;

        let mut needed_cols = if ctx.query.select_star {
            (0..tdef.width()).collect()
        } else {
            ctx.query.columns_used(slot)
        };
        for &c in param_eq_cols {
            if !needed_cols.contains(&c) {
                needed_cols.push(c);
                needed_cols.sort_unstable();
            }
        }

        let mut restrictions = vec![ColRestriction::default(); tdef.width() as usize];
        let mut total_sel = 1.0f64;
        let mut n_filters = 0usize;
        for f in ctx.query.filters_on(slot) {
            n_filters += 1;
            let stats = tstats.column(f.col.column);
            let sel = selectivity::predicate_selectivity(stats, &f.op);
            total_sel *= sel;
            let r = &mut restrictions[f.col.column as usize];
            match &f.op {
                PredOp::Cmp(pgdesign_query::ast::CmpOp::Eq, _) | PredOp::InList(_) => {
                    r.eq_sel = Some(r.eq_sel.map_or(sel, |p| p.min(sel)));
                }
                op if op.is_sargable() => {
                    r.range_sel = Some(r.range_sel.map_or(sel, |p| p * sel));
                }
                _ => {}
            }
        }
        let mut eq_bound: Vec<QueryColumn> = restrictions
            .iter()
            .enumerate()
            .filter(|(_, r)| r.eq_sel.is_some())
            .map(|(c, _)| QueryColumn::new(slot, c as u16))
            .collect();
        for &c in param_eq_cols {
            let ndv = tstats.column(c).ndv.max(1.0);
            let sel = 1.0 / ndv;
            total_sel *= sel;
            let r = &mut restrictions[c as usize];
            r.eq_sel = Some(r.eq_sel.map_or(sel, |p| p.min(sel)));
            let qc = QueryColumn::new(slot, c);
            if !eq_bound.contains(&qc) {
                eq_bound.push(qc);
            }
        }
        total_sel = total_sel.max(1e-12);

        // Horizontal partition pruning fraction.
        let h_frac = match ctx.design.horizontal(table) {
            Some(hp) => {
                let (lo, hi) = column_range_restriction(ctx.query, slot, hp.column);
                hp.surviving_fraction(lo, hi)
            }
            None => 1.0,
        };

        let out_width = f64::from(tdef.byte_width_of(&needed_cols)).max(8.0);
        SlotProfile {
            slot,
            base_rows,
            rows_out: (base_rows * total_sel).max(1.0),
            needed_cols,
            out_width,
            n_filters,
            h_frac,
            eq_bound,
            restrictions,
        }
    }

    /// Match an index's key prefix against the slot's restrictions:
    /// returns (matched column count, combined prefix selectivity).
    /// Equality columns extend the prefix; the first range column closes
    /// it (standard B-tree boundary-key behaviour).
    pub fn match_index(&self, index: &Index) -> (usize, f64) {
        let mut matched = 0usize;
        let mut sel = 1.0f64;
        for &c in &index.columns {
            let r = self.restrictions[c as usize];
            if let Some(eq) = r.eq_sel {
                sel *= eq;
                matched += 1;
            } else if let Some(rg) = r.range_sel {
                sel *= rg;
                matched += 1;
                break;
            } else {
                break;
            }
        }
        (matched, sel.max(1e-12))
    }
}

/// Mackert–Lohman estimate of distinct heap pages touched by `rows`
/// random row fetches against a relation of `pages` pages.
pub fn pages_fetched(rows: f64, pages: f64) -> f64 {
    let p = pages.max(1.0);
    if rows <= 0.0 {
        return 0.0;
    }
    let frac = (1.0 - 1.0 / p).powf(rows);
    (p * (1.0 - frac)).clamp(1.0_f64.min(rows), p)
}

/// The `[lo, hi]` numeric range a query's filters impose on one column of
/// a slot (either side open). Drives horizontal partition pruning; shared
/// between [`SlotProfile::build`] and the cost matrix's split candidates
/// so both compute identical surviving fractions.
pub fn column_range_restriction(
    query: &Query,
    slot: u16,
    column: u16,
) -> (Option<f64>, Option<f64>) {
    let (mut lo, mut hi) = (None, None);
    for f in query.filters_on(slot) {
        if f.col.column != column {
            continue;
        }
        match &f.op {
            PredOp::Cmp(op, v) => {
                if let Some(x) = v.numeric_image() {
                    use pgdesign_query::ast::CmpOp::*;
                    match op {
                        Eq => {
                            lo = Some(x);
                            hi = Some(x);
                        }
                        Lt | Le => hi = Some(hi.map_or(x, |h: f64| h.min(x))),
                        Gt | Ge => lo = Some(lo.map_or(x, |l: f64| l.max(x))),
                        Ne => {}
                    }
                }
            }
            PredOp::Between(a, b) => {
                if let (Some(a), Some(b)) = (a.numeric_image(), b.numeric_image()) {
                    lo = Some(lo.map_or(a, |l: f64| l.max(a)));
                    hi = Some(hi.map_or(b, |h: f64| h.min(b)));
                }
            }
            _ => {}
        }
    }
    (lo, hi)
}

/// The heap storage a slot's row fetches must touch under a design:
/// summed pages of the vertical fragments holding the needed columns (the
/// whole table when unpartitioned) and how many fragments get stitched
/// per row. The one partition-dependent input of every access-path cost
/// formula — computing it from precomputed per-fragment page counts is
/// what lets the INUM cost matrix re-cost a slot under hypothetical
/// partitionings without touching the design at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchTarget {
    /// Total heap pages of the fetch target (≥ 1).
    pub pages: f64,
    /// Vertical fragments stitched per fetched row (1 = no stitching).
    pub fragments: usize,
}

/// Fetch target for `needed` columns of a slot under the context's design:
/// the whole table, or the needed vertical fragments (plus their 8-byte
/// row-id overhead).
pub fn fetch_target(ctx: &AccessContext<'_>, slot: u16, needed: &[u16]) -> FetchTarget {
    let table = ctx.query.table_of(slot);
    let tdef = ctx.catalog.schema.table(table);
    let rows = ctx.catalog.row_count(table);
    match ctx.design.vertical(table) {
        Some(vp) => {
            let frags = vp.fragments_for(needed);
            let pages: u64 = frags
                .iter()
                .map(|&f| {
                    let w = tdef.byte_width_of(&vp.groups[f]) + 8;
                    sizing::heap_pages(rows, w)
                })
                .sum();
            FetchTarget {
                pages: pages.max(1) as f64,
                fragments: frags.len().max(1),
            }
        }
        None => FetchTarget {
            pages: sizing::heap_pages(rows, tdef.row_byte_width()) as f64,
            fragments: 1,
        },
    }
}

/// Cost of the sequential (or stitched-fragment) scan of a slot against an
/// explicit fetch target and horizontal-pruning fraction — the
/// target-parameterized form [`seq_scan_path`] and the cost matrix share.
pub fn seq_scan_cost(
    p: &CostParams,
    base_rows: f64,
    n_filters: usize,
    target: FetchTarget,
    h_frac: f64,
) -> f64 {
    let scanned_rows = base_rows * h_frac;
    let io = target.pages * h_frac * p.seq_page_cost;
    let mut cpu = scanned_rows * (p.cpu_tuple_cost + n_filters as f64 * p.cpu_operator_cost);
    if target.fragments > 1 {
        // Row-id stitch between fragments.
        cpu += scanned_rows * (target.fragments as f64 - 1.0) * p.cpu_operator_cost;
    }
    io + cpu
}

/// The sequential (or fragment) scan path.
pub fn seq_scan_path(ctx: &AccessContext<'_>, prof: &SlotProfile) -> PlanExpr {
    let target = fetch_target(ctx, prof.slot, &prof.needed_cols);
    let cost = seq_scan_cost(
        ctx.params,
        prof.base_rows,
        prof.n_filters,
        target,
        prof.h_frac,
    );
    let node = if target.fragments > 1 {
        PlanNode::FragmentScan {
            slot: prof.slot,
            fragments: target.fragments,
            filters: prof.n_filters,
        }
    } else {
        PlanNode::SeqScan {
            slot: prof.slot,
            filters: prof.n_filters,
        }
    };
    PlanExpr {
        node,
        cost,
        rows: prof.rows_out,
        order: vec![],
        width: prof.out_width,
    }
}

/// Partition-independent skeleton of one index-based access path (plain,
/// index-only, or bitmap). Everything that does not depend on the design's
/// partitionings is folded into `pre`/`post`; [`IndexPathProfile::cost`]
/// reproduces the full path formula — in the same floating-point order —
/// for any [`FetchTarget`], so the cost matrix can re-cost candidate
/// indexes under hypothetical partitionings without re-enumeration. All
/// fields are public so the durable-snapshot codec in `pgdesign-inum` can
/// declare the profile's layout like any other record.
#[derive(Debug, Clone)]
pub struct IndexPathProfile {
    /// Bitmap index + heap scan (vs plain/index-only B-tree scan).
    pub bitmap: bool,
    /// Matched key-prefix columns.
    pub matched: usize,
    /// Covering (index-only) scan.
    pub index_only: bool,
    /// Parameterized inner side of a nested loop.
    pub parameterized: bool,
    /// Native output order delivered by the path (empty for bitmap).
    pub order: Vec<QueryColumn>,
    /// Cost added before the heap-I/O term (descent + leaf I/O + index CPU).
    pub pre: f64,
    /// Cost added after the heap-I/O term (residual filter/tuple CPU).
    pub post: f64,
    /// Rows that reach the heap (index-only discount already applied; for
    /// bitmap paths, the matched entry count).
    pub heap_rows: f64,
    /// Squared leading-column correlation (plain scans only).
    pub corr2: f64,
    /// Table row count (min-I/O clamp for correlated scans).
    pub row_count: f64,
}

impl IndexPathProfile {
    /// The path's full cost against a fetch target.
    pub fn cost(&self, p: &CostParams, target: FetchTarget) -> f64 {
        let fetched = pages_fetched(self.heap_rows * target.fragments as f64, target.pages);
        let heap_io = if self.bitmap {
            // After tid sorting fetches approach sequential as the fraction
            // of the relation touched grows (PostgreSQL's bitmap cost
            // interpolation).
            let frac = (fetched / target.pages.max(1.0)).clamp(0.0, 1.0).sqrt();
            let per_page = p.random_page_cost - (p.random_page_cost - p.seq_page_cost) * frac;
            fetched * per_page
        } else {
            let max_io = p.cached_random_page_cost(fetched, target.pages);
            let min_io = (self.heap_rows / (self.row_count / target.pages).max(1.0))
                .ceil()
                .max(if self.heap_rows > 0.0 { 1.0 } else { 0.0 })
                * p.seq_page_cost;
            self.corr2 * min_io.min(max_io) + (1.0 - self.corr2) * max_io
        };
        let cost = self.pre + heap_io + self.post;
        debug_assert!(
            cost.is_finite(),
            "access-path cost accumulation went non-finite (pre={}, heap_io={heap_io}, post={})",
            self.pre,
            self.post
        );
        cost
    }
}

/// Profile an index scan (plain or index-only) with `matched` prefix
/// columns.
fn index_scan_profile(
    ctx: &AccessContext<'_>,
    prof: &SlotProfile,
    index: &Index,
    matched: usize,
    prefix_sel: f64,
    parameterized: bool,
) -> IndexPathProfile {
    let p = ctx.params;
    let table = ctx.query.table_of(prof.slot);
    let tstats = ctx.catalog.table_stats(table);
    let key_width = index.key_width(&ctx.catalog.schema);
    let leaf_pages = sizing::btree_leaf_pages(tstats.row_count, key_width) as f64;
    let height = index.height(&ctx.catalog.schema, tstats) as f64;

    let entries = (prof.base_rows * prefix_sel).max(1.0);
    let descent = height * p.random_page_cost * 0.25 + 50.0 * p.cpu_operator_cost;
    let leaf_io = (prefix_sel * leaf_pages).ceil() * p.seq_page_cost;
    let index_cpu = entries * p.cpu_index_tuple_cost;

    let covers = index.covers(&prof.needed_cols);
    let heap_fetch_rows = if covers {
        entries * p.index_only_heap_fetch_frac
    } else {
        entries
    };
    let corr = tstats
        .column(index.leading_column())
        .correlation
        .abs()
        .clamp(0.0, 1.0);

    let remaining = prof.n_filters.saturating_sub(matched);
    let filter_cpu = heap_fetch_rows.max(entries) * remaining as f64 * p.cpu_operator_cost
        + prof.rows_out * p.cpu_tuple_cost;

    IndexPathProfile {
        bitmap: false,
        matched,
        index_only: covers,
        parameterized,
        order: index
            .columns
            .iter()
            .map(|&c| QueryColumn::new(prof.slot, c))
            .collect(),
        pre: descent + leaf_io + index_cpu,
        post: filter_cpu,
        heap_rows: heap_fetch_rows,
        corr2: corr * corr,
        row_count: tstats.row_count as f64,
    }
}

/// Profile a bitmap index + heap scan with `matched` prefix columns.
fn bitmap_profile(
    ctx: &AccessContext<'_>,
    prof: &SlotProfile,
    index: &Index,
    matched: usize,
    prefix_sel: f64,
) -> IndexPathProfile {
    let p = ctx.params;
    let table = ctx.query.table_of(prof.slot);
    let tstats = ctx.catalog.table_stats(table);
    let key_width = index.key_width(&ctx.catalog.schema);
    let leaf_pages = sizing::btree_leaf_pages(tstats.row_count, key_width) as f64;
    let height = index.height(&ctx.catalog.schema, tstats) as f64;

    let entries = (prof.base_rows * prefix_sel).max(1.0);
    // Bitmap construction has fixed startup overhead on top of the descent
    // (PostgreSQL charges it via startup cost; we fold it into total).
    let descent = height * p.random_page_cost * 0.25 + 150.0 * p.cpu_operator_cost;
    let leaf_io = (prefix_sel * leaf_pages).ceil() * p.seq_page_cost;
    let index_cpu = entries * (p.cpu_index_tuple_cost + p.cpu_operator_cost); // + tid sort

    let remaining = prof.n_filters.saturating_sub(matched);
    let cpu = entries * (p.cpu_tuple_cost + remaining as f64 * p.cpu_operator_cost);

    IndexPathProfile {
        bitmap: true,
        matched,
        index_only: false,
        parameterized: false,
        order: vec![],
        pre: descent + leaf_io + index_cpu,
        post: cpu,
        heap_rows: entries,
        corr2: 0.0,
        row_count: tstats.row_count as f64,
    }
}

/// Path profiles contributed by a single index on a slot — the
/// target-independent half of [`index_access_paths`], usable against any
/// [`FetchTarget`].
pub fn index_path_profiles(
    ctx: &AccessContext<'_>,
    prof: &SlotProfile,
    index: &Index,
    parameterized: bool,
) -> Vec<IndexPathProfile> {
    let mut out = Vec::new();
    let (matched, prefix_sel) = prof.match_index(index);
    if matched > 0 {
        out.push(index_scan_profile(
            ctx,
            prof,
            index,
            matched,
            prefix_sel,
            parameterized,
        ));
        if !parameterized {
            out.push(bitmap_profile(ctx, prof, index, matched, prefix_sel));
        }
    } else if index.covers(&prof.needed_cols) || order_relevant(ctx, prof.slot, index) {
        // Full index scan: no predicate match, but covering or
        // order-providing.
        out.push(index_scan_profile(ctx, prof, index, 0, 1.0, parameterized));
    }
    out
}

/// True when the index's leading column is "interesting" to the query
/// beyond predicate matching: it participates in joins, grouping or
/// ordering, so an unmatched full index scan may still pay for itself.
fn order_relevant(ctx: &AccessContext<'_>, slot: u16, index: &Index) -> bool {
    let lead = index.leading_column();
    let q = ctx.query;
    q.joins_on(slot).any(|j| j.column_on(slot) == Some(lead))
        || q.group_by
            .iter()
            .any(|g| g.slot == slot && g.column == lead)
        || q.order_by
            .iter()
            .any(|o| o.col.slot == slot && o.col.column == lead)
}

/// Access paths contributed by a single (possibly hypothetical) index on a
/// slot. Each index's paths depend only on the slot profile and the
/// design's partitionings — never on the *other* indexes present — which
/// is what lets the INUM cost matrix precompute per-candidate access costs
/// once and reuse them for every configuration containing the candidate.
pub fn index_access_paths(
    ctx: &AccessContext<'_>,
    prof: &SlotProfile,
    index: &Index,
    parameterized: bool,
) -> Vec<PlanExpr> {
    let target = fetch_target(ctx, prof.slot, &prof.needed_cols);
    index_path_profiles(ctx, prof, index, parameterized)
        .into_iter()
        .map(|pp| {
            let cost = pp.cost(ctx.params, target);
            let node = if pp.bitmap {
                PlanNode::BitmapHeapScan {
                    slot: prof.slot,
                    index: index.clone(),
                    matched_cols: pp.matched,
                }
            } else {
                PlanNode::IndexScan {
                    slot: prof.slot,
                    index: index.clone(),
                    matched_cols: pp.matched,
                    index_only: pp.index_only,
                    parameterized: pp.parameterized,
                }
            };
            PlanExpr {
                node,
                cost,
                rows: prof.rows_out,
                order: pp.order,
                width: prof.out_width,
            }
        })
        .collect()
}

/// Enumerate all candidate access paths for a slot (pruned to the useful
/// ones). With `param_eq_cols` non-empty the paths are parameterized inner
/// sides for a nested-loop join.
pub fn access_paths(ctx: &AccessContext<'_>, slot: u16, param_eq_cols: &[u16]) -> Vec<PlanExpr> {
    let prof = SlotProfile::build(ctx, slot, param_eq_cols);
    let parameterized = !param_eq_cols.is_empty();
    let mut out = vec![seq_scan_path(ctx, &prof)];
    let table = ctx.query.table_of(slot);
    for index in ctx.design.indexes_on(table) {
        out.extend(index_access_paths(ctx, &prof, index, parameterized));
    }
    out
}

/// The cheapest access path delivering `required_order` (adding an explicit
/// sort when no path delivers it natively).
pub fn best_access(
    ctx: &AccessContext<'_>,
    slot: u16,
    required_order: Option<&[QueryColumn]>,
    param_eq_cols: &[u16],
) -> PlanExpr {
    let prof = SlotProfile::build(ctx, slot, param_eq_cols);
    let paths = access_paths(ctx, slot, param_eq_cols);
    let mut best: Option<PlanExpr> = None;
    for path in paths {
        let candidate = match required_order {
            Some(req) if !order_satisfies(&path.order, req, &prof.eq_bound) => {
                let cost = path.cost + ctx.params.sort_cost(path.rows, path.width);
                PlanExpr {
                    cost,
                    rows: path.rows,
                    width: path.width,
                    order: req.to_vec(),
                    node: PlanNode::Sort {
                        input: Arc::new(path),
                        keys: req.to_vec(),
                    },
                }
            }
            _ => path,
        };
        if best.as_ref().is_none_or(|b| candidate.cost < b.cost) {
            best = Some(candidate);
        }
    }
    best.expect("seq scan always exists")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::design::{HorizontalPartitioning, VerticalPartitioning};
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_catalog::schema::TableId;
    use pgdesign_query::parse_query;

    fn ctx<'a>(
        catalog: &'a Catalog,
        design: &'a PhysicalDesign,
        params: &'a CostParams,
        query: &'a Query,
    ) -> AccessContext<'a> {
        AccessContext {
            catalog,
            design,
            params,
            query,
        }
    }

    fn photoobj(c: &Catalog) -> TableId {
        c.schema.table_by_name("photoobj").unwrap().id
    }

    #[test]
    fn matching_index_beats_seq_scan_for_selective_predicate() {
        let c = sdss_catalog(0.05);
        let q = parse_query(&c.schema, "SELECT ra FROM photoobj WHERE objid = 42").unwrap();
        let p = CostParams::default();
        let empty = PhysicalDesign::empty();
        let a = ctx(&c, &empty, &p, &q);
        let seq = best_access(&a, 0, None, &[]);
        let with_idx = PhysicalDesign::with_indexes([Index::new(photoobj(&c), vec![0])]);
        let a2 = ctx(&c, &with_idx, &p, &q);
        let idx = best_access(&a2, 0, None, &[]);
        assert!(
            idx.cost < seq.cost / 100.0,
            "point lookup should be ≫ cheaper: {} vs {}",
            idx.cost,
            seq.cost
        );
        assert!(matches!(
            idx.node,
            PlanNode::IndexScan { .. } | PlanNode::BitmapHeapScan { .. }
        ));
    }

    #[test]
    fn unselective_predicate_keeps_seq_scan() {
        let c = sdss_catalog(0.05);
        let q = parse_query(&c.schema, "SELECT ra FROM photoobj WHERE ra > 1.0").unwrap();
        let p = CostParams::default();
        let with_idx = PhysicalDesign::with_indexes([Index::new(photoobj(&c), vec![1])]);
        let a = ctx(&c, &with_idx, &p, &q);
        let best = best_access(&a, 0, None, &[]);
        assert!(
            matches!(best.node, PlanNode::SeqScan { .. }),
            "ra > 1 selects ~everything; got {:?}",
            best.node
        );
    }

    #[test]
    fn covering_index_enables_index_only_scan() {
        let c = sdss_catalog(0.05);
        let q = parse_query(
            &c.schema,
            "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 100 AND 101",
        )
        .unwrap();
        let p = CostParams::default();
        let covering = PhysicalDesign::with_indexes([Index::new(photoobj(&c), vec![1, 2])]);
        let noncovering = PhysicalDesign::with_indexes([Index::new(photoobj(&c), vec![1, 4])]);
        let a_cov = ctx(&c, &covering, &p, &q);
        let a_non = ctx(&c, &noncovering, &p, &q);
        let cov = best_access(&a_cov, 0, None, &[]);
        let non = best_access(&a_non, 0, None, &[]);
        assert!(
            cov.cost < non.cost,
            "covering should win: {} vs {}",
            cov.cost,
            non.cost
        );
        assert!(cov.indexes_used().iter().any(|i| i.columns == vec![1, 2]));
    }

    #[test]
    fn multicolumn_prefix_matching() {
        let c = sdss_catalog(0.05);
        let q = parse_query(
            &c.schema,
            "SELECT objid FROM photoobj WHERE type = 3 AND r < 18",
        )
        .unwrap();
        let p = CostParams::default();
        let d = PhysicalDesign::with_indexes([Index::new(photoobj(&c), vec![3, 6])]);
        let a = ctx(&c, &d, &p, &q);
        let prof = SlotProfile::build(&a, 0, &[]);
        let (matched, sel) = prof.match_index(&d.indexes()[0]);
        assert_eq!(matched, 2, "eq on type anchors range on r");
        assert!(sel < 0.5);
        // Swapped order: range col first closes the prefix at 1.
        let idx_swapped = Index::new(photoobj(&c), vec![6, 3]);
        let (m2, _) = prof.match_index(&idx_swapped);
        assert_eq!(m2, 1);
    }

    #[test]
    fn required_order_uses_index_or_sort() {
        let c = sdss_catalog(0.05);
        let q = parse_query(
            &c.schema,
            "SELECT objid, r FROM photoobj WHERE r < 13 ORDER BY r",
        )
        .unwrap();
        let p = CostParams::default();
        // Covering (r, objid) index: the ordered index-only scan beats
        // bitmap + sort. A non-covering index on r alone loses to the
        // bitmap plan at this selectivity (random heap fetches dominate),
        // exactly as in PostgreSQL.
        let d = PhysicalDesign::with_indexes([Index::new(photoobj(&c), vec![6, 0])]);
        let a = ctx(&c, &d, &p, &q);
        let req = vec![QueryColumn::new(0, 6)];
        let with_idx = best_access(&a, 0, Some(&req), &[]);
        // Index leading on r delivers the order without a Sort node.
        assert!(
            !matches!(with_idx.node, PlanNode::Sort { .. }),
            "index should provide order: {:?}",
            with_idx.node
        );
        let empty = PhysicalDesign::empty();
        let a2 = ctx(&c, &empty, &p, &q);
        let without = best_access(&a2, 0, Some(&req), &[]);
        assert!(matches!(without.node, PlanNode::Sort { .. }));
    }

    #[test]
    fn parameterized_probe_is_cheap() {
        let c = sdss_catalog(0.05);
        let q = parse_query(
            &c.schema,
            "SELECT p.ra FROM photoobj p, specobj s WHERE p.objid = s.bestobjid",
        )
        .unwrap();
        let p = CostParams::default();
        let d = PhysicalDesign::with_indexes([Index::new(photoobj(&c), vec![0])]);
        let a = ctx(&c, &d, &p, &q);
        let probe = best_access(&a, 0, None, &[0]);
        let full = best_access(&a, 0, None, &[]);
        assert!(
            probe.cost < full.cost / 100.0,
            "param probe {} vs full scan {}",
            probe.cost,
            full.cost
        );
        assert!(probe.rows < 5.0, "one key matches ~1 row: {}", probe.rows);
    }

    #[test]
    fn vertical_partitioning_shrinks_narrow_scans() {
        let c = sdss_catalog(0.05);
        let q = parse_query(&c.schema, "SELECT ra, dec FROM photoobj WHERE ra < 10").unwrap();
        let p = CostParams::default();
        let t = photoobj(&c);
        let empty = PhysicalDesign::empty();
        let a_full = ctx(&c, &empty, &p, &q);
        let full = seq_scan_path(&a_full, &SlotProfile::build(&a_full, 0, &[]));
        // Partition: (objid, ra, dec) | rest.
        let mut d = PhysicalDesign::empty();
        d.set_vertical(VerticalPartitioning::new(
            t,
            vec![vec![0, 1, 2], (3..16).collect()],
        ));
        let a_part = ctx(&c, &d, &p, &q);
        let part = seq_scan_path(&a_part, &SlotProfile::build(&a_part, 0, &[]));
        assert!(
            part.cost < full.cost * 0.8,
            "narrow fragment should be cheaper: {} vs {}",
            part.cost,
            full.cost
        );
        assert!(matches!(part.node, PlanNode::SeqScan { .. }));
    }

    #[test]
    fn fragment_stitch_costs_extra() {
        let c = sdss_catalog(0.05);
        // Query needs columns from two fragments.
        let q = parse_query(&c.schema, "SELECT ra, u FROM photoobj WHERE ra < 10").unwrap();
        let p = CostParams::default();
        let t = photoobj(&c);
        let mut d = PhysicalDesign::empty();
        d.set_vertical(VerticalPartitioning::new(
            t,
            vec![vec![0, 1, 2], (3..16).collect()],
        ));
        let a = ctx(&c, &d, &p, &q);
        let path = seq_scan_path(&a, &SlotProfile::build(&a, 0, &[]));
        assert!(matches!(
            path.node,
            PlanNode::FragmentScan { fragments: 2, .. }
        ));
    }

    #[test]
    fn horizontal_pruning_cuts_seq_scan_cost() {
        let c = sdss_catalog(0.05);
        let q = parse_query(
            &c.schema,
            "SELECT objid FROM photoobj WHERE ra BETWEEN 10 AND 20",
        )
        .unwrap();
        let p = CostParams::default();
        let t = photoobj(&c);
        let empty = PhysicalDesign::empty();
        let a1 = ctx(&c, &empty, &p, &q);
        let unpruned = seq_scan_path(&a1, &SlotProfile::build(&a1, 0, &[]));
        let mut d = PhysicalDesign::empty();
        d.set_horizontal(HorizontalPartitioning::new(
            t,
            1,
            (1..36).map(|i| i as f64 * 10.0).collect(),
        ));
        let a2 = ctx(&c, &d, &p, &q);
        let pruned = seq_scan_path(&a2, &SlotProfile::build(&a2, 0, &[]));
        assert!(
            pruned.cost < unpruned.cost / 10.0,
            "36 partitions, 2 survive: {} vs {}",
            pruned.cost,
            unpruned.cost
        );
    }

    #[test]
    fn pages_fetched_limits() {
        assert_eq!(pages_fetched(0.0, 100.0), 0.0);
        // Few rows on many pages ≈ one page per row.
        let few = pages_fetched(10.0, 1e6);
        assert!((few - 10.0).abs() < 0.1);
        // Many rows on few pages ≈ all pages.
        let many = pages_fetched(1e7, 100.0);
        assert!((many - 100.0).abs() < 1e-6);
    }

    #[test]
    fn select_star_needs_all_columns() {
        let c = sdss_catalog(0.05);
        let q = parse_query(&c.schema, "SELECT * FROM photoobj WHERE objid = 1").unwrap();
        let p = CostParams::default();
        let empty = PhysicalDesign::empty();
        let a = ctx(&c, &empty, &p, &q);
        let prof = SlotProfile::build(&a, 0, &[]);
        assert_eq!(prof.needed_cols.len(), 16);
    }
}
