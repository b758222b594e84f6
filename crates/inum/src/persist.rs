//! Durable codec for the cost matrix: snapshot payloads and edit records.
//!
//! This module turns a published [`MatrixSnapshot`] into the record
//! payloads of a `.pgds` snapshot file and a [`MatrixEdit`] journal into
//! `.pgdl` log records — and back. The storage framing (magic headers,
//! format version, per-record CRC, atomic rename, fsync discipline) lives
//! in `pgdesign-durability`; this module owns only the *meaning* of the
//! bytes. The vendored `serde` is a no-op shim, so everything here is an
//! explicit little-endian layout via `ByteWriter`/`ByteReader`.
//!
//! Layout invariants the decoder enforces rather than trusts:
//!
//! - every active query slot's stored cell key must equal the recomputed
//!   FNV-1a [`crate::key::query_cell_key`] of its query — cells are keyed
//!   by that public key, and a mismatch means the payload is not the
//!   matrix it claims to be;
//! - redundant state (`id_by_index`, `frags_by_table`, fragment column
//!   masks) is rebuilt from first principles on decode, never stored;
//! - a per-table statistics fingerprint of the catalog is stored in the
//!   header; on restore, tables whose fingerprint changed have their
//!   skeleton cache entries invalidated ([`Inum::invalidate_table`]) and
//!   only *their* queries' cells recomputed — staleness degrades the warm
//!   start, it never rejects the whole file and never serves a cost
//!   computed from outdated statistics.

// Decode/replay paths run on untrusted bytes; panicking escape hatches
// are compile errors in this module (tests are exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use super::*;
use crate::MatrixSnapshot;
use pgdesign_catalog::types::Value;
use pgdesign_catalog::{Catalog, ColumnStats};
use pgdesign_durability::{ByteReader, ByteWriter, CodecError};
use pgdesign_query::ast::{
    Aggregate, CmpOp, FilterPredicate, JoinPredicate, OrderItem, PredOp, QueryTable,
};

/// One recorded mutation of a [`CostMatrix`] — the unit of the durable
/// edit log. Each variant stores exactly the public-API *inputs* of the
/// mutation; replaying a journal in order against an identical starting
/// state is deterministic (dedupe maps, LIFO free-list recycling and
/// parallel cell computation included), so no outputs are logged.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixEdit {
    /// [`CostMatrix::add_candidates`] (and `add_candidate`).
    AddCandidates(Vec<Index>),
    /// [`CostMatrix::remove_candidate`] of a live id.
    RemoveCandidate(usize),
    /// [`CostMatrix::add_queries`] (and `add_query`).
    AddQueries(Vec<(Query, f64)>),
    /// [`CostMatrix::retire_query`] of an active id.
    RetireQuery(usize),
    /// [`CostMatrix::set_query_weight`].
    SetQueryWeight(usize, f64),
    /// [`CostMatrix::register_fragment`].
    RegisterFragment(TableId, Vec<u16>),
    /// [`CostMatrix::register_split`].
    RegisterSplit(HorizontalPartitioning),
    /// [`CostMatrix::publish`] — the epoch boundary marker.
    Publish,
}

/// Why a payload could not be decoded. Both variants are graceful-fallback
/// signals (cold build), never panics.
#[derive(Debug)]
pub enum PersistError {
    /// Structural failure: the bytes ran out or stopped making sense.
    Codec(CodecError),
    /// Semantic failure: well-formed bytes describing an impossible or
    /// inconsistent matrix (bad tag, key mismatch, out-of-range table).
    Invalid(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Codec(e) => write!(f, "{e}"),
            PersistError::Invalid(what) => write!(f, "invalid snapshot payload: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        PersistError::Codec(e)
    }
}

fn invalid(what: &'static str) -> PersistError {
    PersistError::Invalid(what)
}

// ---------------------------------------------------------------------------
// Catalog statistics fingerprints
// ---------------------------------------------------------------------------

struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn fingerprint_column(h: &mut Fnv64, c: &ColumnStats) {
    h.f64(c.ndv);
    h.f64(c.null_frac);
    h.f64(c.min);
    h.f64(c.max);
    match &c.histogram {
        None => h.u64(0),
        Some(hist) => {
            h.u64(1 + hist.bounds().len() as u64);
            for &b in hist.bounds() {
                h.f64(b);
            }
        }
    }
    h.u64(c.mcv.len() as u64);
    for &(v, f) in &c.mcv {
        h.f64(v);
        h.f64(f);
    }
    h.f64(c.avg_width);
    h.f64(c.correlation);
}

/// FNV-1a fingerprint of each table's statistics (row count plus every
/// column's full statistics), indexed by `TableId.0`. This is the
/// statistics-generation stamp stored in the snapshot header: a changed
/// fingerprint on restore marks that table's cells stale.
pub fn catalog_fingerprints(catalog: &Catalog) -> Vec<u64> {
    catalog
        .stats
        .iter()
        .map(|ts| {
            let mut h = Fnv64::new();
            h.u64(ts.row_count);
            h.u64(ts.columns.len() as u64);
            for c in &ts.columns {
                fingerprint_column(&mut h, c);
            }
            h.0
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Query AST codec
// ---------------------------------------------------------------------------

fn put_query_column(w: &mut ByteWriter, qc: &QueryColumn) {
    w.put_u16(qc.slot);
    w.put_u16(qc.column);
}

fn get_query_column(r: &mut ByteReader<'_>) -> Result<QueryColumn, PersistError> {
    Ok(QueryColumn::new(r.get_u16()?, r.get_u16()?))
}

fn put_value(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Null => w.put_u8(0),
        Value::Int(i) => {
            w.put_u8(1);
            w.put_i64(*i);
        }
        Value::Float(f) => {
            w.put_u8(2);
            w.put_f64(*f);
        }
        Value::Str(s) => {
            w.put_u8(3);
            w.put_str(s);
        }
        Value::Bool(b) => {
            w.put_u8(4);
            w.put_bool(*b);
        }
    }
}

fn get_value(r: &mut ByteReader<'_>) -> Result<Value, PersistError> {
    Ok(match r.get_u8()? {
        0 => Value::Null,
        1 => Value::Int(r.get_i64()?),
        2 => Value::Float(r.get_f64()?),
        3 => Value::Str(r.get_str()?),
        4 => Value::Bool(r.get_bool()?),
        _ => return Err(invalid("value tag")),
    })
}

fn put_pred_op(w: &mut ByteWriter, op: &PredOp) {
    match op {
        PredOp::Cmp(cmp, v) => {
            w.put_u8(0);
            w.put_u8(match cmp {
                CmpOp::Eq => 0,
                CmpOp::Lt => 1,
                CmpOp::Le => 2,
                CmpOp::Gt => 3,
                CmpOp::Ge => 4,
                CmpOp::Ne => 5,
            });
            put_value(w, v);
        }
        PredOp::Between(lo, hi) => {
            w.put_u8(1);
            put_value(w, lo);
            put_value(w, hi);
        }
        PredOp::InList(vs) => {
            w.put_u8(2);
            w.put_len(vs.len());
            for v in vs {
                put_value(w, v);
            }
        }
        PredOp::IsNull => w.put_u8(3),
        PredOp::IsNotNull => w.put_u8(4),
    }
}

fn get_pred_op(r: &mut ByteReader<'_>) -> Result<PredOp, PersistError> {
    Ok(match r.get_u8()? {
        0 => {
            let cmp = match r.get_u8()? {
                0 => CmpOp::Eq,
                1 => CmpOp::Lt,
                2 => CmpOp::Le,
                3 => CmpOp::Gt,
                4 => CmpOp::Ge,
                5 => CmpOp::Ne,
                _ => return Err(invalid("cmp tag")),
            };
            PredOp::Cmp(cmp, get_value(r)?)
        }
        1 => PredOp::Between(get_value(r)?, get_value(r)?),
        2 => {
            let n = r.get_len()?;
            let mut vs = Vec::with_capacity(n);
            for _ in 0..n {
                vs.push(get_value(r)?);
            }
            PredOp::InList(vs)
        }
        3 => PredOp::IsNull,
        4 => PredOp::IsNotNull,
        _ => return Err(invalid("predicate tag")),
    })
}

fn put_query(w: &mut ByteWriter, q: &Query) {
    w.put_len(q.tables.len());
    for t in &q.tables {
        w.put_u32(t.table.0);
        match &t.alias {
            None => w.put_u8(0),
            Some(a) => {
                w.put_u8(1);
                w.put_str(a);
            }
        }
    }
    w.put_len(q.projection.len());
    for qc in &q.projection {
        put_query_column(w, qc);
    }
    w.put_len(q.aggregates.len());
    for a in &q.aggregates {
        match a {
            Aggregate::CountStar => w.put_u8(0),
            Aggregate::Count(qc) => {
                w.put_u8(1);
                put_query_column(w, qc);
            }
            Aggregate::Sum(qc) => {
                w.put_u8(2);
                put_query_column(w, qc);
            }
            Aggregate::Avg(qc) => {
                w.put_u8(3);
                put_query_column(w, qc);
            }
            Aggregate::Min(qc) => {
                w.put_u8(4);
                put_query_column(w, qc);
            }
            Aggregate::Max(qc) => {
                w.put_u8(5);
                put_query_column(w, qc);
            }
        }
    }
    w.put_bool(q.select_star);
    w.put_len(q.filters.len());
    for f in &q.filters {
        put_query_column(w, &f.col);
        put_pred_op(w, &f.op);
    }
    w.put_len(q.joins.len());
    for j in &q.joins {
        put_query_column(w, &j.left);
        put_query_column(w, &j.right);
    }
    w.put_len(q.group_by.len());
    for qc in &q.group_by {
        put_query_column(w, qc);
    }
    w.put_len(q.order_by.len());
    for o in &q.order_by {
        put_query_column(w, &o.col);
        w.put_bool(o.desc);
    }
    match q.limit {
        None => w.put_u8(0),
        Some(n) => {
            w.put_u8(1);
            w.put_u64(n);
        }
    }
}

fn get_query(r: &mut ByteReader<'_>) -> Result<Query, PersistError> {
    let mut q = Query::default();
    for _ in 0..r.get_len()? {
        let table = TableId(r.get_u32()?);
        let alias = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_str()?),
            _ => return Err(invalid("alias tag")),
        };
        q.tables.push(QueryTable { table, alias });
    }
    for _ in 0..r.get_len()? {
        q.projection.push(get_query_column(r)?);
    }
    for _ in 0..r.get_len()? {
        q.aggregates.push(match r.get_u8()? {
            0 => Aggregate::CountStar,
            1 => Aggregate::Count(get_query_column(r)?),
            2 => Aggregate::Sum(get_query_column(r)?),
            3 => Aggregate::Avg(get_query_column(r)?),
            4 => Aggregate::Min(get_query_column(r)?),
            5 => Aggregate::Max(get_query_column(r)?),
            _ => return Err(invalid("aggregate tag")),
        });
    }
    q.select_star = r.get_bool()?;
    for _ in 0..r.get_len()? {
        let col = get_query_column(r)?;
        let op = get_pred_op(r)?;
        q.filters.push(FilterPredicate { col, op });
    }
    for _ in 0..r.get_len()? {
        let left = get_query_column(r)?;
        let right = get_query_column(r)?;
        q.joins.push(JoinPredicate { left, right });
    }
    for _ in 0..r.get_len()? {
        q.group_by.push(get_query_column(r)?);
    }
    for _ in 0..r.get_len()? {
        let col = get_query_column(r)?;
        let desc = r.get_bool()?;
        q.order_by.push(OrderItem { col, desc });
    }
    q.limit = match r.get_u8()? {
        0 => None,
        1 => Some(r.get_u64()?),
        _ => return Err(invalid("limit tag")),
    };
    Ok(q)
}

// ---------------------------------------------------------------------------
// Cell payload codec
// ---------------------------------------------------------------------------

fn put_index(w: &mut ByteWriter, idx: &Index) {
    w.put_u32(idx.table.0);
    w.put_len(idx.columns.len());
    for &c in &idx.columns {
        w.put_u16(c);
    }
    w.put_bool(idx.unique);
}

fn get_index(r: &mut ByteReader<'_>) -> Result<Index, PersistError> {
    let table = TableId(r.get_u32()?);
    let n = r.get_len()?;
    let mut columns = Vec::with_capacity(n);
    for _ in 0..n {
        columns.push(r.get_u16()?);
    }
    let unique = r.get_bool()?;
    Ok(Index {
        table,
        columns,
        unique,
    })
}

fn put_params(w: &mut ByteWriter, p: &CostParams) {
    w.put_f64(p.seq_page_cost);
    w.put_f64(p.random_page_cost);
    w.put_f64(p.cpu_tuple_cost);
    w.put_f64(p.cpu_index_tuple_cost);
    w.put_f64(p.cpu_operator_cost);
    w.put_u64(p.effective_cache_pages);
    w.put_u64(p.work_mem_bytes);
    w.put_f64(p.index_only_heap_fetch_frac);
}

fn get_params(r: &mut ByteReader<'_>) -> Result<CostParams, PersistError> {
    Ok(CostParams {
        seq_page_cost: r.get_f64()?,
        random_page_cost: r.get_f64()?,
        cpu_tuple_cost: r.get_f64()?,
        cpu_index_tuple_cost: r.get_f64()?,
        cpu_operator_cost: r.get_f64()?,
        effective_cache_pages: r.get_u64()?,
        work_mem_bytes: r.get_u64()?,
        index_only_heap_fetch_frac: r.get_f64()?,
    })
}

fn put_cand_costs(w: &mut ByteWriter, cc: &CandCosts) {
    w.put_u64(cc.id as u64);
    w.put_f64(cc.unordered);
    w.put_len(cc.ordered.len());
    for &c in &cc.ordered {
        w.put_f64(c);
    }
    w.put_len(cc.paths.len());
    for p in &cc.paths {
        let prof = &p.profile;
        w.put_bool(prof.bitmap);
        w.put_u64(prof.matched as u64);
        w.put_bool(prof.index_only);
        w.put_bool(prof.parameterized);
        w.put_len(prof.order.len());
        for qc in &prof.order {
            put_query_column(w, qc);
        }
        let (pre, post, heap_rows, corr2, row_count) = prof.persist_parts();
        w.put_f64(pre);
        w.put_f64(post);
        w.put_f64(heap_rows);
        w.put_f64(corr2);
        w.put_f64(row_count);
        w.put_u64(p.order_ok);
    }
}

fn get_cand_costs(r: &mut ByteReader<'_>) -> Result<CandCosts, PersistError> {
    let id = r.get_u64()? as usize;
    let unordered = r.get_f64()?;
    let n = r.get_len()?;
    let mut ordered = Vec::with_capacity(n);
    for _ in 0..n {
        ordered.push(r.get_f64()?);
    }
    let n = r.get_len()?;
    let mut paths = Vec::with_capacity(n);
    for _ in 0..n {
        let bitmap = r.get_bool()?;
        let matched = r.get_u64()? as usize;
        let index_only = r.get_bool()?;
        let parameterized = r.get_bool()?;
        let no = r.get_len()?;
        let mut order = Vec::with_capacity(no);
        for _ in 0..no {
            order.push(get_query_column(r)?);
        }
        let parts = (
            r.get_f64()?,
            r.get_f64()?,
            r.get_f64()?,
            r.get_f64()?,
            r.get_f64()?,
        );
        let profile = IndexPathProfile::from_persist_parts(
            bitmap,
            matched,
            index_only,
            parameterized,
            order,
            parts,
        );
        let order_ok = r.get_u64()?;
        paths.push(CandPath { profile, order_ok });
    }
    Ok(CandCosts {
        id,
        unordered,
        ordered,
        paths,
    })
}

fn put_slot_costs(w: &mut ByteWriter, s: &SlotCosts) {
    w.put_u32(s.table.0);
    w.put_u128(s.needed_mask);
    w.put_f64(s.base_rows);
    w.put_u64(s.n_filters as u64);
    w.put_f64(s.base_target.pages);
    w.put_u64(s.base_target.fragments as u64);
    w.put_f64(s.base_unordered);
    w.put_len(s.base_ordered.len());
    for &c in &s.base_ordered {
        w.put_f64(c);
    }
    w.put_len(s.slot_orders.len());
    for o in &s.slot_orders {
        w.put_len(o.len());
        for &c in o {
            w.put_u16(c);
        }
    }
    w.put_len(s.cands.len());
    for cc in &s.cands {
        put_cand_costs(w, cc);
    }
}

fn get_slot_costs(r: &mut ByteReader<'_>) -> Result<SlotCosts, PersistError> {
    let table = TableId(r.get_u32()?);
    let needed_mask = r.get_u128()?;
    let base_rows = r.get_f64()?;
    let n_filters = r.get_u64()? as usize;
    let base_target = FetchTarget {
        pages: r.get_f64()?,
        fragments: r.get_u64()? as usize,
    };
    let base_unordered = r.get_f64()?;
    let n = r.get_len()?;
    let mut base_ordered = Vec::with_capacity(n);
    for _ in 0..n {
        base_ordered.push(r.get_f64()?);
    }
    let n = r.get_len()?;
    let mut slot_orders = Vec::with_capacity(n);
    for _ in 0..n {
        let no = r.get_len()?;
        let mut o = Vec::with_capacity(no);
        for _ in 0..no {
            o.push(r.get_u16()?);
        }
        slot_orders.push(o);
    }
    let n = r.get_len()?;
    let mut cands = Vec::with_capacity(n);
    for _ in 0..n {
        cands.push(get_cand_costs(r)?);
    }
    Ok(SlotCosts {
        table,
        needed_mask,
        base_rows,
        n_filters,
        base_target,
        base_unordered,
        base_ordered,
        slot_orders,
        cands,
    })
}

fn put_query_matrix(w: &mut ByteWriter, qm: &QueryMatrix) {
    w.put_f64(qm.weight);
    w.put_u64(qm.key);
    w.put_bool(qm.active);
    w.put_len(qm.internal.len());
    for &c in &qm.internal {
        w.put_f64(c);
    }
    w.put_len(qm.reqs.len());
    for req in &qm.reqs {
        w.put_len(req.len());
        for &o in req {
            w.put_u32(o);
        }
    }
    w.put_len(qm.slots.len());
    for s in &qm.slots {
        put_slot_costs(w, s);
    }
}

fn get_query_matrix(r: &mut ByteReader<'_>) -> Result<QueryMatrix, PersistError> {
    let weight = r.get_f64()?;
    let key = r.get_u64()?;
    let active = r.get_bool()?;
    let n = r.get_len()?;
    let mut internal = Vec::with_capacity(n);
    for _ in 0..n {
        internal.push(r.get_f64()?);
    }
    let n = r.get_len()?;
    let mut reqs = Vec::with_capacity(n);
    for _ in 0..n {
        let ns = r.get_len()?;
        let mut req = Vec::with_capacity(ns);
        for _ in 0..ns {
            req.push(r.get_u32()?);
        }
        reqs.push(req);
    }
    let n = r.get_len()?;
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        slots.push(get_slot_costs(r)?);
    }
    Ok(QueryMatrix {
        weight,
        key,
        active,
        internal,
        reqs,
        slots,
    })
}

// ---------------------------------------------------------------------------
// Snapshot encode / decode
// ---------------------------------------------------------------------------

/// Encode a published snapshot as the record payloads of a `.pgds` file:
/// record 0 is the header (published generation, catalog fingerprints),
/// record 1 the candidate registry, then one record per query slot (so the
/// per-record CRC localizes damage), then fragments, then splits.
pub fn encode_snapshot(snap: &MatrixSnapshot, catalog: &Catalog) -> Vec<Vec<u8>> {
    encode_core(snap, snap.generation(), catalog)
}

/// [`encode_snapshot`] of the matrix's latest published generation.
pub fn encode_published(matrix: &CostMatrix<'_>) -> Vec<Vec<u8>> {
    let snap = matrix.slot.current();
    encode_core(&snap, snap.generation(), matrix.inum.catalog())
}

fn encode_core(core: &MatrixCore, generation: u64, catalog: &Catalog) -> Vec<Vec<u8>> {
    let fingerprints = catalog_fingerprints(catalog);
    let mut records = Vec::with_capacity(4 + core.queries.len());

    let mut header = ByteWriter::new();
    header.put_u64(generation);
    header.put_len(fingerprints.len());
    for &fp in &fingerprints {
        header.put_u64(fp);
    }
    records.push(header.into_bytes());

    let mut reg = ByteWriter::new();
    put_params(&mut reg, &core.params);
    reg.put_u64(core.generation);
    reg.put_len(core.indexes.len());
    for idx in &core.indexes {
        match idx {
            None => reg.put_u8(0),
            Some(i) => {
                reg.put_u8(1);
                put_index(&mut reg, i);
            }
        }
    }
    reg.put_len(core.free_candidates.len());
    for &id in &core.free_candidates {
        reg.put_u64(id as u64);
    }
    reg.put_len(core.free_queries.len());
    for &id in &core.free_queries {
        reg.put_u64(id as u64);
    }
    reg.put_u64(core.queries.len() as u64);
    records.push(reg.into_bytes());

    for (qm, entry) in core.queries.iter().zip(&core.workload.entries) {
        let mut w = ByteWriter::new();
        put_query(&mut w, &entry.query);
        put_query_matrix(&mut w, qm);
        records.push(w.into_bytes());
    }

    let mut frags = ByteWriter::new();
    frags.put_len(core.fragments.len());
    for f in &core.fragments {
        frags.put_u32(f.table.0);
        frags.put_len(f.columns.len());
        for &c in &f.columns {
            frags.put_u16(c);
        }
        frags.put_u64(f.pages);
    }
    records.push(frags.into_bytes());

    let mut splits = ByteWriter::new();
    splits.put_len(core.splits.len());
    for sp in &core.splits {
        splits.put_u32(sp.hp.table.0);
        splits.put_u16(sp.hp.column);
        splits.put_len(sp.hp.bounds.len());
        for &b in &sp.hp.bounds {
            splits.put_f64(b);
        }
        splits.put_len(sp.frac.len());
        for row in &sp.frac {
            splits.put_len(row.len());
            for &f in row {
                splits.put_f64(f);
            }
        }
    }
    records.push(splits.into_bytes());

    records
}

/// A decoded snapshot payload, not yet bound to an [`Inum`]. Catalog
/// staleness is resolved by [`restore_matrix`].
pub struct DecodedSnapshot {
    core: MatrixCore,
    /// Published generation recorded at write time.
    pub generation: u64,
    /// Cells carried by the payload (base + candidate cells of active
    /// queries) — the "snapshot cells loaded" recovery counter.
    pub cells: u64,
    stored_fingerprints: Vec<u64>,
}

/// Decode the record payloads of a verified `.pgds` file. The framing
/// layer has already checked every record's CRC; this validates the
/// semantic invariants (tags, cross-record counts, cell keys).
pub fn decode_snapshot(records: &[Vec<u8>]) -> Result<DecodedSnapshot, PersistError> {
    if records.len() < 4 {
        return Err(invalid("too few records"));
    }
    // Positional record access that survives a lying record count.
    let rec = |i: usize| -> Result<&[u8], PersistError> {
        records
            .get(i)
            .map(Vec::as_slice)
            .ok_or_else(|| invalid("missing record"))
    };
    let mut r = ByteReader::new(rec(0)?);
    let generation = r.get_u64()?;
    let n_tables = r.get_len()?;
    let mut stored_fingerprints = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        stored_fingerprints.push(r.get_u64()?);
    }
    r.expect_end("header record")?;

    let mut r = ByteReader::new(rec(1)?);
    let params = get_params(&mut r)?;
    let rotation_generation = r.get_u64()?;
    let n = r.get_len()?;
    let mut indexes: Vec<Option<Index>> = Vec::with_capacity(n);
    for _ in 0..n {
        indexes.push(match r.get_u8()? {
            0 => None,
            1 => Some(get_index(&mut r)?),
            _ => return Err(invalid("candidate tag")),
        });
    }
    let n_candidates = indexes.len();
    let n = r.get_len()?;
    let mut free_candidates = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.get_u64()? as usize;
        if id >= n_candidates {
            return Err(invalid("free candidate id out of range"));
        }
        free_candidates.push(id);
    }
    let n = r.get_len()?;
    let mut free_queries = Vec::with_capacity(n);
    for _ in 0..n {
        free_queries.push(r.get_u64()? as usize);
    }
    let n_queries = r.get_u64()? as usize;
    r.expect_end("registry record")?;
    if free_queries.iter().any(|&id| id >= n_queries) {
        return Err(invalid("free query id out of range"));
    }

    if records.len() != 4 + n_queries {
        return Err(invalid("record count does not match query count"));
    }

    let mut workload = Workload::new();
    let mut queries = Vec::with_capacity(n_queries);
    let mut cells = 0u64;
    let query_records = records
        .get(2..2 + n_queries)
        .ok_or_else(|| invalid("missing query records"))?;
    for payload in query_records {
        let mut r = ByteReader::new(payload);
        let query = get_query(&mut r)?;
        let qm = get_query_matrix(&mut r)?;
        r.expect_end("query record")?;
        // Slot table ids index per-table state during restore
        // (staleness masks, fragment lists); an id past the stored
        // table count is structural corruption, caught here rather
        // than as a panic later.
        if qm.slots.iter().any(|s| s.table.0 as usize >= n_tables) {
            return Err(invalid("query slot table out of range"));
        }
        if qm.active {
            // Cells are keyed by the public FNV-1a cell key: a stored key
            // that does not match its own query is not the matrix it
            // claims to be.
            if qm.key != query_key(&query) {
                return Err(invalid("cell key does not match its query"));
            }
            cells += qm
                .slots
                .iter()
                .map(|s| 1 + s.cands.len() as u64)
                .sum::<u64>();
        }
        workload.push(query, qm.weight);
        queries.push(Arc::new(qm));
    }

    let mut r = ByteReader::new(rec(2 + n_queries)?);
    let n = r.get_len()?;
    let mut fragments = Vec::with_capacity(n);
    let mut frags_by_table: Vec<Vec<usize>> = vec![Vec::new(); n_tables];
    for fid in 0..n {
        let table = TableId(r.get_u32()?);
        let nc = r.get_len()?;
        let mut columns = Vec::with_capacity(nc);
        for _ in 0..nc {
            let c = r.get_u16()?;
            if c >= 128 {
                return Err(invalid("fragment column ordinal out of range"));
            }
            columns.push(c);
        }
        let pages = r.get_u64()?;
        let mask = column_mask(&columns);
        frags_by_table
            .get_mut(table.0 as usize)
            .ok_or_else(|| invalid("fragment table out of range"))?
            .push(fid);
        fragments.push(Arc::new(Fragment {
            table,
            columns,
            mask,
            pages,
        }));
    }
    r.expect_end("fragment record")?;

    let mut r = ByteReader::new(rec(3 + n_queries)?);
    let n = r.get_len()?;
    let mut splits = Vec::with_capacity(n);
    for _ in 0..n {
        let table = TableId(r.get_u32()?);
        let column = r.get_u16()?;
        let nb = r.get_len()?;
        let mut bounds = Vec::with_capacity(nb);
        for _ in 0..nb {
            bounds.push(r.get_f64()?);
        }
        let nf = r.get_len()?;
        if nf != n_queries {
            return Err(invalid("split fraction table misaligned with queries"));
        }
        let mut frac = Vec::with_capacity(nf);
        for _ in 0..nf {
            let ns = r.get_len()?;
            let mut row = Vec::with_capacity(ns);
            for _ in 0..ns {
                row.push(r.get_f64()?);
            }
            frac.push(row);
        }
        splits.push(Arc::new(Split {
            hp: HorizontalPartitioning {
                table,
                column,
                bounds,
            },
            frac,
        }));
    }
    r.expect_end("split record")?;

    // Redundant state is rebuilt, never trusted: the live id per index is
    // the lowest live id (first registration wins, exactly as the builder
    // and `remove_candidate` maintain it).
    let mut id_by_index = HashMap::with_capacity(indexes.len());
    for (id, idx) in indexes.iter().enumerate() {
        if let Some(i) = idx {
            id_by_index.entry(i.clone()).or_insert(id);
        }
    }

    Ok(DecodedSnapshot {
        core: MatrixCore {
            params,
            workload,
            indexes,
            id_by_index,
            queries,
            free_candidates,
            free_queries,
            generation: rotation_generation,
            fragments,
            splits,
            frags_by_table,
            // Placeholder: `restore_matrix` binds the core to its INUM's
            // counter block.
            counters: Arc::default(),
        },
        generation,
        cells,
        stored_fingerprints,
    })
}

// ---------------------------------------------------------------------------
// Restore (staleness-aware)
// ---------------------------------------------------------------------------

/// What a warm restore did, for the recovery counters.
#[derive(Debug, Clone, Default)]
pub struct RestoreReport {
    /// Cells adopted from the snapshot payload.
    pub cells_loaded: u64,
    /// Cells recomputed because their table's statistics fingerprint
    /// changed since the snapshot was written.
    pub cells_invalidated: u64,
    /// The tables whose statistics changed.
    pub stale_tables: Vec<TableId>,
}

/// Bind a decoded snapshot to a live [`Inum`], reconciling catalog
/// staleness: tables whose statistics fingerprint changed have their
/// skeleton-cache entries invalidated ([`Inum::invalidate_table`]) and the
/// cells of queries touching them recomputed against current statistics.
/// Everything else is adopted as-is — no matrix build is paid
/// (`MatrixStats::builds` stays untouched; recomputed cells are counted as
/// incremental work).
pub fn restore_matrix<'a>(
    inum: &Inum<'a>,
    decoded: DecodedSnapshot,
) -> Result<(CostMatrix<'a>, RestoreReport), PersistError> {
    let t0 = Instant::now();
    let catalog = inum.catalog();
    let now = catalog_fingerprints(catalog);
    if now.len() != decoded.stored_fingerprints.len() {
        return Err(invalid("catalog table count changed"));
    }
    let stale_tables: Vec<TableId> = now
        .iter()
        .zip(&decoded.stored_fingerprints)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(t, _)| TableId(t as u32))
        .collect();

    let mut core = decoded.core;
    core.counters = inum.lookup_counters();
    let mut invalidated = 0u64;
    if !stale_tables.is_empty() {
        let stale: Vec<bool> = (0..now.len())
            .map(|t| stale_tables.contains(&TableId(t as u32)))
            .collect();
        for &t in &stale_tables {
            inum.invalidate_table(t);
        }
        // Decode has validated every slot/fragment table id against the
        // stored table count, so an out-of-range lookup here cannot
        // happen — `.get()` keeps that a local fact instead of a panic.
        let is_stale = |t: TableId| stale.get(t.0 as usize).copied().unwrap_or(false);
        let indexes = &core.indexes;
        for (slot, entry) in core.queries.iter_mut().zip(&core.workload.entries) {
            if !slot.active || !slot.slots.iter().any(|s| is_stale(s.table)) {
                continue;
            }
            let (qm, cells) = compute_query_matrix(inum, &entry.query, slot.weight, indexes);
            invalidated += cells;
            *slot = Arc::new(qm);
        }
        for frag in core.fragments.iter_mut() {
            let table = frag.table;
            if !is_stale(table) {
                continue;
            }
            let tdef = catalog.schema.table(table);
            if frag.columns.iter().any(|&c| c >= tdef.width()) {
                return Err(invalid("fragment column ordinal out of catalog range"));
            }
            // analyzer:allow(panic-freedom): frag.columns validated against
            // tdef.width() on the line above; byte_width_of cannot index
            // out of range here.
            let pages = sizing::heap_pages(
                catalog.row_count(table),
                tdef.byte_width_of(&frag.columns) + 8,
            );
            Arc::make_mut(frag).pages = pages;
        }
        // Split surviving fractions depend only on the partitioning bounds
        // and the query predicates, not on statistics — nothing to redo.
        inum.note_matrix_incremental(invalidated, 0, t0.elapsed().as_nanos() as u64);
    }

    let report = RestoreReport {
        cells_loaded: decoded.cells,
        cells_invalidated: invalidated,
        stale_tables,
    };
    Ok((
        CostMatrix::from_core(inum, core, decoded.generation),
        report,
    ))
}

// ---------------------------------------------------------------------------
// Edit codec
// ---------------------------------------------------------------------------

/// Encode one edit as a log-record payload.
pub fn encode_edit(edit: &MatrixEdit) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match edit {
        MatrixEdit::AddCandidates(indexes) => {
            w.put_u8(0);
            w.put_len(indexes.len());
            for idx in indexes {
                put_index(&mut w, idx);
            }
        }
        MatrixEdit::RemoveCandidate(id) => {
            w.put_u8(1);
            w.put_u64(*id as u64);
        }
        MatrixEdit::AddQueries(entries) => {
            w.put_u8(2);
            w.put_len(entries.len());
            for (q, weight) in entries {
                put_query(&mut w, q);
                w.put_f64(*weight);
            }
        }
        MatrixEdit::RetireQuery(id) => {
            w.put_u8(3);
            w.put_u64(*id as u64);
        }
        MatrixEdit::SetQueryWeight(id, weight) => {
            w.put_u8(4);
            w.put_u64(*id as u64);
            w.put_f64(*weight);
        }
        MatrixEdit::RegisterFragment(table, columns) => {
            w.put_u8(5);
            w.put_u32(table.0);
            w.put_len(columns.len());
            for &c in columns {
                w.put_u16(c);
            }
        }
        MatrixEdit::RegisterSplit(hp) => {
            w.put_u8(6);
            w.put_u32(hp.table.0);
            w.put_u16(hp.column);
            w.put_len(hp.bounds.len());
            for &b in &hp.bounds {
                w.put_f64(b);
            }
        }
        MatrixEdit::Publish => w.put_u8(7),
    }
    w.into_bytes()
}

/// Decode one log-record payload.
pub fn decode_edit(bytes: &[u8]) -> Result<MatrixEdit, PersistError> {
    let mut r = ByteReader::new(bytes);
    let edit = match r.get_u8()? {
        0 => {
            let n = r.get_len()?;
            let mut indexes = Vec::with_capacity(n);
            for _ in 0..n {
                indexes.push(get_index(&mut r)?);
            }
            MatrixEdit::AddCandidates(indexes)
        }
        1 => MatrixEdit::RemoveCandidate(r.get_u64()? as usize),
        2 => {
            let n = r.get_len()?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let q = get_query(&mut r)?;
                let weight = r.get_f64()?;
                entries.push((q, weight));
            }
            MatrixEdit::AddQueries(entries)
        }
        3 => MatrixEdit::RetireQuery(r.get_u64()? as usize),
        4 => {
            let id = r.get_u64()? as usize;
            let weight = r.get_f64()?;
            MatrixEdit::SetQueryWeight(id, weight)
        }
        5 => {
            let table = TableId(r.get_u32()?);
            let n = r.get_len()?;
            let mut columns = Vec::with_capacity(n);
            for _ in 0..n {
                columns.push(r.get_u16()?);
            }
            MatrixEdit::RegisterFragment(table, columns)
        }
        6 => {
            let table = TableId(r.get_u32()?);
            let column = r.get_u16()?;
            let n = r.get_len()?;
            let mut bounds = Vec::with_capacity(n);
            for _ in 0..n {
                bounds.push(r.get_f64()?);
            }
            MatrixEdit::RegisterSplit(HorizontalPartitioning {
                table,
                column,
                bounds,
            })
        }
        7 => MatrixEdit::Publish,
        _ => return Err(invalid("edit tag")),
    };
    r.expect_end("edit record")?;
    Ok(edit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
    use pgdesign_optimizer::Optimizer;
    use pgdesign_query::generators::sdss_workload;

    fn assert_same_costs(live: &CostMatrix<'_>, restored: &CostMatrix<'_>) {
        assert_eq!(live.n_queries(), restored.n_queries());
        assert_eq!(live.n_candidates(), restored.n_candidates());
        let n = live.n_candidates();
        for qi in 0..live.n_queries() {
            assert_eq!(live.query_active(qi), restored.query_active(qi), "Q{qi}");
            if !live.query_active(qi) {
                continue;
            }
            let empty = live.empty_config();
            assert_eq!(
                live.cost(qi, &empty),
                restored.cost(qi, &empty),
                "Q{qi} empty"
            );
            for a in 0..n.min(8) {
                if live.candidate(a).is_none() {
                    continue;
                }
                let solo = live.config_of([a]);
                assert_eq!(
                    live.cost(qi, &solo),
                    restored.cost(qi, &solo),
                    "Q{qi} solo {a}"
                );
            }
            let mut joint = live.empty_joint();
            for f in 0..live.n_fragments() {
                joint.fragments.insert(f);
            }
            for s in 0..live.n_splits() {
                joint.splits.insert(s);
            }
            assert_eq!(
                live.joint_cost(qi, &joint),
                restored.joint_cost(qi, &joint),
                "Q{qi} joint"
            );
        }
        let full: Vec<usize> = (0..n).filter(|&a| live.candidate(a).is_some()).collect();
        let cfg = live.config_of(full);
        assert_eq!(live.workload_cost(&cfg), restored.workload_cost(&cfg));
    }

    #[test]
    fn snapshot_roundtrip_is_exact() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 101);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let mut live = CostMatrix::build(&inum, &w, &cands.indexes);
        live.register_fragment(TableId(0), &[0, 1]);
        live.register_split(HorizontalPartitioning {
            table: TableId(0),
            column: 0,
            bounds: vec![0.25, 0.5],
        });
        live.publish();

        let records = encode_published(&live);
        let decoded = decode_snapshot(&records).expect("decode");
        assert_eq!(decoded.generation, 1);
        assert!(decoded.cells > 0);
        let opt2 = Optimizer::new();
        let inum2 = Inum::new(&c, &opt2);
        let (restored, report) = restore_matrix(&inum2, decoded).expect("restore");
        assert_eq!(report.cells_invalidated, 0, "no stale tables");
        assert!(report.stale_tables.is_empty());
        assert!(report.cells_loaded > 0);
        assert_eq!(
            inum2.matrix_stats().builds,
            0,
            "restore must not count a build"
        );
        let before = (inum.matrix_stats().lookups, inum2.matrix_stats().lookups);
        assert_same_costs(&live, &restored);
        let after = (inum.matrix_stats().lookups, inum2.matrix_stats().lookups);
        assert_eq!(
            after.0 - before.0,
            after.1 - before.1,
            "a restored matrix counts its lookups on the INUM it was bound to"
        );
        assert!(after.1 > before.1);
    }

    #[test]
    fn journal_replay_reproduces_live_matrix() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 6, 101);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let mut live = CostMatrix::build(&inum, &w, &cands.indexes);
        live.publish();
        let records = encode_published(&live);

        let opt2 = Optimizer::new();
        let inum2 = Inum::new(&c, &opt2);
        let decoded = decode_snapshot(&records).expect("decode");
        let (mut restored, _) = restore_matrix(&inum2, decoded).expect("restore");

        // Mutate the live matrix with the journal on, then replay the journal
        // into the restored copy and require bit-identical agreement.
        live.enable_journal();
        let extra = sdss_workload(&c, 3, 202);
        live.add_queries(extra.iter().map(|(q, _)| (q, 2.0)));
        live.retire_query(1);
        live.set_query_weight(0, 3.5);
        let new_index = Index {
            table: TableId(1),
            columns: vec![2, 0],
            unique: false,
        };
        live.add_candidate(&new_index);
        live.remove_candidate(0);
        live.register_fragment(TableId(2), &[0]);
        live.register_split(HorizontalPartitioning {
            table: TableId(1),
            column: 1,
            bounds: vec![0.5],
        });
        live.publish();

        let journal = live.take_journal();
        assert!(!journal.is_empty());
        for edit in &journal {
            let bytes = encode_edit(edit);
            let back = decode_edit(&bytes).expect("edit roundtrip");
            assert_eq!(&back, edit);
            restored.apply_edit(&back);
        }
        assert_eq!(live.published_generation(), restored.published_generation());
        assert_same_costs(&live, &restored);
    }

    #[test]
    fn stale_table_invalidates_only_its_cells() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 9, 101);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let mut live = CostMatrix::build(&inum, &w, &cands.indexes);
        live.register_fragment(TableId(0), &[0, 1]);
        live.publish();
        let records = encode_published(&live);

        // Same schema, drifted statistics on table 0 only.
        let mut c2 = sdss_catalog(0.01);
        c2.stats[0].row_count *= 2;
        let opt2 = Optimizer::new();
        let inum2 = Inum::new(&c2, &opt2);
        let decoded = decode_snapshot(&records).expect("decode");
        let (restored, report) = restore_matrix(&inum2, decoded).expect("restore");
        assert_eq!(report.stale_tables, vec![TableId(0)]);
        assert!(report.cells_invalidated > 0);

        // A cold build against the drifted catalog is the ground truth.
        let opt3 = Optimizer::new();
        let inum3 = Inum::new(&c2, &opt3);
        let mut cold = CostMatrix::build(&inum3, &w, &cands.indexes);
        cold.register_fragment(TableId(0), &[0, 1]);
        cold.publish();
        assert_same_costs(&cold, &restored);
    }

    #[test]
    fn decode_rejects_mismatched_cell_key() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 3, 101);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let mut live = CostMatrix::build(&inum, &w, &cands.indexes);
        live.publish();
        let mut records = encode_published(&live);
        // Swap two query records: each record's CRC would still pass, but
        // the stored cell keys no longer match their own queries... they do,
        // since key travels with its query. Instead corrupt a key in place:
        // re-encode record 2 with a flipped key bit.
        let mut r = ByteReader::new(&records[2]);
        let q = get_query(&mut r).unwrap();
        let mut qm = get_query_matrix(&mut r).unwrap();
        qm.key ^= 1;
        let mut wtr = ByteWriter::new();
        put_query(&mut wtr, &q);
        put_query_matrix(&mut wtr, &qm);
        records[2] = wtr.into_bytes();
        assert!(matches!(
            decode_snapshot(&records),
            Err(PersistError::Invalid(_))
        ));
    }

    /// Decode record 1 into its parts and re-encode it with the free lists
    /// replaced — the tamper harness for the registry-record validations.
    fn reencode_registry(
        bytes: &[u8],
        free_candidates: &[usize],
        free_queries: &[usize],
    ) -> Vec<u8> {
        let mut r = ByteReader::new(bytes);
        let params = get_params(&mut r).unwrap();
        let generation = r.get_u64().unwrap();
        let n = r.get_len().unwrap();
        let mut indexes: Vec<Option<Index>> = Vec::with_capacity(n);
        for _ in 0..n {
            indexes.push(match r.get_u8().unwrap() {
                0 => None,
                _ => Some(get_index(&mut r).unwrap()),
            });
        }
        for _ in 0..r.get_len().unwrap() {
            r.get_u64().unwrap(); // original free candidate ids
        }
        for _ in 0..r.get_len().unwrap() {
            r.get_u64().unwrap(); // original free query ids
        }
        let n_queries = r.get_u64().unwrap();

        let mut w = ByteWriter::new();
        put_params(&mut w, &params);
        w.put_u64(generation);
        w.put_len(indexes.len());
        for idx in &indexes {
            match idx {
                None => w.put_u8(0),
                Some(i) => {
                    w.put_u8(1);
                    put_index(&mut w, i);
                }
            }
        }
        w.put_len(free_candidates.len());
        for &id in free_candidates {
            w.put_u64(id as u64);
        }
        w.put_len(free_queries.len());
        for &id in free_queries {
            w.put_u64(id as u64);
        }
        w.put_u64(n_queries);
        w.into_bytes()
    }

    fn published_records() -> Vec<Vec<u8>> {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 3, 101);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let mut live = CostMatrix::build(&inum, &w, &cands.indexes);
        live.publish();
        encode_published(&live)
    }

    #[test]
    fn decode_rejects_out_of_range_slot_table() {
        let mut records = published_records();
        // CRC-valid framing, semantically impossible payload: a slot that
        // claims a table past the stored table count. Before decode-time
        // validation this panicked inside `restore_matrix`'s per-table
        // lookups; now it must be a structured error.
        let mut r = ByteReader::new(&records[2]);
        let q = get_query(&mut r).unwrap();
        let mut qm = get_query_matrix(&mut r).unwrap();
        qm.slots[0].table = TableId(u32::MAX);
        let mut wtr = ByteWriter::new();
        put_query(&mut wtr, &q);
        put_query_matrix(&mut wtr, &qm);
        records[2] = wtr.into_bytes();
        assert!(matches!(
            decode_snapshot(&records),
            Err(PersistError::Invalid("query slot table out of range"))
        ));
    }

    #[test]
    fn decode_rejects_out_of_range_free_candidate() {
        let mut records = published_records();
        records[1] = reencode_registry(&records[1], &[usize::MAX], &[]);
        assert!(matches!(
            decode_snapshot(&records),
            Err(PersistError::Invalid("free candidate id out of range"))
        ));
    }

    #[test]
    fn decode_rejects_out_of_range_free_query() {
        let mut records = published_records();
        // Free query ids are validated against the stored query count; an
        // id at the count (one past the last slot) must already fail.
        records[1] = reencode_registry(&records[1], &[], &[3]);
        assert!(matches!(
            decode_snapshot(&records),
            Err(PersistError::Invalid("free query id out of range"))
        ));
    }

    #[test]
    fn restore_refuses_catalog_shape_change() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 3, 101);
        let mut live = CostMatrix::build(&inum, &w, &[]);
        live.publish();
        let records = encode_published(&live);
        let mut decoded = decode_snapshot(&records).expect("decode");
        decoded.stored_fingerprints.pop();
        let opt2 = Optimizer::new();
        let inum2 = Inum::new(&c, &opt2);
        assert!(matches!(
            restore_matrix(&inum2, decoded),
            Err(PersistError::Invalid(_))
        ));
    }
}
