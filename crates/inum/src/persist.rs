//! Durable form of the cost matrix: snapshot payloads and edit records.
//!
//! This module turns a published [`MatrixSnapshot`] into the record
//! payloads of a `.pgds` snapshot file and a [`MatrixEdit`] journal into
//! `.pgdl` log records — and back. The storage framing (magic headers,
//! format version, per-record CRC, atomic rename, fsync discipline) lives
//! in `pgdesign-durability`; this module owns only the *meaning* of the
//! bytes. Every layout is one [`Wire`](crate::wire::Wire) declaration
//! (`wire_struct!`/`wire_enum!`, see [`crate::wire`]): the cell payload
//! and the records here, the catalog/query/optimizer types there.
//!
//! Layout invariants the decoder enforces rather than trusts:
//!
//! - every active query slot's stored cell key must equal the recomputed
//!   FNV-1a [`crate::key::query_cell_key`] of its query — cells are keyed
//!   by that public key, and a mismatch means the payload is not the
//!   matrix it claims to be;
//! - every id a lookup indexes with — required-order ids, per-slot table
//!   ids, order-satisfaction bits, split fraction rows — is in range
//!   ([`QueryMatrix::validate`]), so a CRC-valid but impossible payload is
//!   an error here, not a panic at the first cost call;
//! - redundant state (`id_by_index`, `frags_by_table`, fragment column
//!   masks and the fragment id per `(table, mask)`) is rebuilt from first
//!   principles on decode, never stored;
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
use crate::key::Fnv1a;
pub use crate::wire::PersistError;
use crate::wire::{from_bytes, to_bytes};
use crate::{wire_enum, wire_struct};
use pgdesign_catalog::{Catalog, ColumnStats};
use std::hash::Hasher;

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

wire_enum!(MatrixEdit, "edit tag" {
    0 => AddCandidates(indexes),
    1 => RemoveCandidate(id),
    2 => AddQueries(entries),
    3 => RetireQuery(id),
    4 => SetQueryWeight(id, weight),
    5 => RegisterFragment(table, columns),
    6 => RegisterSplit(hp),
    7 => Publish,
});

/// Encode one edit as a log-record payload.
pub fn encode_edit(edit: &MatrixEdit) -> Vec<u8> {
    to_bytes(edit)
}

/// Decode one log-record payload.
pub fn decode_edit(bytes: &[u8]) -> Result<MatrixEdit, PersistError> {
    from_bytes(bytes, "edit record")
}

fn invalid(what: &'static str) -> PersistError {
    PersistError::Invalid(what)
}

// ---------------------------------------------------------------------------
// Catalog statistics fingerprints
// ---------------------------------------------------------------------------

fn fingerprint_column(h: &mut Fnv1a, c: &ColumnStats) {
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
fn catalog_fingerprints(catalog: &Catalog) -> Vec<u64> {
    catalog
        .stats
        .iter()
        .map(|ts| {
            let mut h = Fnv1a::new();
            h.u64(ts.row_count);
            h.u64(ts.columns.len() as u64);
            for c in &ts.columns {
                fingerprint_column(&mut h, c);
            }
            h.finish()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Cell payload and record layouts
// ---------------------------------------------------------------------------

wire_struct!(CandPath: profile, order_ok);
wire_struct!(CandCosts: id, unordered, ordered, paths);
wire_struct!(
    SlotCosts: table, needed_mask, base_rows, n_filters, base_target, base_unordered, base_ordered,
    slot_orders, cands
);
wire_struct!(QueryMatrix: weight, key, active, internal, reqs, slots);
wire_struct!(Split: hp, frac);

/// Record 0: the published generation and the catalog's per-table
/// statistics fingerprints at write time.
struct Header {
    generation: u64,
    fingerprints: Vec<u64>,
}
wire_struct!(Header: generation, fingerprints);

/// Record 1: the candidate registry and the free lists. `n_queries` is
/// the number of query records that follow.
struct Registry {
    params: CostParams,
    generation: u64,
    indexes: Vec<Option<Index>>,
    free_candidates: Vec<usize>,
    free_queries: Vec<usize>,
    n_queries: usize,
}
wire_struct!(Registry: params, generation, indexes, free_candidates, free_queries, n_queries);

/// One record per query slot (so the per-record CRC localizes damage):
/// the slot's query and its cells.
struct QueryRecord {
    query: Query,
    cells: Arc<QueryMatrix>,
}
wire_struct!(QueryRecord: query, cells);

/// A [`Fragment`] as stored: its column mask is rebuilt on decode.
struct FragmentRecord {
    table: TableId,
    columns: Vec<u16>,
    pages: u64,
}
wire_struct!(FragmentRecord: table, columns, pages);

impl QueryMatrix {
    /// Check every id a lookup indexes this query's cells with. The
    /// lookup paths trust these (they are invariants of
    /// `compute_query_matrix`); a decoded payload has to earn that trust.
    fn validate(&self) -> Result<(), PersistError> {
        if self.internal.len() != self.reqs.len() {
            return Err(invalid("skeleton costs misaligned with requirements"));
        }
        for slot in &self.slots {
            let n_orders = slot.base_ordered.len();
            if n_orders > MAX_SLOT_ORDERS || slot.slot_orders.len() != n_orders {
                return Err(invalid("slot order table misaligned"));
            }
            for cand in &slot.cands {
                if cand.ordered.len() != n_orders {
                    return Err(invalid("candidate order costs misaligned with slot orders"));
                }
                if cand.paths.iter().any(|p| p.order_ok >> n_orders != 0) {
                    return Err(invalid("path order bit out of range"));
                }
            }
        }
        for reqs in &self.reqs {
            if reqs.len() != self.slots.len() {
                return Err(invalid("skeleton requirements misaligned with slots"));
            }
            for (&req, slot) in reqs.iter().zip(&self.slots) {
                if req != NO_ORDER && req as usize >= slot.base_ordered.len() {
                    return Err(invalid("required order id out of range"));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Snapshot encode / decode
// ---------------------------------------------------------------------------

/// Encode the matrix's latest published generation as the record
/// payloads of a `.pgds` file: record 0 is the header (published
/// generation, catalog fingerprints), record 1 the candidate registry,
/// then one record per query slot, then fragments, then splits.
pub fn encode_published(matrix: &CostMatrix<'_>) -> Vec<Vec<u8>> {
    let snap = matrix.slot.current();
    let core: &MatrixCore = &snap;
    let mut records = Vec::with_capacity(4 + core.queries.len());
    records.push(to_bytes(&Header {
        generation: snap.generation(),
        fingerprints: catalog_fingerprints(matrix.inum.catalog()),
    }));
    records.push(to_bytes(&Registry {
        params: core.params,
        generation: core.generation,
        indexes: core.indexes.clone(),
        free_candidates: core.free_candidates.clone(),
        free_queries: core.free_queries.clone(),
        n_queries: core.queries.len(),
    }));
    for (cells, entry) in core.queries.iter().zip(&core.workload.entries) {
        records.push(to_bytes(&QueryRecord {
            query: entry.query.clone(),
            cells: Arc::clone(cells),
        }));
    }
    let fragments: Vec<FragmentRecord> = core
        .fragments
        .iter()
        .map(|f| FragmentRecord {
            table: f.table,
            columns: f.columns.clone(),
            pages: f.pages,
        })
        .collect();
    records.push(to_bytes(&fragments));
    records.push(to_bytes(&core.splits));
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
/// semantic invariants (tags, cross-record counts, id ranges, cell keys).
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
    let header: Header = from_bytes(rec(0)?, "header record")?;
    let n_tables = header.fingerprints.len();

    let registry: Registry = from_bytes(rec(1)?, "registry record")?;
    let n_queries = registry.n_queries;
    let n_candidates = registry.indexes.len();
    if registry
        .free_candidates
        .iter()
        .any(|&id| id >= n_candidates)
    {
        return Err(invalid("free candidate id out of range"));
    }
    if registry.free_queries.iter().any(|&id| id >= n_queries) {
        return Err(invalid("free query id out of range"));
    }
    if n_queries.checked_add(4) != Some(records.len()) {
        return Err(invalid("record count does not match query count"));
    }

    let mut workload = Workload::new();
    let mut queries = Vec::with_capacity(n_queries);
    let mut cells = 0u64;
    let query_records = records
        .get(2..2 + n_queries)
        .ok_or_else(|| invalid("missing query records"))?;
    for payload in query_records {
        let QueryRecord { query, cells: qm } = from_bytes(payload, "query record")?;
        // Slot table ids index per-table state during restore
        // (staleness masks, fragment lists); an id past the stored
        // table count is structural corruption, caught here rather
        // than as a panic later.
        if qm.slots.iter().any(|s| s.table.0 as usize >= n_tables) {
            return Err(invalid("query slot table out of range"));
        }
        qm.validate()?;
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
        queries.push(qm);
    }

    let stored: Vec<FragmentRecord> = from_bytes(rec(2 + n_queries)?, "fragment record")?;
    let mut fragments = Vec::with_capacity(stored.len());
    let mut frags_by_table: Vec<Vec<usize>> = vec![Vec::new(); n_tables];
    let mut frag_ids = HashMap::with_capacity(stored.len());
    for (fid, f) in stored.into_iter().enumerate() {
        if f.columns.iter().any(|&c| c >= 128) {
            return Err(invalid("fragment column ordinal out of range"));
        }
        // Registration stores a column group sorted and deduplicated, the
        // form its mask names uniquely.
        if f.columns.windows(2).any(|w| w.first() >= w.last()) {
            return Err(invalid("fragment columns not normalised"));
        }
        frags_by_table
            .get_mut(f.table.0 as usize)
            .ok_or_else(|| invalid("fragment table out of range"))?
            .push(fid);
        let mask = column_mask(&f.columns);
        frag_ids.entry((f.table, mask)).or_insert(fid);
        fragments.push(Arc::new(Fragment {
            table: f.table,
            mask,
            columns: f.columns,
            pages: f.pages,
        }));
    }

    let splits: Vec<Arc<Split>> = from_bytes(rec(3 + n_queries)?, "split record")?;
    for sp in &splits {
        if sp.frac.len() != n_queries {
            return Err(invalid("split fraction table misaligned with queries"));
        }
        // A joint lookup indexes `frac[query][slot]`; retired slots carry
        // no cells and an empty row.
        if sp
            .frac
            .iter()
            .zip(&queries)
            .any(|(row, qm)| row.len() != qm.slots.len())
        {
            return Err(invalid("split fraction row misaligned with query slots"));
        }
    }

    // Redundant state is rebuilt, never trusted: the live id per index is
    // the lowest live id (first registration wins, exactly as the builder
    // and `remove_candidate` maintain it).
    let mut id_by_index = HashMap::with_capacity(n_candidates);
    for (id, idx) in registry.indexes.iter().enumerate() {
        if let Some(i) = idx {
            id_by_index.entry(i.clone()).or_insert(id);
        }
    }

    Ok(DecodedSnapshot {
        core: MatrixCore {
            params: registry.params,
            workload,
            indexes: registry.indexes,
            id_by_index,
            queries,
            free_candidates: registry.free_candidates,
            free_queries: registry.free_queries,
            generation: registry.generation,
            fragments,
            splits,
            frags_by_table,
            frag_ids,
            // Placeholder: `restore_matrix` binds the core to its INUM's
            // counter block.
            counters: Arc::default(),
        },
        generation: header.generation,
        cells,
        stored_fingerprints: header.fingerprints,
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
            let (qm, cells) =
                compute_query_matrix(inum, slot.key, &entry.query, slot.weight, indexes);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Wire;
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
    fn state_with_dominated_skeleton_rows_reopens_warm_at_the_same_costs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // State written before the cache dropped dominated skeletons
        // carries their rows; the unpruned oracle writes that shape.
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let writer = Inum::unpruned(&c, &opt);
        let w = sdss_workload(&c, 12, 7);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let mut live = CostMatrix::build(&writer, &w, &cands.indexes);
        let frags = [
            live.register_fragment(TableId(0), &[0, 1, 2]),
            live.register_fragment(TableId(0), &(3..16).collect::<Vec<_>>()),
        ];
        let split = live.register_split(HorizontalPartitioning {
            table: TableId(0),
            column: 1,
            bounds: vec![90.0, 180.0, 270.0],
        });
        live.publish();
        let pruned = CostMatrix::build(&Inum::new(&c, &opt), &w, &cands.indexes);
        let rows = |m: &CostMatrix<'_>| m.queries.iter().map(|qm| qm.internal.len()).sum::<usize>();
        assert!(
            rows(&live) > rows(&pruned),
            "the state must hold dominated rows"
        );

        let reader = Inum::new(&c, &opt);
        let decoded = decode_snapshot(&encode_published(&live)).expect("decode");
        let (restored, report) = restore_matrix(&reader, decoded).expect("restore");
        assert_eq!(
            reader.matrix_stats().builds,
            0,
            "a warm open builds nothing"
        );
        assert_eq!(report.cells_invalidated, 0);
        assert_eq!(rows(&restored), rows(&live), "rows are adopted as written");

        // 32 seeded probe configurations cost the same bits after the reopen.
        let mut rng = StdRng::seed_from_u64(32);
        for _ in 0..32 {
            let mut cfg = restored.empty_joint();
            for _ in 0..rng.random_range(0..6usize) {
                cfg.indexes.insert(rng.random_range(0..cands.indexes.len()));
            }
            if rng.random_range(0..2usize) == 0 {
                frags.iter().for_each(|&f| cfg.fragments.insert(f));
            }
            if rng.random_range(0..2usize) == 0 {
                cfg.splits.insert(split);
            }
            for qi in 0..w.len() {
                for (a, b) in [
                    (live.cost(qi, &cfg.indexes), restored.cost(qi, &cfg.indexes)),
                    (live.joint_cost(qi, &cfg), restored.joint_cost(qi, &cfg)),
                    (
                        pruned.cost(qi, &cfg.indexes),
                        restored.cost(qi, &cfg.indexes),
                    ),
                ] {
                    assert_eq!(a.to_bits(), b.to_bits(), "Q{qi} under {cfg:?}");
                }
            }
        }
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

    fn published_records() -> Vec<Vec<u8>> {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 3, 101);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let mut live = CostMatrix::build(&inum, &w, &cands.indexes);
        live.register_split(HorizontalPartitioning {
            table: TableId(0),
            column: 0,
            bounds: vec![0.25, 0.5],
        });
        live.register_fragment(TableId(0), &[0, 1]);
        live.publish();
        encode_published(&live)
    }

    /// The tamper harness: CRC-valid framing around a semantically
    /// impossible payload. Decode record `i` as a `T`, edit it, re-encode
    /// it in place, and require `decode_snapshot` to name the violation.
    fn assert_tamper_rejected<T: Wire>(i: usize, tamper: impl FnOnce(&mut T), expected: &str) {
        let mut records = published_records();
        let mut record: T = from_bytes(&records[i], "tampered record").unwrap();
        tamper(&mut record);
        records[i] = to_bytes(&record);
        match decode_snapshot(&records) {
            Err(PersistError::Invalid(what)) => assert_eq!(what, expected),
            Err(other) => panic!("expected Invalid({expected:?}), got {other}"),
            Ok(_) => panic!("expected Invalid({expected:?}), decoded Ok"),
        }
    }

    /// [`assert_tamper_rejected`] on the cells of the fixture's query 1
    /// (record 3): two skeletons over one slot that has a required order
    /// and candidates, so every order-table tamper has something to hit.
    fn assert_cells_rejected(tamper: impl FnOnce(&mut QueryMatrix), expected: &str) {
        assert_tamper_rejected(
            3,
            |rec: &mut QueryRecord| tamper(Arc::make_mut(&mut rec.cells)),
            expected,
        );
    }

    /// The fixture slot the order-table tampers edit (every candidate on
    /// a slot carries at least one path).
    fn ordered_slot(qm: &mut QueryMatrix) -> &mut SlotCosts {
        let slot = &mut qm.slots[0];
        assert!(!slot.base_ordered.is_empty() && !slot.cands.is_empty());
        slot
    }

    #[test]
    fn decode_rejects_mismatched_cell_key() {
        assert_cells_rejected(|qm| qm.key ^= 1, "cell key does not match its query");
    }

    #[test]
    fn decode_rejects_out_of_range_slot_table() {
        // Before decode-time validation this panicked inside
        // `restore_matrix`'s per-table lookups.
        assert_cells_rejected(
            |qm| qm.slots[0].table = TableId(u32::MAX),
            "query slot table out of range",
        );
    }

    #[test]
    fn decode_rejects_out_of_range_free_candidate() {
        assert_tamper_rejected(
            1,
            |reg: &mut Registry| reg.free_candidates = vec![usize::MAX],
            "free candidate id out of range",
        );
    }

    #[test]
    fn decode_rejects_out_of_range_free_query() {
        // Free query ids are validated against the stored query count; an
        // id at the count (one past the last slot) must already fail.
        assert_tamper_rejected(
            1,
            |reg: &mut Registry| reg.free_queries = vec![3],
            "free query id out of range",
        );
    }

    // The lookup paths index with the ids below without checking them;
    // before `QueryMatrix::validate` each of these payloads decoded and
    // restored `Ok`, then panicked or cost wrong at the first lookup.

    #[test]
    fn decode_rejects_out_of_range_required_order() {
        assert_cells_rejected(|qm| qm.reqs[0][0] = 1000, "required order id out of range");
    }

    #[test]
    fn decode_rejects_requirements_misaligned_with_slots() {
        assert_cells_rejected(
            |qm| {
                qm.reqs[0].pop();
            },
            "skeleton requirements misaligned with slots",
        );
    }

    #[test]
    fn decode_rejects_skeleton_costs_misaligned_with_requirements() {
        assert_cells_rejected(
            |qm| {
                qm.internal.pop();
            },
            "skeleton costs misaligned with requirements",
        );
    }

    #[test]
    fn decode_rejects_misaligned_slot_order_table() {
        assert_cells_rejected(
            |qm| ordered_slot(qm).slot_orders.push(vec![0]),
            "slot order table misaligned",
        );
    }

    #[test]
    fn decode_rejects_too_many_slot_orders() {
        // Internally consistent, but past the 16-wide per-slot scratch a
        // joint lookup resolves orders into.
        assert_cells_rejected(
            |qm| {
                let slot = ordered_slot(qm);
                slot.base_ordered.resize(MAX_SLOT_ORDERS + 1, f64::INFINITY);
                slot.slot_orders.resize(MAX_SLOT_ORDERS + 1, vec![0]);
                for cand in &mut slot.cands {
                    cand.ordered.resize(MAX_SLOT_ORDERS + 1, f64::INFINITY);
                }
            },
            "slot order table misaligned",
        );
    }

    #[test]
    fn decode_rejects_candidate_order_costs_misaligned_with_slot_orders() {
        assert_cells_rejected(
            |qm| {
                ordered_slot(qm).cands[0].ordered.pop();
            },
            "candidate order costs misaligned with slot orders",
        );
    }

    #[test]
    fn decode_rejects_out_of_range_path_order_bit() {
        assert_cells_rejected(
            |qm| {
                let slot = ordered_slot(qm);
                let first_unknown = slot.base_ordered.len();
                slot.cands[0].paths[0].order_ok |= 1 << first_unknown;
            },
            "path order bit out of range",
        );
    }

    #[test]
    fn decode_rejects_unnormalised_fragment_columns() {
        // Registration stores a group sorted and deduplicated; another
        // spelling of one column set would break the `(table, mask)` dedupe.
        let fragments = published_records().len() - 2;
        assert_tamper_rejected(
            fragments,
            |frags: &mut Vec<FragmentRecord>| frags[0].columns.reverse(),
            "fragment columns not normalised",
        );
    }

    #[test]
    fn decode_rejects_split_fraction_row_misaligned_with_slots() {
        let last = published_records().len() - 1;
        assert_tamper_rejected(
            last,
            |splits: &mut Vec<Arc<Split>>| Arc::make_mut(&mut splits[0]).frac[1].clear(),
            "split fraction row misaligned with query slots",
        );
    }

    #[test]
    fn every_record_round_trips_and_rejects_every_prefix() {
        use crate::wire::tests::assert_wire_contract;

        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = sdss_workload(&c, 3, 101);
        let cands = workload_candidates(&c, &w, &CandidateConfig::default());
        let mut live = CostMatrix::build(&inum, &w, &cands.indexes);
        live.enable_journal();
        live.register_fragment(TableId(0), &[0, 1]);
        live.register_split(HorizontalPartitioning {
            table: TableId(0),
            column: 0,
            bounds: vec![0.25, 0.5],
        });
        live.retire_query(1);
        live.set_query_weight(0, 3.5);
        live.add_queries(sdss_workload(&c, 1, 202).iter().map(|(q, _)| (q, 2.0)));
        live.remove_candidate(0);
        live.add_candidate(&Index::new(TableId(1), vec![2, 0]));
        live.publish();

        let journal = live.take_journal();
        assert_eq!(journal.len(), 8, "one edit of every variant");
        for edit in &journal {
            assert_eq!(&assert_wire_contract(edit), edit);
        }

        let records = encode_published(&live);
        let n = records.len();
        assert_wire_contract(&from_bytes::<Header>(&records[0], "header").unwrap());
        assert_wire_contract(&from_bytes::<Registry>(&records[1], "registry").unwrap());
        for record in &records[2..n - 2] {
            assert_wire_contract(&from_bytes::<QueryRecord>(record, "query").unwrap());
        }
        let fragments: Vec<FragmentRecord> = from_bytes(&records[n - 2], "fragments").unwrap();
        assert_eq!(fragments.len(), 1);
        assert_wire_contract(&fragments);
        let splits: Vec<Arc<Split>> = from_bytes(&records[n - 1], "splits").unwrap();
        assert_eq!(splits.len(), 1);
        assert_wire_contract(&splits);

        // And through the front door: a snapshot with any one record cut
        // short is a structural error.
        for i in 0..n {
            for len in 0..records[i].len() {
                let mut cut = records.clone();
                cut[i].truncate(len);
                assert!(
                    matches!(decode_snapshot(&cut), Err(PersistError::Codec(_))),
                    "record {i} cut to {len} bytes"
                );
            }
        }
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
