//! Candidate index enumeration.
//!
//! Shared by the automatic index suggestion component (CoPhy), the
//! continuous tuner (COLT, restricted to single-column candidates per the
//! paper §3.2.2) and the interactive sessions. The enumeration follows the
//! standard syntactic-relevance approach: indexes are proposed from the
//! columns a query actually restricts, joins, orders, groups or projects.

use pgdesign_catalog::design::Index;
use pgdesign_catalog::Catalog;
use pgdesign_query::ast::Query;
use pgdesign_query::Workload;
use std::collections::BTreeMap;

/// Maximum key columns in a multi-column candidate.
const MAX_KEY_COLUMNS: usize = 3;
/// Maximum total columns in a covering candidate (key + projected
/// columns).
const MAX_COVERING_WIDTH: usize = 5;

/// Knobs for candidate generation.
#[derive(Debug, Clone, Copy, Default)]
pub struct CandidateConfig {
    /// Restrict to single-column candidates (COLT mode).
    pub single_column_only: bool,
}

impl CandidateConfig {
    /// COLT's configuration: single-column indexes only (§3.2.2).
    pub fn single_column() -> Self {
        CandidateConfig {
            single_column_only: true,
        }
    }
}

/// Candidate indexes for one query.
pub fn query_candidates(catalog: &Catalog, query: &Query, cfg: &CandidateConfig) -> Vec<Index> {
    let mut out: Vec<Index> = Vec::new();
    let mut push = |idx: Index| {
        if !idx.columns.is_empty() && !out.contains(&idx) {
            out.push(idx);
        }
    };
    for slot in 0..query.slot_count() {
        let table = query.table_of(slot);
        let tdef = catalog.schema.table(table);
        let sargable = query.sargable_columns(slot);
        let join_cols: Vec<u16> = query
            .joins_on(slot)
            .filter_map(|j| j.column_on(slot))
            .collect();

        // Single-column candidates: every sargable and join column.
        for &c in sargable.iter().chain(join_cols.iter()) {
            push(Index::new(table, vec![c]));
        }
        // Order/group columns as single-column candidates.
        for o in query.order_by.iter().filter(|o| o.col.slot == slot) {
            push(Index::new(table, vec![o.col.column]));
        }
        for g in query.group_by.iter().filter(|g| g.slot == slot) {
            push(Index::new(table, vec![g.column]));
        }
        if cfg.single_column_only {
            continue;
        }

        // Multi-column: sargable prefix (equality cols first, then the
        // first range column — already the order `sargable_columns` gives).
        if sargable.len() >= 2 {
            let key: Vec<u16> = sargable.iter().copied().take(MAX_KEY_COLUMNS).collect();
            push(Index::new(table, key.clone()));
            // Covering variant: append remaining needed columns.
            let mut cov = key;
            for c in query.columns_used(slot) {
                if cov.len() >= MAX_COVERING_WIDTH {
                    break;
                }
                if !cov.contains(&c) {
                    cov.push(c);
                }
            }
            push(Index::new(table, cov));
        }
        // Join column + filter columns (index-nested-loop enabler that
        // also filters at the inner side).
        for &jc in &join_cols {
            if !sargable.is_empty() {
                let mut key = vec![jc];
                for &c in sargable.iter().take(MAX_KEY_COLUMNS - 1) {
                    if !key.contains(&c) {
                        key.push(c);
                    }
                }
                push(Index::new(table, key));
            }
        }
        // ORDER BY prefix (sort avoidance), possibly after equality cols.
        let ob: Vec<u16> = query
            .order_by
            .iter()
            .filter(|o| o.col.slot == slot)
            .map(|o| o.col.column)
            .collect();
        if !ob.is_empty() {
            push(Index::new(
                table,
                ob.iter().copied().take(MAX_KEY_COLUMNS).collect(),
            ));
            // equality prefix + order column: classic "filter then sorted".
            let eqs: Vec<u16> = sargable
                .iter()
                .copied()
                .filter(|c| !ob.contains(c))
                .take(MAX_KEY_COLUMNS - 1)
                .collect();
            if !eqs.is_empty() {
                let mut key = eqs;
                key.extend(ob.iter().copied());
                key.truncate(MAX_KEY_COLUMNS);
                push(Index::new(table, key));
            }
        }
        // GROUP BY columns.
        let gb: Vec<u16> = query
            .group_by
            .iter()
            .filter(|g| g.slot == slot)
            .map(|g| g.column)
            .collect();
        if gb.len() >= 2 {
            push(Index::new(
                table,
                gb.into_iter().take(MAX_KEY_COLUMNS).collect(),
            ));
        }
        let _ = tdef;
    }
    out
}

/// Candidate set for a whole workload with per-query relevance lists.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// Deduplicated candidate indexes.
    pub indexes: Vec<Index>,
    /// For each workload query, the indices (into `indexes`) of the
    /// candidates syntactically relevant to it.
    pub relevant: Vec<Vec<usize>>,
}

impl CandidateSet {
    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// True when no candidates were generated.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }
}

/// Enumerate candidates over a workload, deduplicating across queries.
pub fn workload_candidates(
    catalog: &Catalog,
    workload: &Workload,
    cfg: &CandidateConfig,
) -> CandidateSet {
    let mut ids: BTreeMap<Index, usize> = BTreeMap::new();
    let mut indexes: Vec<Index> = Vec::new();
    let mut relevant: Vec<Vec<usize>> = Vec::with_capacity(workload.len());
    for (q, _) in workload.iter() {
        let mut rel = Vec::new();
        for idx in query_candidates(catalog, q, cfg) {
            let id = *ids.entry(idx.clone()).or_insert_with(|| {
                indexes.push(idx);
                indexes.len() - 1
            });
            if !rel.contains(&id) {
                rel.push(id);
            }
        }
        relevant.push(rel);
    }
    CandidateSet { indexes, relevant }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_query::generators::sdss_workload;
    use pgdesign_query::parse_query;

    #[test]
    fn candidates_cover_predicate_columns() {
        let c = sdss_catalog(0.01);
        let q = parse_query(
            &c.schema,
            "SELECT objid FROM photoobj WHERE type = 3 AND r < 19 ORDER BY ra",
        )
        .unwrap();
        let cands = query_candidates(&c, &q, &CandidateConfig::default());
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        assert!(cands.contains(&Index::new(photo, vec![3])), "type");
        assert!(cands.contains(&Index::new(photo, vec![6])), "r");
        assert!(cands.contains(&Index::new(photo, vec![1])), "ra (order)");
        assert!(
            cands.contains(&Index::new(photo, vec![3, 6])),
            "eq+range multi-column"
        );
    }

    #[test]
    fn join_columns_become_candidates() {
        let c = sdss_catalog(0.01);
        let q = parse_query(
            &c.schema,
            "SELECT p.ra FROM photoobj p, specobj s WHERE p.objid = s.bestobjid",
        )
        .unwrap();
        let cands = query_candidates(&c, &q, &CandidateConfig::default());
        let photo = c.schema.table_by_name("photoobj").unwrap().id;
        let spec = c.schema.table_by_name("specobj").unwrap().id;
        assert!(cands.contains(&Index::new(photo, vec![0])));
        assert!(cands.contains(&Index::new(spec, vec![1])));
    }

    #[test]
    fn single_column_mode_has_no_multicolumn() {
        let c = sdss_catalog(0.01);
        let q = parse_query(
            &c.schema,
            "SELECT objid FROM photoobj WHERE type = 3 AND r < 19",
        )
        .unwrap();
        let cands = query_candidates(&c, &q, &CandidateConfig::single_column());
        assert!(!cands.is_empty());
        assert!(cands.iter().all(|i| i.columns.len() == 1));
    }

    #[test]
    fn covering_candidates_respect_width_cap() {
        let c = sdss_catalog(0.01);
        let q = parse_query(
            &c.schema,
            "SELECT objid, ra, dec FROM photoobj WHERE type = 3 AND r < 19",
        )
        .unwrap();
        let cfg = CandidateConfig::default();
        let cands = query_candidates(&c, &q, &cfg);
        assert!(cands.iter().all(|i| i.columns.len() <= MAX_COVERING_WIDTH));
        // Some covering candidate includes a projected column.
        assert!(cands.iter().any(|i| i.columns.contains(&1)));
    }

    #[test]
    fn workload_candidates_deduplicate() {
        let c = sdss_catalog(0.01);
        let w = sdss_workload(&c, 18, 5);
        let set = workload_candidates(&c, &w, &CandidateConfig::default());
        assert!(!set.is_empty());
        // No duplicates.
        for (i, a) in set.indexes.iter().enumerate() {
            for b in &set.indexes[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Every query has at least one relevant candidate.
        assert!(set.relevant.iter().all(|r| !r.is_empty()));
        // Relevance ids are in range.
        assert!(set
            .relevant
            .iter()
            .flatten()
            .all(|&id| id < set.indexes.len()));
    }
}
