//! # pgdesign-interaction
//!
//! Index interactions — modeling, analysis and applications (Schnaitter,
//! Polyzotis, Getoor, PVLDB 2009); the paper's index interaction component
//! (§3.5) and the machinery behind Figure 2 and the materialization
//! schedule of scenario 2.
//!
//! Two indexes *interact* when the benefit of one depends on the presence
//! of the other — e.g. two indexes that serve the same query compete
//! (negative interaction), while an index pair enabling a sort-free merge
//! join cooperates (positive interaction). Formally, the *degree of
//! interaction* within candidate set `S` is
//!
//! ```text
//! doi(a,b) = max over q ∈ W, X ⊆ S∖{a,b} of
//!            |δ_a(q, X) − δ_a(q, X ∪ {b})| / cost(q, X ∪ {a,b})
//! ```
//!
//! where `δ_a(q, X) = cost(q, X) − cost(q, X ∪ {a})` is `a`'s benefit on
//! top of configuration `X`.
//!
//! The crate provides:
//! * [`analyze`] — the doi matrix over a candidate set, with configuration
//!   costs memoized through INUM (subsets shared across pairs, so the
//!   whole analysis costs `O(2^n · |W|)` cached cost calls, sampled when
//!   `n` is large);
//! * [`InteractionGraph`] — Figure 2's weighted undirected graph, with
//!   top-k edge filtering ("the user can dynamically change the number of
//!   interactions displayed") and DOT export;
//! * stable partitions — connected components of the thresholded graph:
//!   index subsets that can be reasoned about independently;
//! * [`schedule`] — interaction-aware materialization scheduling: order
//!   the chosen indexes so the workload reaps benefits as early as
//!   possible while builds are in flight (greedy and exact-DP variants).

#![forbid(unsafe_code)]

pub mod graph;
pub mod schedule;

pub use graph::InteractionGraph;
pub use schedule::{
    exact_schedule, greedy_schedule, naive_schedule, schedule_pair, schedule_pair_on, Schedule,
};

use pgdesign_catalog::design::{Index, PhysicalDesign};
use pgdesign_inum::{CostMatrix, Inum, MatrixCore};
use pgdesign_query::Workload;
use std::collections::HashMap;

/// Analysis knobs.
#[derive(Debug, Clone, Copy)]
pub struct InteractionConfig {
    /// Cap on enumerated configurations per pair context. When `2^n`
    /// exceeds this, subsets are sampled deterministically.
    pub max_subsets: usize,
}

impl Default for InteractionConfig {
    fn default() -> Self {
        InteractionConfig { max_subsets: 256 }
    }
}

/// The matrix a [`ConfigCostCache`] serves lookups from: either one it
/// built (and owns) for a standalone analysis, or a borrowed core — that
/// of a live session matrix *or* of a published snapshot
/// ([`pgdesign_inum::MatrixSnapshot`]), which is how concurrent readers
/// run interaction analyses without blocking the writer.
enum MatrixHandle<'m, 'a> {
    Owned(Box<CostMatrix<'a>>),
    Borrowed(&'m MatrixCore),
}

impl MatrixHandle<'_, '_> {
    fn core(&self) -> &MatrixCore {
        match self {
            MatrixHandle::Owned(m) => m,
            MatrixHandle::Borrowed(m) => m,
        }
    }
}

/// Memoized workload costs per index-subset bitmask, served from a
/// precomputed [`CostMatrix`]: each first-seen subset costs one matrix
/// lookup per query (additions and `min`s over precomputed floats), never
/// a design construction or an access-path enumeration. The `2^k` subset
/// sweep of [`analyze`] runs entirely on this.
///
/// Bit `b` of a mask selects `ids[b]` — the cache maps compact mask
/// positions onto arbitrary candidate ids, so it works both over a matrix
/// it built itself ([`ConfigCostCache::new`], ids `0..n`) and over a slice
/// of an existing session matrix ([`ConfigCostCache::on_matrix`], any live
/// ids, no rebuild).
pub struct ConfigCostCache<'m, 'a> {
    handle: MatrixHandle<'m, 'a>,
    /// Mask bit position → candidate id in the matrix.
    ids: Vec<usize>,
    /// Active query ids at construction time.
    qids: Vec<usize>,
    weights: Vec<f64>,
    costs: HashMap<u32, Vec<f64>>,
}

impl<'m, 'a> ConfigCostCache<'m, 'a> {
    /// New cache over a candidate set (builds and owns its matrix).
    pub fn new(inum: &Inum<'a>, workload: &Workload, indexes: &[Index]) -> Self {
        let matrix = CostMatrix::build(inum, workload, indexes);
        let ids = (0..indexes.len()).collect();
        Self::with_handle(MatrixHandle::Owned(Box::new(matrix)), ids)
    }

    /// New cache over `candidate_ids` of an existing matrix (`&CostMatrix`,
    /// `&MatrixSnapshot` and the reader handles all deref-coerce to
    /// `&MatrixCore`) — no rebuild; every lookup is served from the
    /// resident cells. The ids must be live candidates of `matrix`.
    pub fn on_matrix(matrix: &'m MatrixCore, candidate_ids: Vec<usize>) -> Self {
        Self::with_handle(MatrixHandle::Borrowed(matrix), candidate_ids)
    }

    fn with_handle(handle: MatrixHandle<'m, 'a>, ids: Vec<usize>) -> Self {
        assert!(
            ids.len() <= 20,
            "interaction analysis supports ≤ 20 indexes"
        );
        let m = handle.core();
        let qids: Vec<usize> = m.active_query_ids().collect();
        let weights = qids.iter().map(|&q| m.query_weight(q)).collect();
        ConfigCostCache {
            handle,
            ids,
            qids,
            weights,
            costs: HashMap::new(),
        }
    }

    /// The matrix lookups are served from.
    pub fn matrix(&self) -> &MatrixCore {
        self.handle.core()
    }

    /// Number of (active) queries each cost vector covers.
    pub fn n_queries(&self) -> usize {
        self.qids.len()
    }

    /// Per-query costs under the subset encoded by `mask` (aligned with
    /// the active queries of the matrix at cache construction).
    pub fn query_costs(&mut self, mask: u32) -> &[f64] {
        if !self.costs.contains_key(&mask) {
            let selected: Vec<usize> = self
                .ids
                .iter()
                .enumerate()
                .filter(|&(bit, _)| mask & (1 << bit) != 0)
                .map(|(_, &id)| id)
                .collect();
            let config = self.matrix().config_of(selected);
            let costs: Vec<f64> = self
                .qids
                .iter()
                .map(|&qi| self.matrix().cost(qi, &config))
                .collect();
            self.costs.insert(mask, costs);
        }
        &self.costs[&mask]
    }

    /// Weighted workload cost under the subset encoded by `mask`.
    pub fn workload_cost(&mut self, mask: u32) -> f64 {
        self.query_costs(mask); // fill the memo
        self.costs[&mask]
            .iter()
            .zip(&self.weights)
            .map(|(c, w)| c * w)
            .sum()
    }

    /// The design corresponding to a bitmask (slow-path bridge).
    pub fn design_of(&self, mask: u32) -> PhysicalDesign {
        PhysicalDesign::with_indexes(
            self.ids
                .iter()
                .enumerate()
                .filter(|&(bit, _)| mask & (1 << bit) != 0)
                .filter_map(|(_, &id)| self.matrix().candidate(id).cloned()),
        )
    }

    /// Number of distinct configurations costed so far.
    pub fn configurations_costed(&self) -> usize {
        self.costs.len()
    }
}

/// The result of interaction analysis.
#[derive(Debug, Clone)]
pub struct InteractionAnalysis {
    /// The analysed candidate indexes.
    pub indexes: Vec<Index>,
    /// Symmetric degree-of-interaction matrix (`doi[i][j] = doi[j][i]`,
    /// diagonal zero).
    pub doi: Vec<Vec<f64>>,
}

impl InteractionAnalysis {
    /// The interaction graph over this analysis.
    pub fn graph(&self) -> InteractionGraph {
        InteractionGraph::from_analysis(self)
    }

    /// Stable partition of the candidate set: connected components of the
    /// graph with edges of weight > `threshold`. Indexes in different
    /// parts do not (measurably) interact and can be scheduled/reasoned
    /// about independently.
    pub fn stable_partition(&self, threshold: f64) -> Vec<Vec<usize>> {
        let n = self.indexes.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if self.doi[i][j] > threshold {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..n {
            let r = find(&mut parent, i);
            groups.entry(r).or_default().push(i);
        }
        let mut out: Vec<Vec<usize>> = groups.into_values().collect();
        out.sort();
        out
    }
}

/// Subset masks to explore for a pair context of `n` free indexes.
fn subset_masks(n_free: usize, max_subsets: usize) -> Vec<u32> {
    let total = 1u64 << n_free;
    if total as usize <= max_subsets {
        (0..total as u32).collect()
    } else {
        // Deterministic stride sampling, always including ∅ and the full
        // set (the extreme contexts where interactions usually peak).
        let mut masks: Vec<u32> = Vec::with_capacity(max_subsets);
        masks.push(0);
        masks.push((total - 1) as u32);
        let stride = total / (max_subsets as u64 - 2);
        let mut m = stride;
        while m < total - 1 && masks.len() < max_subsets {
            masks.push(m as u32);
            m += stride;
        }
        masks
    }
}

/// Compute the degree-of-interaction matrix for a candidate set (builds a
/// private cost matrix; see [`analyze_on`] for the session-matrix entry).
pub fn analyze(
    inum: &Inum<'_>,
    workload: &Workload,
    indexes: &[Index],
    config: &InteractionConfig,
) -> InteractionAnalysis {
    let cache = ConfigCostCache::new(inum, workload, indexes);
    analyze_with(cache, indexes.to_vec(), config)
}

/// Compute the degree-of-interaction matrix for live candidates of an
/// *existing* matrix — the session-scoped entry: no matrix build, every
/// subset cost is a pure lookup against the resident cells. Pass the live
/// [`CostMatrix`] or a published [`pgdesign_inum::MatrixSnapshot`]
/// (concurrent readers analyze against a pinned generation while the
/// writer keeps mutating); both deref-coerce to their [`MatrixCore`].
/// `candidate_ids` must be live candidate ids of `matrix`; the returned
/// analysis lists the indexes in the same order.
pub fn analyze_on(
    matrix: &MatrixCore,
    candidate_ids: &[usize],
    config: &InteractionConfig,
) -> InteractionAnalysis {
    let indexes: Vec<Index> = candidate_ids
        .iter()
        .map(|&id| {
            matrix
                .candidate(id)
                .expect("analyze_on requires live candidate ids")
                .clone()
        })
        .collect();
    let cache = ConfigCostCache::on_matrix(matrix, candidate_ids.to_vec());
    analyze_with(cache, indexes, config)
}

fn analyze_with(
    mut cache: ConfigCostCache<'_, '_>,
    indexes: Vec<Index>,
    config: &InteractionConfig,
) -> InteractionAnalysis {
    let n = indexes.len();
    let mut doi = vec![vec![0.0f64; n]; n];
    if n < 2 {
        return InteractionAnalysis { indexes, doi };
    }

    // Free positions for a pair (a, b): all other indexes.
    for a in 0..n {
        for b in (a + 1)..n {
            let free: Vec<usize> = (0..n).filter(|&k| k != a && k != b).collect();
            let mut max_doi = 0.0f64;
            for sub in subset_masks(free.len(), config.max_subsets) {
                // Expand the compact submask over the free positions.
                let mut x = 0u32;
                for (bit, &pos) in free.iter().enumerate() {
                    if sub & (1 << bit) != 0 {
                        x |= 1 << pos;
                    }
                }
                let xa = x | (1 << a);
                let xb = x | (1 << b);
                let xab = x | (1 << a) | (1 << b);
                let nq = cache.n_queries();
                for qi in 0..nq {
                    let c_x = cache.query_costs(x)[qi];
                    let c_xa = cache.query_costs(xa)[qi];
                    let c_xb = cache.query_costs(xb)[qi];
                    let c_xab = cache.query_costs(xab)[qi];
                    let delta_a = c_x - c_xa;
                    let delta_a_with_b = c_xb - c_xab;
                    let denom = c_xab.max(1e-9);
                    let d = (delta_a - delta_a_with_b).abs() / denom;
                    if d > max_doi {
                        max_doi = d;
                    }
                }
            }
            doi[a][b] = max_doi;
            doi[b][a] = max_doi;
        }
    }

    InteractionAnalysis { indexes, doi }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_catalog::schema::TableId;
    use pgdesign_catalog::Catalog;
    use pgdesign_optimizer::Optimizer;
    use pgdesign_query::parse_query;

    fn photo(c: &Catalog) -> TableId {
        c.schema.table_by_name("photoobj").unwrap().id
    }

    #[test]
    fn competing_indexes_interact() {
        // Two indexes that both serve the same selective predicate set:
        // each one's benefit collapses when the other exists.
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = Workload::from_queries([parse_query(
            &c.schema,
            "SELECT objid FROM photoobj WHERE type = 3 AND r < 14",
        )
        .unwrap()]);
        let t = photo(&c);
        let indexes = vec![
            Index::new(t, vec![3, 6]), // (type, r)
            Index::new(t, vec![6, 3]), // (r, type)
        ];
        let an = analyze(&inum, &w, &indexes, &InteractionConfig::default());
        assert!(
            an.doi[0][1] > 0.1,
            "competing indexes must interact: {}",
            an.doi[0][1]
        );
    }

    #[test]
    fn unrelated_indexes_do_not_interact() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = Workload::from_queries([
            parse_query(&c.schema, "SELECT ra FROM photoobj WHERE objid = 3").unwrap(),
            parse_query(&c.schema, "SELECT bestobjid FROM specobj WHERE plate = 300").unwrap(),
        ]);
        let t = photo(&c);
        let spec = c.schema.table_by_name("specobj").unwrap().id;
        let indexes = vec![Index::new(t, vec![0]), Index::new(spec, vec![5])];
        let an = analyze(&inum, &w, &indexes, &InteractionConfig::default());
        assert!(
            an.doi[0][1] < 1e-6,
            "indexes on different tables serving different queries: {}",
            an.doi[0][1]
        );
    }

    #[test]
    fn doi_matrix_is_symmetric_with_zero_diagonal() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = pgdesign_query::generators::sdss_workload(&c, 9, 41);
        let t = photo(&c);
        let indexes = vec![
            Index::new(t, vec![0]),
            Index::new(t, vec![1]),
            Index::new(t, vec![6]),
            Index::new(t, vec![3, 6]),
        ];
        let an = analyze(&inum, &w, &indexes, &InteractionConfig::default());
        for i in 0..4 {
            assert_eq!(an.doi[i][i], 0.0);
            for j in 0..4 {
                assert_eq!(an.doi[i][j], an.doi[j][i]);
                assert!(an.doi[i][j] >= 0.0);
            }
        }
    }

    #[test]
    fn stable_partition_separates_tables() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = Workload::from_queries([
            parse_query(
                &c.schema,
                "SELECT objid FROM photoobj WHERE type = 3 AND r < 14",
            )
            .unwrap(),
            parse_query(&c.schema, "SELECT bestobjid FROM specobj WHERE plate = 300").unwrap(),
        ]);
        let t = photo(&c);
        let spec = c.schema.table_by_name("specobj").unwrap().id;
        let indexes = vec![
            Index::new(t, vec![3, 6]),
            Index::new(t, vec![6, 3]),
            Index::new(spec, vec![5]),
        ];
        let an = analyze(&inum, &w, &indexes, &InteractionConfig::default());
        let parts = an.stable_partition(0.01);
        // The two photoobj indexes belong together; the specobj one apart.
        assert_eq!(parts.len(), 2, "{parts:?}");
        assert!(parts.contains(&vec![0, 1]));
        assert!(parts.contains(&vec![2]));
    }

    #[test]
    fn cache_shares_subsets_across_pairs() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = pgdesign_query::generators::sdss_workload(&c, 9, 43);
        let t = photo(&c);
        let indexes = vec![
            Index::new(t, vec![0]),
            Index::new(t, vec![1]),
            Index::new(t, vec![6]),
        ];
        let mut cache = ConfigCostCache::new(&inum, &w, &indexes);
        for mask in 0u32..8 {
            let _ = cache.workload_cost(mask);
        }
        assert_eq!(cache.configurations_costed(), 8);
        // Re-asking costs nothing new.
        let _ = cache.workload_cost(5);
        assert_eq!(cache.configurations_costed(), 8);
    }

    #[test]
    fn subset_sampling_caps_enumeration() {
        let all = subset_masks(4, 256);
        assert_eq!(all.len(), 16);
        let sampled = subset_masks(12, 64);
        assert!(sampled.len() <= 64);
        assert!(sampled.contains(&0));
        assert!(sampled.contains(&((1u32 << 12) - 1)));
    }
}
