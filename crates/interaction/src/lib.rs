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
//! * [`analyze_on`] — the doi matrix over live candidates of a matrix,
//!   factorised per query: `doi` is a `max` over queries, and a query's
//!   cost depends only on the `r_q` analysed candidates that own a cell on
//!   it, so each query sweeps `2^r_q` configurations of its own instead of
//!   all `2^n` — `Σ_q 2^r_q` matrix lookups in total, with no bound on `n`
//!   itself. A query whose `2^(r_q − 2)` contexts per pair exceed
//!   [`InteractionConfig::max_subsets`] (`r_q > 10` by default) has them
//!   stride-sampled, and the result says on how many queries that bit;
//! * [`InteractionGraph`] — Figure 2's weighted undirected graph, with
//!   top-k edge filtering ("the user can dynamically change the number of
//!   interactions displayed") and DOT export;
//! * [`schedule`] — interaction-aware materialization scheduling: order
//!   the chosen indexes so the workload reaps benefits as early as
//!   possible while builds are in flight (a greedy order, held to an
//!   exact subset DP by the tests).

#![forbid(unsafe_code)]

pub mod graph;
#[cfg(test)]
mod oracle;
pub mod schedule;

pub use graph::InteractionGraph;
pub use schedule::{schedule_pair_on, Schedule};

use pgdesign_catalog::design::Index;
use pgdesign_inum::MatrixCore;

/// Analysis knobs.
#[derive(Debug, Clone, Copy)]
pub struct InteractionConfig {
    /// Cap on enumerated contexts per pair and query. A query on which
    /// `r` analysed candidates own a cell has `2^(r − 2)` contexts per
    /// pair; past this cap they are sampled deterministically.
    pub max_subsets: usize,
}

impl Default for InteractionConfig {
    fn default() -> Self {
        InteractionConfig { max_subsets: 256 }
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
    /// Queries whose contexts were stride-sampled rather than enumerated
    /// (0 whenever no query has more than `log2(max_subsets) + 2` of the
    /// analysed candidates on it — the `doi` values are then exact).
    pub sampled_queries: usize,
}

impl InteractionAnalysis {
    /// The interaction graph over this analysis.
    pub fn graph(&self) -> InteractionGraph {
        InteractionGraph::from_analysis(self)
    }
}

/// Whether all `2^n_free` contexts of a pair fit under the cap.
fn exhaustive(n_free: usize, max_subsets: usize) -> bool {
    n_free < usize::BITS as usize && 1usize << n_free <= max_subsets
}

/// The context sample for a pair with `n_free` free positions, once
/// [`exhaustive`] says no: deterministic stride sampling, always including
/// ∅ and the full set (the extreme contexts where interactions usually
/// peak). Free position `p` is in a context when bit `p % 64` of its mask
/// is set, so both extremes stay in the sample at any width.
fn subset_masks(n_free: usize, max_subsets: usize) -> Vec<u64> {
    let total = 1u128 << n_free.min(64);
    let mut masks = vec![0, (total - 1) as u64];
    let stride = total / (max_subsets as u128).saturating_sub(2).max(1);
    let mut m = stride;
    while m < total - 1 && masks.len() < max_subsets {
        masks.push(m as u64);
        m += stride;
    }
    masks
}

/// Compute the degree-of-interaction matrix for live candidates of an
/// *existing* matrix: no matrix build, every configuration cost is a pure
/// lookup against the resident cells. Pass the live
/// [`pgdesign_inum::CostMatrix`] or a published
/// [`pgdesign_inum::MatrixSnapshot`] (concurrent readers analyze against a
/// pinned generation while the writer keeps mutating); both deref-coerce
/// to their [`MatrixCore`].
/// `candidate_ids` must be live candidate ids of `matrix`; the returned
/// analysis lists the indexes in the same order. A pure function of the
/// matrix and the ids: nothing is cached between calls.
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
    let n = candidate_ids.len();
    let mut doi = vec![vec![0.0f64; n]; n];
    let mut sampled_queries = 0;
    let mut selected = matrix.empty_config();
    // Reused across queries: `cost(q, Y)` for every `Y ⊆ rel`, indexed by
    // `Y`'s bitmask over `rel`.
    let mut table: Vec<f64> = Vec::new();

    for q in matrix.active_query_ids() {
        // An index with no cell on `q` cannot change `q`'s cost in any
        // context, so every pair involving it scores +0.0 here: only the
        // positions in `rel` need sweeping.
        let owners = matrix.candidates_on(q);
        let rel: Vec<usize> = (0..n)
            .filter(|&p| owners.contains(&candidate_ids[p]))
            .collect();
        let r = rel.len();
        if r < 2 {
            continue;
        }
        // Cost of `q` under the `rel` entries `pick` selects.
        let mut cost_of = |pick: &dyn Fn(usize) -> bool| {
            selected.clear();
            for i in (0..r).filter(|&i| pick(i)) {
                selected.insert(candidate_ids[rel[i]]);
            }
            matrix.cost(q, &selected)
        };
        let sample = (!exhaustive(r - 2, config.max_subsets))
            .then(|| subset_masks(r - 2, config.max_subsets));
        if sample.is_some() {
            sampled_queries += 1;
        } else {
            table.clear();
            table.extend((0..1usize << r).map(|y| cost_of(&|i| y >> i & 1 == 1)));
        }

        for ia in 0..r {
            for ib in (ia + 1)..r {
                let (a, b) = (rel[ia], rel[ib]);
                let mut max_doi = doi[a][b];
                let mut fold = |c_x: f64, c_xa: f64, c_xb: f64, c_xab: f64| {
                    let delta_a = c_x - c_xa;
                    let delta_a_with_b = c_xb - c_xab;
                    let denom = c_xab.max(1e-9);
                    let d = (delta_a - delta_a_with_b).abs() / denom;
                    if d > max_doi {
                        max_doi = d;
                    }
                };
                match &sample {
                    None => {
                        let (ma, mb) = (1usize << ia, 1usize << ib);
                        for x in (0..1usize << r).filter(|x| x & (ma | mb) == 0) {
                            fold(table[x], table[x | ma], table[x | mb], table[x | ma | mb]);
                        }
                    }
                    Some(masks) => {
                        for &sub in masks {
                            // `rel` entry `i` sits at free position `i`
                            // minus the pair members before it.
                            let in_x = |i: usize| {
                                let p = i - usize::from(i > ia) - usize::from(i > ib);
                                i != ia && i != ib && sub >> (p % 64) & 1 == 1
                            };
                            fold(
                                cost_of(&in_x),
                                cost_of(&|i| i == ia || in_x(i)),
                                cost_of(&|i| i == ib || in_x(i)),
                                cost_of(&|i| i == ia || i == ib || in_x(i)),
                            );
                        }
                    }
                }
                doi[a][b] = max_doi;
                doi[b][a] = max_doi;
            }
        }
    }

    InteractionAnalysis {
        indexes,
        doi,
        sampled_queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::samples::{sdss_catalog, tpch_catalog};
    use pgdesign_catalog::schema::TableId;
    use pgdesign_catalog::Catalog;
    use pgdesign_inum::{CostMatrix, Inum};
    use pgdesign_optimizer::candidates::{workload_candidates, CandidateConfig};
    use pgdesign_optimizer::Optimizer;
    use pgdesign_query::generators::{sdss_workload, tpch_workload};
    use pgdesign_query::{parse_query, Workload};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// [`analyze_on`] over a private cost matrix built for `indexes`.
    fn analyze(
        inum: &Inum<'_>,
        workload: &Workload,
        indexes: &[Index],
        config: &InteractionConfig,
    ) -> InteractionAnalysis {
        let matrix = CostMatrix::build(inum, workload, indexes);
        let ids: Vec<usize> = (0..indexes.len()).collect();
        analyze_on(&matrix, &ids, config)
    }

    impl InteractionAnalysis {
        /// Stable partition of the candidate set: connected components of the
        /// graph with edges of weight > `threshold`. Indexes in different
        /// parts do not (measurably) interact and can be scheduled/reasoned
        /// about independently.
        fn stable_partition(&self, threshold: f64) -> Vec<Vec<usize>> {
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
    fn subset_sampling_caps_enumeration() {
        assert!(exhaustive(4, 256));
        assert!(exhaustive(8, 256));
        assert!(!exhaustive(9, 256));
        assert!(!exhaustive(200, usize::MAX));
        let sampled = subset_masks(12, 64);
        assert!(sampled.len() <= 64);
        assert!(sampled.contains(&0));
        assert!(sampled.contains(&((1u64 << 12) - 1)));
        // Past 64 free positions the extremes are still ∅ and everything.
        let wide = subset_masks(70, 64);
        assert!(wide.len() <= 64);
        assert!(wide.contains(&0) && wide.contains(&u64::MAX));
    }

    /// One matrix over every candidate of a generated workload, and a
    /// subset of its candidate ids drawn by `picks` from: every candidate
    /// (`mode` 0 — several tables, several indexes per table), the
    /// candidates of one table (1), or the candidates with a cell on one
    /// query (2 — the large-`r_q` case).
    fn with_fixture(
        catalog: &Catalog,
        workload: &Workload,
        picks: &[usize],
        mode: u8,
        check: impl FnOnce(&MatrixCore, &[usize]),
    ) {
        let opt = Optimizer::new();
        let inum = Inum::new(catalog, &opt);
        let pool = workload_candidates(catalog, workload, &CandidateConfig::default()).indexes;
        let matrix = CostMatrix::build(&inum, workload, &pool);
        let from: Vec<usize> = match mode {
            1 => {
                let table = pool[picks[0] % pool.len()].table;
                (0..pool.len())
                    .filter(|&id| pool[id].table == table)
                    .collect()
            }
            2 => matrix.candidates_on(picks[0] % workload.len()),
            _ => (0..pool.len()).collect(),
        };
        let mut ids: Vec<usize> = Vec::new();
        for &p in picks {
            let id = from[p % from.len()];
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        check(&matrix, &ids);
    }

    fn assert_same_bits(got: &InteractionAnalysis, want: &[Vec<f64>]) {
        for (i, row) in want.iter().enumerate() {
            for (j, w) in row.iter().enumerate() {
                assert_eq!(
                    got.doi[i][j].to_bits(),
                    w.to_bits(),
                    "doi[{i}][{j}]: {} vs oracle {w}",
                    got.doi[i][j]
                );
            }
        }
    }

    /// `k ≤ 10`: the parent's sweep is exhaustive, so every bit must match.
    fn check_exhaustive(matrix: &MatrixCore, ids: &[usize]) {
        let cfg = InteractionConfig::default();
        let an = analyze_on(matrix, ids, &cfg);
        assert_eq!(an.sampled_queries, 0);
        assert_same_bits(&an, &oracle::doi(matrix, ids, cfg.max_subsets));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(120))]

        #[test]
        fn factorised_sweep_has_the_oracle_bits_on_sdss(
            seed in 0u64..10_000,
            picks in vec(0usize..100_000, 2..11),
            mode in 0u8..3,
        ) {
            let c = sdss_catalog(0.01);
            let w = sdss_workload(&c, 10, seed);
            with_fixture(&c, &w, &picks, mode, check_exhaustive);
        }

        #[test]
        fn factorised_sweep_has_the_oracle_bits_on_tpch(
            seed in 0u64..10_000,
            picks in vec(0usize..100_000, 2..11),
            mode in 0u8..3,
        ) {
            let c = tpch_catalog(0.01);
            let w = tpch_workload(&c, 10, seed);
            with_fixture(&c, &w, &picks, mode, check_exhaustive);
        }
    }

    /// `k > 10`: the parent would sample per pair over `k − 2` positions;
    /// the factorised sweep stays exact while every `r_q ≤ 10`, which the
    /// un-capped oracle confirms. Returns how many of the drawn subsets
    /// were exact (the comparison must not pass vacuously).
    fn exact_beyond_ten(k_range: std::ops::Range<usize>, cases: u64) -> usize {
        let c = sdss_catalog(0.01);
        let mut exact = 0;
        for case in 0..cases {
            let w = sdss_workload(&c, 8, 500 + case);
            let k = k_range.start + case as usize % k_range.len();
            // A run of k consecutive pool entries, starting further in
            // each case.
            let picks: Vec<usize> = (0..k).map(|i| i + 3 * case as usize).collect();
            with_fixture(&c, &w, &picks, 0, |matrix, ids| {
                assert_eq!(ids.len(), k, "pool holds at least {k} candidates");
                let an = analyze_on(matrix, ids, &InteractionConfig::default());
                if an.sampled_queries == 0 {
                    exact += 1;
                    assert_same_bits(&an, &oracle::doi(matrix, ids, usize::MAX));
                }
            });
        }
        exact
    }

    #[test]
    fn eleven_to_thirteen_indexes_are_exact_while_no_query_is_sampled() {
        assert!(exact_beyond_ten(11..14, 6) > 0);
    }

    #[test]
    #[ignore = "the oracle is 2^k per pair: minutes in a debug build, run with --release"]
    fn fourteen_to_twenty_indexes_are_exact_while_no_query_is_sampled() {
        assert!(exact_beyond_ten(14..21, 7) > 0);
    }

    #[test]
    fn a_query_with_more_than_ten_indexes_on_it_is_sampled_and_says_so() {
        // Twelve indexes that all lead with the one filtered column.
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let w = Workload::from_queries([parse_query(
            &c.schema,
            "SELECT objid FROM photoobj WHERE type = 3",
        )
        .unwrap()]);
        let t = photo(&c);
        let indexes: Vec<Index> = (0..16)
            .filter(|&col| col != 3)
            .take(12)
            .map(|col| Index::new(t, vec![3, col]))
            .collect();
        let an = analyze(&inum, &w, &indexes, &InteractionConfig::default());
        assert_eq!(an.sampled_queries, 1);
        assert_eq!(an.graph().sampled_queries, 1);
        assert!(an.doi[0][1] > 0.0, "competing indexes still interact");
        // Lifting the cap makes the same analysis exact.
        let all = InteractionConfig {
            max_subsets: 1 << 10,
        };
        assert_eq!(analyze(&inum, &w, &indexes, &all).sampled_queries, 0);
    }
}
