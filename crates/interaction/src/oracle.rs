//! The pair-outer `2^k · |W|` sweep this crate ran before the analysis was
//! factorised per query, kept as the test oracle: every `doi[i][j]` of
//! [`crate::analyze_on`] must carry this sweep's bits whenever no query's
//! contexts are sampled. Test-only, and deliberately unimproved — a memo
//! of per-query cost vectors keyed by subset mask, four hash probes per
//! (pair, context, query). Depends on nothing but the matrix, so the
//! workspace-level session tests include this file by path.

use pgdesign_inum::MatrixCore;
use std::collections::HashMap;

/// Memoized per-query costs per index-subset bitmask; bit `b` of a mask
/// selects `ids[b]`.
struct ConfigCostCache<'m> {
    matrix: &'m MatrixCore,
    ids: Vec<usize>,
    qids: Vec<usize>,
    costs: HashMap<u32, Vec<f64>>,
}

impl ConfigCostCache<'_> {
    fn query_costs(&mut self, mask: u32) -> &[f64] {
        if !self.costs.contains_key(&mask) {
            let selected: Vec<usize> = self
                .ids
                .iter()
                .enumerate()
                .filter(|&(bit, _)| mask & (1 << bit) != 0)
                .map(|(_, &id)| id)
                .collect();
            let config = self.matrix.config_of(selected);
            let costs: Vec<f64> = self
                .qids
                .iter()
                .map(|&qi| self.matrix.cost(qi, &config))
                .collect();
            self.costs.insert(mask, costs);
        }
        &self.costs[&mask]
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

/// The degree-of-interaction matrix over `candidate_ids` of `matrix`, by
/// the pair-outer sweep with at most `max_subsets` contexts per pair.
pub fn doi(matrix: &MatrixCore, candidate_ids: &[usize], max_subsets: usize) -> Vec<Vec<f64>> {
    assert!(candidate_ids.len() <= 20, "u32 subset masks: ≤ 20 indexes");
    let mut cache = ConfigCostCache {
        matrix,
        ids: candidate_ids.to_vec(),
        qids: matrix.active_query_ids().collect(),
        costs: HashMap::new(),
    };
    let n = candidate_ids.len();
    let mut doi = vec![vec![0.0f64; n]; n];
    if n < 2 {
        return doi;
    }

    // Free positions for a pair (a, b): all other indexes.
    for a in 0..n {
        for b in (a + 1)..n {
            let free: Vec<usize> = (0..n).filter(|&k| k != a && k != b).collect();
            let mut max_doi = 0.0f64;
            for sub in subset_masks(free.len(), max_subsets) {
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
                let nq = cache.qids.len();
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
    doi
}
