//! Interaction-aware index materialization scheduling (§3.5's second tool).
//!
//! While a set of recommended indexes is being built one at a time, the
//! workload keeps running. The *area* of a schedule is the workload cost
//! accumulated during the build window: each build step of duration `t_k`
//! runs the workload against the indexes built so far. Index interactions
//! make ordering matter — building a cooperating pair early compounds,
//! building a superseded index first wastes its build time. "An
//! appropriately scheduled materialization of indexes can lead to higher
//! benefit in contrast with a schedule that does not take into account
//! index interaction."

use pgdesign_catalog::design::Index;
use pgdesign_inum::{CandidateBitset, CostMatrix, Inum};
use pgdesign_query::Workload;

/// A materialization schedule and its quality.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Build order (indices into the candidate list handed to the
    /// scheduler).
    pub order: Vec<usize>,
    /// Total workload cost accumulated during the build window (lower is
    /// better).
    pub area: f64,
    /// Benefit curve: `(cumulative build time, workload cost per unit)`
    /// after each build step, starting at time 0 with nothing built.
    pub curve: Vec<(f64, f64)>,
}

/// Estimated build time of an index (same scan+sort model COLT charges),
/// from catalog metadata and cost-model constants alone — the build-time
/// model never needs what-if costing.
pub fn build_time_with(
    catalog: &pgdesign_catalog::Catalog,
    params: &pgdesign_optimizer::CostParams,
    index: &Index,
) -> f64 {
    let tdef = catalog.schema.table(index.table);
    let stats = catalog.table_stats(index.table);
    let pages = pgdesign_catalog::sizing::heap_pages(stats.row_count, tdef.row_byte_width());
    let key_width = f64::from(index.key_width(&catalog.schema));
    pages as f64 * params.seq_page_cost + params.sort_cost(stats.row_count as f64, key_width + 8.0)
}

/// What every scheduler walks: the candidates to build, by position, on
/// one matrix. A schedule is a chain of configurations, each the previous
/// plus one index, so costs are read off a [`CandidateBitset`]
/// that grows along the chain — no bound on the number of indexes.
struct Builds<'m, 'a> {
    matrix: &'m CostMatrix<'a>,
    /// Position → candidate id in the matrix.
    ids: Vec<usize>,
    /// Position → build time.
    times: Vec<f64>,
}

impl<'m, 'a> Builds<'m, 'a> {
    fn on(matrix: &'m CostMatrix<'a>, candidate_ids: &[usize]) -> Self {
        let times = candidate_ids
            .iter()
            .map(|&id| matrix.candidate(id).expect("schedules need live ids"))
            .map(|index| build_time_with(matrix.catalog(), matrix.cost_params(), index))
            .collect();
        Builds {
            matrix,
            ids: candidate_ids.to_vec(),
            times,
        }
    }

    /// Every candidate of a matrix freshly built over `n` indexes.
    fn all(matrix: &'m CostMatrix<'a>, n: usize) -> Self {
        Self::on(matrix, &(0..n).collect::<Vec<_>>())
    }

    /// Walk the chain `next` picks: it sees what is built and the workload
    /// cost rate under it, and names the position to build next.
    fn walk(&self, mut next: impl FnMut(&CandidateBitset, f64) -> Option<usize>) -> Schedule {
        let mut built = self.matrix.empty_config();
        let mut rate = self.matrix.workload_cost(&built);
        let (mut area, mut clock) = (0.0, 0.0);
        let mut curve = vec![(0.0, rate)];
        let mut order = Vec::with_capacity(self.ids.len());
        while let Some(i) = next(&built, rate) {
            area += rate * self.times[i];
            clock += self.times[i];
            built.insert(self.ids[i]);
            rate = self.matrix.workload_cost(&built);
            curve.push((clock, rate));
            order.push(i);
        }
        Schedule { order, area, curve }
    }

    fn in_order(&self, order: impl IntoIterator<Item = usize>) -> Schedule {
        let mut order = order.into_iter();
        self.walk(|_, _| order.next())
    }

    fn greedy(&self) -> Schedule {
        let mut remaining: Vec<usize> = (0..self.ids.len()).collect();
        self.walk(|built, rate| {
            let (best, _) = remaining
                .iter()
                .map(|&i| {
                    let with_i = self.matrix.workload_cost_plus(built, self.ids[i]);
                    (i, (rate - with_i) / self.times[i].max(1e-9))
                })
                .max_by(|a, b| a.1.total_cmp(&b.1))?;
            remaining.retain(|&i| i != best);
            Some(best)
        })
    }
}

/// The naive schedule: build in the given (recommendation) order.
pub fn naive_schedule(inum: &Inum<'_>, workload: &Workload, indexes: &[Index]) -> Schedule {
    let matrix = CostMatrix::build(inum, workload, indexes);
    Builds::all(&matrix, indexes.len()).in_order(0..indexes.len())
}

/// The greedy and naive schedules over live candidates of an *existing*
/// matrix — the session-scoped entry: no matrix build, every
/// configuration cost is a pure lookup against the resident cells.
/// Schedule orders index into `candidate_ids`.
pub fn schedule_pair_on(matrix: &CostMatrix<'_>, candidate_ids: &[usize]) -> (Schedule, Schedule) {
    let builds = Builds::on(matrix, candidate_ids);
    (builds.greedy(), builds.in_order(0..candidate_ids.len()))
}

/// Greedy interaction-aware schedule: at each step, build the index with
/// the largest marginal benefit-rate per unit build time given what is
/// already built. Interactions are honoured because marginal benefits are
/// re-evaluated against the current set.
pub fn greedy_schedule(inum: &Inum<'_>, workload: &Workload, indexes: &[Index]) -> Schedule {
    let matrix = CostMatrix::build(inum, workload, indexes);
    Builds::all(&matrix, indexes.len()).greedy()
}

/// Exact minimum-area schedule by DP over subsets (`n ≤ 16`).
///
/// `dp[mask]` = minimum area to have built exactly `mask`;
/// `dp[mask | i] = min(dp[mask] + t_i × rate(mask))`.
pub fn exact_schedule(inum: &Inum<'_>, workload: &Workload, indexes: &[Index]) -> Schedule {
    let n = indexes.len();
    assert!(n <= 16, "exact schedule supports ≤ 16 indexes");
    let matrix = CostMatrix::build(inum, workload, indexes);
    let builds = Builds::all(&matrix, n);
    let times = &builds.times;
    let full = (1u32 << n) - 1;
    let mut dp = vec![f64::INFINITY; (full + 1) as usize];
    let mut pred: Vec<Option<usize>> = vec![None; (full + 1) as usize];
    dp[0] = 0.0;
    for mask in 0..=full {
        if dp[mask as usize].is_infinite() {
            continue;
        }
        let rate = matrix.workload_cost(&matrix.config_of((0..n).filter(|i| mask & (1 << i) != 0)));
        for i in 0..n {
            if mask & (1 << i) != 0 {
                continue;
            }
            let next = mask | (1 << i);
            let candidate = dp[mask as usize] + rate * times[i];
            if candidate < dp[next as usize] {
                dp[next as usize] = candidate;
                pred[next as usize] = Some(i);
            }
        }
    }
    // Reconstruct.
    let mut order_rev = Vec::with_capacity(n);
    let mut mask = full;
    while mask != 0 {
        let i = pred[mask as usize].expect("path exists");
        order_rev.push(i);
        mask &= !(1 << i);
    }
    order_rev.reverse();
    builds.in_order(order_rev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_catalog::samples::sdss_catalog;
    use pgdesign_catalog::schema::TableId;
    use pgdesign_catalog::Catalog;
    use pgdesign_optimizer::{CostParams, Optimizer};
    use pgdesign_query::parse_query;

    fn photo(c: &Catalog) -> TableId {
        c.schema.table_by_name("photoobj").unwrap().id
    }

    /// A workload + candidates where order clearly matters: one index is
    /// dominant for the hot query, the others are niche.
    fn scenario(c: &Catalog) -> (Workload, Vec<Index>) {
        let w = Workload::from_queries([
            parse_query(&c.schema, "SELECT ra FROM photoobj WHERE objid = 42").unwrap(),
            parse_query(&c.schema, "SELECT ra FROM photoobj WHERE objid = 43").unwrap(),
            parse_query(&c.schema, "SELECT ra FROM photoobj WHERE objid = 44").unwrap(),
            parse_query(&c.schema, "SELECT objid FROM photoobj WHERE run = 2000").unwrap(),
        ]);
        let t = photo(c);
        let indexes = vec![
            Index::new(t, vec![9]),    // run — helps 1 query
            Index::new(t, vec![0]),    // objid — helps 3 queries
            Index::new(t, vec![4, 5]), // (u, g) — helps nothing
        ];
        (w, indexes)
    }

    #[test]
    fn greedy_builds_dominant_index_first() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let (w, idxs) = scenario(&c);
        let s = greedy_schedule(&inum, &w, &idxs);
        assert_eq!(
            s.order[0], 1,
            "objid index should be built first: {:?}",
            s.order
        );
    }

    #[test]
    fn greedy_beats_or_matches_naive() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let (w, idxs) = scenario(&c);
        let naive = naive_schedule(&inum, &w, &idxs);
        let greedy = greedy_schedule(&inum, &w, &idxs);
        assert!(
            greedy.area <= naive.area + 1e-6,
            "greedy {} vs naive {}",
            greedy.area,
            naive.area
        );
        // In this scenario the naive order (run first) is strictly worse.
        assert!(greedy.area < naive.area * 0.99, "order should matter here");
    }

    #[test]
    fn exact_is_lower_bound_for_all_schedules() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let (w, idxs) = scenario(&c);
        let exact = exact_schedule(&inum, &w, &idxs);
        let greedy = greedy_schedule(&inum, &w, &idxs);
        let naive = naive_schedule(&inum, &w, &idxs);
        assert!(exact.area <= greedy.area + 1e-6);
        assert!(exact.area <= naive.area + 1e-6);
        // All schedules end at the same final configuration cost.
        let f = |s: &Schedule| s.curve.last().unwrap().1;
        assert!((f(&exact) - f(&greedy)).abs() < 1e-6);
        assert!((f(&exact) - f(&naive)).abs() < 1e-6);
    }

    #[test]
    fn curve_is_monotone_in_time_and_cost() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let (w, idxs) = scenario(&c);
        let s = greedy_schedule(&inum, &w, &idxs);
        assert_eq!(s.curve.len(), idxs.len() + 1);
        for win in s.curve.windows(2) {
            assert!(win[1].0 > win[0].0, "time advances");
            assert!(
                win[1].1 <= win[0].1 + 1e-6,
                "adding indexes never raises workload cost"
            );
        }
    }

    #[test]
    fn build_time_scales_with_table_size() {
        let small = sdss_catalog(0.01);
        let large = sdss_catalog(0.05);
        let params = CostParams::default();
        let idx_s = Index::new(photo(&small), vec![0]);
        let idx_l = Index::new(photo(&large), vec![0]);
        assert!(
            build_time_with(&large, &params, &idx_l) > build_time_with(&small, &params, &idx_s)
        );
    }

    #[test]
    fn empty_and_singleton_schedules() {
        let c = sdss_catalog(0.01);
        let opt = Optimizer::new();
        let inum = Inum::new(&c, &opt);
        let (w, idxs) = scenario(&c);
        let empty = greedy_schedule(&inum, &w, &[]);
        assert!(empty.order.is_empty());
        assert_eq!(empty.area, 0.0);
        let single = exact_schedule(&inum, &w, &idxs[..1]);
        assert_eq!(single.order, vec![0]);
        assert!(single.area > 0.0);
    }
}
