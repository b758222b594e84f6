//! Cost model parameters, PostgreSQL-flavoured.
//!
//! The defaults mirror `postgresql.conf` defaults so cost magnitudes are
//! recognisable to anyone who has read `EXPLAIN` output. The advisors only
//! depend on cost *orderings*, so the exact values matter less than their
//! ratios (random/sequential I/O being the important one).

/// Tunable constants of the cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Cost of a sequentially-fetched page (`seq_page_cost`).
    pub seq_page_cost: f64,
    /// Cost of a randomly-fetched page (`random_page_cost`).
    pub random_page_cost: f64,
    /// CPU cost of processing one tuple (`cpu_tuple_cost`).
    pub cpu_tuple_cost: f64,
    /// CPU cost of processing one index entry (`cpu_index_tuple_cost`).
    pub cpu_index_tuple_cost: f64,
    /// CPU cost of one operator/function evaluation (`cpu_operator_cost`).
    pub cpu_operator_cost: f64,
    /// Pages assumed cached (`effective_cache_size`, in pages). Dampens
    /// repeated random fetches in nested-loop inner sides.
    pub effective_cache_pages: u64,
    /// Sort/hash working memory in bytes (`work_mem`).
    pub work_mem_bytes: u64,
    /// Fraction of heap fetches an index-only scan still performs
    /// (1 − all-visible fraction).
    pub index_only_heap_fetch_frac: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            seq_page_cost: 1.0,
            random_page_cost: 4.0,
            cpu_tuple_cost: 0.01,
            cpu_index_tuple_cost: 0.005,
            cpu_operator_cost: 0.0025,
            effective_cache_pages: 524_288, // 4 GiB of 8 KiB pages
            work_mem_bytes: 64 * 1024 * 1024,
            index_only_heap_fetch_frac: 0.1,
        }
    }
}

impl CostParams {
    /// Cost of sorting `rows` tuples of `width` bytes: comparison CPU plus
    /// external-merge I/O when the input exceeds `work_mem`.
    pub fn sort_cost(&self, rows: f64, width: f64) -> f64 {
        if rows <= 1.0 {
            return self.cpu_operator_cost;
        }
        let cmp = 2.0 * self.cpu_operator_cost * rows * rows.log2().max(1.0);
        let bytes = rows * width.max(8.0);
        if bytes <= self.work_mem_bytes as f64 {
            cmp
        } else {
            // External sort: read + write each page ~log_merge passes ≈ 2.
            let pages = bytes / crate::params::PAGE_BYTES;
            cmp + 2.0 * 2.0 * pages * self.seq_page_cost
        }
    }

    /// Cost of building a hash table over `rows` tuples of `width` bytes.
    pub fn hash_build_cost(&self, rows: f64, width: f64) -> f64 {
        let cpu = rows * (self.cpu_operator_cost + self.cpu_tuple_cost);
        let bytes = rows * width.max(8.0);
        if bytes <= self.work_mem_bytes as f64 {
            cpu
        } else {
            // Batched hash join spills both sides once.
            let pages = bytes / crate::params::PAGE_BYTES;
            cpu + 2.0 * pages * self.seq_page_cost
        }
    }

    /// Dampen `pages` of random fetches by the cache: fetches beyond the
    /// cache size pay full random cost, the rest an amortised cost.
    pub fn cached_random_page_cost(&self, pages_fetched: f64, relation_pages: f64) -> f64 {
        let cache = self.effective_cache_pages as f64;
        if relation_pages <= cache {
            // Relation fits in cache: first touch random, re-touches cheap.
            let distinct = pages_fetched.min(relation_pages);
            let repeats = (pages_fetched - distinct).max(0.0);
            distinct * self.random_page_cost + repeats * self.seq_page_cost * 0.1
        } else {
            pages_fetched * self.random_page_cost
        }
    }
}

/// Bytes per page, mirrored from the catalog size model.
pub const PAGE_BYTES: f64 = pgdesign_catalog::sizing::PAGE_SIZE as f64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_postgres() {
        let p = CostParams::default();
        assert_eq!(p.seq_page_cost, 1.0);
        assert_eq!(p.random_page_cost, 4.0);
        assert_eq!(p.cpu_tuple_cost, 0.01);
    }

    #[test]
    fn sort_cost_is_superlinear() {
        let p = CostParams::default();
        let small = p.sort_cost(1_000.0, 16.0);
        let big = p.sort_cost(1_000_000.0, 16.0);
        assert!(big > 1000.0 * small * 0.9, "n log n growth expected");
    }

    #[test]
    fn external_sort_costs_more_than_memory_sort() {
        let p = CostParams {
            work_mem_bytes: 1024,
            ..Default::default()
        };
        let internal = CostParams::default().sort_cost(100_000.0, 100.0);
        let external = p.sort_cost(100_000.0, 100.0);
        assert!(external > internal);
    }

    #[test]
    fn hash_spill_penalised() {
        let tight = CostParams {
            work_mem_bytes: 4096,
            ..Default::default()
        };
        let roomy = CostParams::default();
        assert!(
            tight.hash_build_cost(1_000_000.0, 64.0) > roomy.hash_build_cost(1_000_000.0, 64.0)
        );
    }

    #[test]
    fn cache_dampens_repeat_fetches() {
        let p = CostParams::default();
        // 10k fetches over a 100-page relation: 100 random + 9900 cheap.
        let damped = p.cached_random_page_cost(10_000.0, 100.0);
        assert!(damped < 10_000.0 * p.random_page_cost / 2.0);
        // Relation bigger than cache: no discount.
        let full = p.cached_random_page_cost(10_000.0, 1e9);
        assert_eq!(full, 10_000.0 * p.random_page_cost);
    }

    #[test]
    fn sort_of_one_row_is_cheap() {
        let p = CostParams::default();
        assert!(p.sort_cost(1.0, 1000.0) <= p.cpu_operator_cost);
    }
}
