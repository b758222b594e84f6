//! Equi-depth histograms, the workhorse of selectivity estimation.
//!
//! PostgreSQL's `ANALYZE` stores `histogram_bounds`: `B+1` boundary values
//! splitting the non-MCV population into `B` buckets of equal row counts.
//! Range selectivities interpolate linearly within a bucket, exactly as
//! `ineq_histogram_selectivity` does. We reproduce that scheme over the
//! numeric image of values ([`crate::types::Value::numeric_image`]).

/// An equi-depth histogram over the numeric image of a column.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiDepthHistogram {
    /// `bounds.len() == buckets + 1`; `bounds[0]` = min, last = max.
    bounds: Vec<f64>,
}

impl EquiDepthHistogram {
    /// Build from already-sorted, non-NULL sample values and a target
    /// bucket count. Returns `None` when there is nothing to summarise.
    pub fn from_sorted(sorted: &[f64], buckets: usize) -> Option<Self> {
        if sorted.is_empty() || buckets == 0 {
            return None;
        }
        let b = buckets.min(sorted.len());
        let mut bounds = Vec::with_capacity(b + 1);
        for i in 0..=b {
            // Index of the i-th quantile boundary.
            let pos = (i * (sorted.len() - 1)) / b;
            bounds.push(sorted[pos]);
        }
        // Collapse is fine: repeated bounds model heavy duplicates.
        Some(EquiDepthHistogram { bounds })
    }

    /// Build directly from known `(min, max)` assuming a uniform spread —
    /// used when statistics are synthesised rather than computed.
    pub fn uniform(min: f64, max: f64, buckets: usize) -> Self {
        let b = buckets.max(1);
        let bounds = (0..=b)
            .map(|i| min + (max - min) * (i as f64) / (b as f64))
            .collect();
        EquiDepthHistogram { bounds }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Smallest summarised value.
    pub fn min(&self) -> f64 {
        self.bounds[0]
    }

    /// Largest summarised value.
    pub fn max(&self) -> f64 {
        *self.bounds.last().unwrap()
    }

    /// The boundary values (length `buckets() + 1`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Estimated fraction of rows with value `< v` (strict), by linear
    /// interpolation inside the containing bucket.
    pub fn selectivity_lt(&self, v: f64) -> f64 {
        let n = self.buckets() as f64;
        if v <= self.min() {
            return 0.0;
        }
        if v > self.max() {
            return 1.0;
        }
        // Find the bucket containing v.
        let mut lo = 0usize;
        let mut hi = self.buckets();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.bounds[mid + 1] < v {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let (b_lo, b_hi) = (self.bounds[lo], self.bounds[lo + 1]);
        let frac_in_bucket = if b_hi > b_lo {
            ((v - b_lo) / (b_hi - b_lo)).clamp(0.0, 1.0)
        } else {
            0.5
        };
        ((lo as f64 + frac_in_bucket) / n).clamp(0.0, 1.0)
    }

    /// Estimated fraction of rows with `lo <= value <= hi`.
    pub fn selectivity_range(&self, lo: Option<f64>, hi: Option<f64>) -> f64 {
        let s_lo = lo.map_or(0.0, |v| self.selectivity_lt(v));
        let s_hi = hi.map_or(1.0, |v| {
            // `<= hi` ≈ `< hi` plus a sliver for equality; the sliver is
            // folded into eq-selectivity elsewhere, so `< next(hi)` is a
            // fine approximation at histogram resolution.
            self.selectivity_lt(v) + self.point_mass(v)
        });
        (s_hi - s_lo).clamp(0.0, 1.0)
    }

    /// Crude per-point mass used to make `<=` differ from `<` at bucket
    /// resolution: one bucket spread over its width.
    fn point_mass(&self, v: f64) -> f64 {
        if v < self.min() || v > self.max() {
            return 0.0;
        }
        let span = self.max() - self.min();
        if span <= 0.0 {
            return 1.0;
        }
        // One part in (10 × buckets) — small but non-zero.
        1.0 / (10.0 * self.buckets() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_0_100() -> EquiDepthHistogram {
        EquiDepthHistogram::uniform(0.0, 100.0, 10)
    }

    #[test]
    fn uniform_histogram_interpolates_linearly() {
        let h = uniform_0_100();
        assert!((h.selectivity_lt(50.0) - 0.5).abs() < 1e-9);
        assert!((h.selectivity_lt(25.0) - 0.25).abs() < 1e-9);
        assert_eq!(h.selectivity_lt(-5.0), 0.0);
        assert_eq!(h.selectivity_lt(500.0), 1.0);
    }

    #[test]
    fn from_sorted_handles_skew() {
        // 90% of the mass at small values.
        let mut vals: Vec<f64> = (0..900).map(|i| (i % 10) as f64).collect();
        vals.extend((0..100).map(|i| 100.0 + i as f64));
        vals.sort_by(f64::total_cmp);
        let h = EquiDepthHistogram::from_sorted(&vals, 10).unwrap();
        // value < 10 covers ~90% of rows
        let s = h.selectivity_lt(10.0);
        assert!(s > 0.8, "skew not captured: {s}");
    }

    #[test]
    fn from_sorted_empty_returns_none() {
        assert!(EquiDepthHistogram::from_sorted(&[], 10).is_none());
        assert!(EquiDepthHistogram::from_sorted(&[1.0], 0).is_none());
    }

    #[test]
    fn single_value_histogram() {
        let h = EquiDepthHistogram::from_sorted(&[5.0], 4).unwrap();
        assert_eq!(h.min(), 5.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.selectivity_lt(5.0), 0.0);
        assert_eq!(h.selectivity_lt(6.0), 1.0);
    }

    #[test]
    fn range_selectivity_is_monotone_and_bounded() {
        let h = uniform_0_100();
        let r1 = h.selectivity_range(Some(10.0), Some(20.0));
        let r2 = h.selectivity_range(Some(10.0), Some(60.0));
        assert!(r1 > 0.0 && r1 < r2 && r2 <= 1.0);
        let all = h.selectivity_range(None, None);
        assert!((all - 1.0).abs() < 1e-9);
    }

    #[test]
    fn range_with_open_ends() {
        let h = uniform_0_100();
        assert!((h.selectivity_range(Some(50.0), None) - 0.5).abs() < 1e-9);
        let below = h.selectivity_range(None, Some(50.0));
        assert!((0.5..0.52).contains(&below));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn lt_selectivity_is_monotone(mut vals in proptest::collection::vec(-1e6f64..1e6, 2..200), a in -1e6f64..1e6, b in -1e6f64..1e6) {
                vals.sort_by(f64::total_cmp);
                let h = EquiDepthHistogram::from_sorted(&vals, 16).unwrap();
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                prop_assert!(h.selectivity_lt(lo) <= h.selectivity_lt(hi) + 1e-12);
            }

            #[test]
            fn selectivities_stay_in_unit_interval(mut vals in proptest::collection::vec(-1e6f64..1e6, 1..100), probe in -2e6f64..2e6) {
                vals.sort_by(f64::total_cmp);
                let h = EquiDepthHistogram::from_sorted(&vals, 8).unwrap();
                let s = h.selectivity_lt(probe);
                prop_assert!((0.0..=1.0).contains(&s));
            }
        }
    }
}
