//! Table and column statistics, the `pg_statistic` analogue.
//!
//! Statistics are either computed from generated data
//! ([`crate::datagen::analyze`]) or synthesised directly for large logical
//! row counts ([`ColumnStats::synthetic_uniform`] and friends) — mirroring
//! how the paper's tool piggybacks on the DBMS's `ANALYZE` output.

use crate::histogram::EquiDepthHistogram;

/// Statistics for one column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Number of distinct non-NULL values.
    pub ndv: f64,
    /// Fraction of rows that are NULL.
    pub null_frac: f64,
    /// Minimum numeric image among non-NULL values.
    pub min: f64,
    /// Maximum numeric image among non-NULL values.
    pub max: f64,
    /// Equi-depth histogram over non-MCV, non-NULL values.
    pub histogram: Option<EquiDepthHistogram>,
    /// Most common values with their frequencies (fraction of all rows).
    pub mcv: Vec<(f64, f64)>,
    /// Average byte width of stored values (may differ from the type's
    /// nominal width for variable-length data).
    pub avg_width: f64,
    /// Physical/logical order correlation in `[-1, 1]`; `1.0` means the
    /// column is stored in sorted order (clustered), `0.0` random.
    /// Drives the fraction of random vs sequential page fetches in index
    /// scans, like `pg_stats.correlation`.
    pub correlation: f64,
}

impl ColumnStats {
    /// Uniform synthetic stats on the integer domain `[min, max]`.
    pub fn synthetic_uniform(min: f64, max: f64, ndv: f64, avg_width: f64) -> Self {
        ColumnStats {
            ndv: ndv.max(1.0),
            null_frac: 0.0,
            min,
            max,
            histogram: Some(EquiDepthHistogram::uniform(min, max, 100)),
            mcv: Vec::new(),
            avg_width,
            correlation: 0.0,
        }
    }

    /// Synthetic stats for a key column: distinct, clustered, uniform.
    #[cfg(test)]
    pub fn synthetic_key(rows: u64, avg_width: f64) -> Self {
        let mut s = Self::synthetic_uniform(0.0, rows.max(1) as f64 - 1.0, rows as f64, avg_width);
        s.correlation = 1.0;
        s
    }

    /// Synthetic stats for a categorical column with `k` equally likely
    /// categories.
    #[cfg(test)]
    pub fn synthetic_categorical(k: u32, avg_width: f64) -> Self {
        let k = k.max(1);
        ColumnStats {
            ndv: k as f64,
            null_frac: 0.0,
            min: 0.0,
            max: (k - 1) as f64,
            histogram: Some(EquiDepthHistogram::uniform(0.0, (k - 1) as f64, k as usize)),
            mcv: (0..k.min(10)).map(|i| (i as f64, 1.0 / k as f64)).collect(),
            avg_width,
            correlation: 0.0,
        }
    }

    /// Estimated selectivity of `column = v`.
    ///
    /// Follows PostgreSQL's `eqsel`: exact frequency for MCVs, otherwise
    /// the residual mass divided by the residual distinct count.
    pub fn eq_selectivity(&self, v: f64) -> f64 {
        if let Some((_, f)) = self
            .mcv
            .iter()
            .find(|(val, _)| (val - v).abs() < f64::EPSILON.max(v.abs() * 1e-12))
        {
            return *f;
        }
        let mcv_mass: f64 = self.mcv.iter().map(|(_, f)| f).sum();
        let residual_ndv = (self.ndv - self.mcv.len() as f64).max(1.0);
        let residual_mass = (1.0 - self.null_frac - mcv_mass).max(0.0);
        (residual_mass / residual_ndv).clamp(0.0, 1.0)
    }

    /// Estimated selectivity of a (closed) range predicate over the column.
    pub fn range_selectivity(&self, lo: Option<f64>, hi: Option<f64>) -> f64 {
        let base = match &self.histogram {
            Some(h) => h.selectivity_range(lo, hi),
            None => {
                // Fall back to uniform interpolation on [min, max].
                let span = (self.max - self.min).max(f64::EPSILON);
                let l = lo.unwrap_or(self.min).clamp(self.min, self.max);
                let h = hi.unwrap_or(self.max).clamp(self.min, self.max);
                ((h - l) / span).clamp(0.0, 1.0)
            }
        };
        // Add MCV mass that falls inside the range (histogram excludes it
        // only approximately in our construction, so blend conservatively).
        (base * (1.0 - self.null_frac)).clamp(0.0, 1.0)
    }
}

/// Statistics for one table.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Logical row count (may far exceed any generated sample).
    pub row_count: u64,
    /// Per-column statistics, aligned with the table's column ordinals.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Statistics for the column at `ordinal`.
    pub fn column(&self, ordinal: u16) -> &ColumnStats {
        &self.columns[ordinal as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_selectivity_uses_mcv_when_available() {
        let mut s = ColumnStats::synthetic_uniform(0.0, 99.0, 100.0, 4.0);
        s.mcv = vec![(7.0, 0.30)];
        assert!((s.eq_selectivity(7.0) - 0.30).abs() < 1e-12);
        // Non-MCV: residual mass 0.7 over 99 residual values.
        let resid = s.eq_selectivity(8.0);
        assert!((resid - 0.7 / 99.0).abs() < 1e-9);
    }

    #[test]
    fn eq_selectivity_without_mcv_is_one_over_ndv() {
        let s = ColumnStats::synthetic_uniform(0.0, 999.0, 1000.0, 4.0);
        assert!((s.eq_selectivity(123.0) - 0.001).abs() < 1e-9);
    }

    #[test]
    fn range_selectivity_uniform() {
        let s = ColumnStats::synthetic_uniform(0.0, 100.0, 100.0, 4.0);
        let sel = s.range_selectivity(Some(25.0), Some(75.0));
        assert!((sel - 0.5).abs() < 0.02, "sel = {sel}");
    }

    #[test]
    fn range_selectivity_respects_null_fraction() {
        let mut s = ColumnStats::synthetic_uniform(0.0, 100.0, 100.0, 4.0);
        s.null_frac = 0.5;
        let sel = s.range_selectivity(None, None);
        assert!((sel - 0.5).abs() < 1e-9);
    }

    #[test]
    fn key_stats_are_clustered_and_distinct() {
        let s = ColumnStats::synthetic_key(10_000, 8.0);
        assert_eq!(s.correlation, 1.0);
        assert!((s.ndv - 10_000.0).abs() < 1e-9);
        assert!((s.eq_selectivity(42.0) - 1e-4).abs() < 1e-8);
    }

    #[test]
    fn categorical_stats_spread_mass_evenly() {
        let s = ColumnStats::synthetic_categorical(4, 1.0);
        assert!((s.eq_selectivity(2.0) - 0.25).abs() < 1e-9);
    }
}
