//! Synthetic data generation and the `ANALYZE` analogue.
//!
//! The paper demonstrates on SDSS, a real scientific dataset we cannot
//! ship. The substitution is to *generate* data with the
//! distributional features that matter to a physical designer — skew,
//! correlation-with-storage-order, wide domains, categorical columns — and
//! then compute statistics from the generated rows exactly as `ANALYZE`
//! would, so selectivity estimation downstream is grounded in actual data.

use crate::histogram::EquiDepthHistogram;
use crate::stats::{ColumnStats, TableStats};
use crate::types::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distribution of one generated column.
#[derive(Debug, Clone)]
pub enum ColumnGen {
    /// Dense sequential values `0..rows` (primary keys), clustered.
    Sequential,
    /// Uniform integers in `[lo, hi]`.
    UniformInt {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
    /// Uniform floats in `[lo, hi)`.
    UniformFloat {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Zipf-distributed category ids over `0..n` with exponent `s`.
    Zipf {
        /// Number of distinct values.
        n: u64,
        /// Skew exponent (1.0 = classic Zipf; higher = more skew).
        s: f64,
    },
    /// Approximately normal floats via the Irwin–Hall sum of 12 uniforms.
    Normal {
        /// Mean of the distribution.
        mean: f64,
        /// Standard deviation.
        std: f64,
    },
    /// Uniform categorical text from a fixed vocabulary.
    Categorical {
        /// The category labels.
        labels: Vec<String>,
    },
    /// Foreign key into a table of `parent_rows` rows, uniform.
    ForeignKey {
        /// Cardinality of the referenced table.
        parent_rows: u64,
    },
    /// Inject NULLs with probability `frac` into an inner generator.
    Nullable {
        /// Probability of NULL per row.
        frac: f64,
        /// Generator for non-NULL values.
        inner: Box<ColumnGen>,
    },
}

impl ColumnGen {
    fn generate(&self, row: u64, rng: &mut StdRng) -> Value {
        match self {
            ColumnGen::Sequential => Value::Int(row as i64),
            ColumnGen::UniformInt { lo, hi } => Value::Int(rng.random_range(*lo..=*hi)),
            ColumnGen::UniformFloat { lo, hi } => Value::Float(rng.random_range(*lo..*hi)),
            ColumnGen::Zipf { n, s } => Value::Int(zipf_sample(*n, *s, rng) as i64),
            ColumnGen::Normal { mean, std } => {
                let sum: f64 = (0..12).map(|_| rng.random_range(0.0..1.0)).sum();
                Value::Float(mean + (sum - 6.0) * std)
            }
            ColumnGen::Categorical { labels } => {
                let i = rng.random_range(0..labels.len());
                Value::Str(labels[i].clone())
            }
            ColumnGen::ForeignKey { parent_rows } => {
                Value::Int(rng.random_range(0..*parent_rows) as i64)
            }
            ColumnGen::Nullable { frac, inner } => {
                if rng.random_range(0.0..1.0) < *frac {
                    Value::Null
                } else {
                    inner.generate(row, rng)
                }
            }
        }
    }
}

/// Inverse-CDF Zipf sampling over `0..n` (rank 1 is value 0).
///
/// Uses the rejection-free approximation of Gray et al. ("Quickly
/// generating billion-record synthetic databases"): draw u ∈ (0,1) and
/// invert the approximate harmonic CDF.
fn zipf_sample(n: u64, s: f64, rng: &mut StdRng) -> u64 {
    let n = n.max(1);
    if s <= 0.0 {
        return rng.random_range(0..n);
    }
    // Approximate generalized harmonic number H_{n,s} via the integral.
    let h = |x: f64| -> f64 {
        if (s - 1.0).abs() < 1e-9 {
            x.ln() + 0.577
        } else {
            (x.powf(1.0 - s) - 1.0) / (1.0 - s) + 1.0
        }
    };
    let hn = h(n as f64);
    let u = rng.random_range(f64::MIN_POSITIVE..1.0);
    let target = u * hn;
    // Invert h.
    let rank = if (s - 1.0).abs() < 1e-9 {
        (target - 0.577).exp()
    } else {
        ((target - 1.0) * (1.0 - s) + 1.0).powf(1.0 / (1.0 - s))
    };
    (rank.max(1.0).min(n as f64) as u64) - 1
}

/// Column-oriented generated table sample.
#[derive(Debug, Clone)]
pub struct TableData {
    /// One vector of values per column, all the same length.
    pub columns: Vec<Vec<Value>>,
}

impl TableData {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }
}

/// Generate `rows` rows from per-column generators with a fixed seed.
pub fn generate(specs: &[ColumnGen], rows: u64, seed: u64) -> TableData {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut columns: Vec<Vec<Value>> = specs
        .iter()
        .map(|_| Vec::with_capacity(rows as usize))
        .collect();
    for row in 0..rows {
        for (c, spec) in specs.iter().enumerate() {
            columns[c].push(spec.generate(row, &mut rng));
        }
    }
    TableData { columns }
}

/// Number of histogram buckets `analyze` builds (PostgreSQL default
/// `default_statistics_target`).
pub const STATS_TARGET: usize = 100;
/// Number of most-common values retained.
pub const MCV_TARGET: usize = 10;

/// Compute [`TableStats`] from a data sample, scaled to `logical_rows`.
///
/// This is the `ANALYZE` analogue: NDV is estimated from the sample with
/// the Haas–Stokes style scale-up, the histogram is equi-depth over the
/// sample, MCVs are the most frequent sample values, and correlation is the
/// rank correlation between storage order and value order.
pub fn analyze(data: &TableData, logical_rows: u64) -> TableStats {
    let sample_rows = data.rows() as f64;
    let scale = if sample_rows > 0.0 {
        logical_rows as f64 / sample_rows
    } else {
        1.0
    };
    let columns = data
        .columns
        .iter()
        .map(|col| analyze_column(col, scale, logical_rows))
        .collect();
    TableStats {
        row_count: logical_rows,
        columns,
    }
}

fn analyze_column(col: &[Value], scale: f64, logical_rows: u64) -> ColumnStats {
    let n = col.len();
    if n == 0 {
        return ColumnStats::synthetic_uniform(0.0, 0.0, 1.0, 4.0);
    }
    let nulls = col.iter().filter(|v| v.is_null()).count();
    let null_frac = nulls as f64 / n as f64;

    let mut images: Vec<f64> = col.iter().filter_map(Value::numeric_image).collect();
    images.sort_by(f64::total_cmp);

    // Distinct count on the sample.
    let mut distinct = 0usize;
    let mut once = 0usize;
    {
        let mut i = 0;
        while i < images.len() {
            let mut j = i + 1;
            while j < images.len() && images[j] == images[i] {
                j += 1;
            }
            distinct += 1;
            if j - i == 1 {
                once += 1;
            }
            i = j;
        }
    }

    // Scale NDV: if (almost) all sample values are unique, assume the
    // column is unique; if duplicates dominate, assume NDV is saturated at
    // the sample's distinct count (Haas–Stokes flavoured heuristic, same
    // spirit as PostgreSQL's `estimate_ndistinct`).
    let ndv = if distinct == 0 {
        1.0
    } else if once as f64 > 0.9 * images.len() as f64 {
        (logical_rows as f64 * (1.0 - null_frac)).max(1.0)
    } else if once == 0 {
        distinct as f64
    } else {
        // Duj1 estimator: n_distinct = n*d / (n - f1 + f1*n/N)
        let nn = images.len() as f64;
        let d = distinct as f64;
        let f1 = once as f64;
        let big_n = (logical_rows as f64 * (1.0 - null_frac)).max(nn);
        ((nn * d) / (nn - f1 + f1 * nn / big_n)).clamp(d, big_n)
    };

    // MCVs from sample frequencies.
    let mut freq: Vec<(f64, usize)> = Vec::new();
    {
        let mut i = 0;
        while i < images.len() {
            let mut j = i + 1;
            while j < images.len() && images[j] == images[i] {
                j += 1;
            }
            freq.push((images[i], j - i));
            i = j;
        }
    }
    freq.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    let mcv: Vec<(f64, f64)> = freq
        .iter()
        .take(MCV_TARGET)
        .filter(|(_, c)| *c > 1 && (*c as f64) / n as f64 > 1.5 / distinct.max(1) as f64)
        .map(|(v, c)| (*v, *c as f64 / n as f64))
        .collect();

    let histogram = EquiDepthHistogram::from_sorted(&images, STATS_TARGET);

    // Correlation between storage position and value rank (Pearson on
    // position vs value image; adequate for the cost model's needs).
    let correlation = storage_correlation(col);

    let avg_width = 8.0 * scale.clamp(0.0, 1.0) + 4.0; // coarse default; callers
                                                       // with schema knowledge overwrite via `with_schema_widths`.

    ColumnStats {
        ndv,
        null_frac,
        min: images.first().copied().unwrap_or(0.0),
        max: images.last().copied().unwrap_or(0.0),
        histogram,
        mcv,
        avg_width,
        correlation,
    }
}

/// Pearson correlation between row position and value image.
fn storage_correlation(col: &[Value]) -> f64 {
    let pairs: Vec<(f64, f64)> = col
        .iter()
        .enumerate()
        .filter_map(|(i, v)| v.numeric_image().map(|x| (i as f64, x)))
        .collect();
    let n = pairs.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mean_x = pairs.iter().map(|(x, _)| x).sum::<f64>() / n;
    let mean_y = pairs.iter().map(|(_, y)| y).sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in &pairs {
        sxy += (x - mean_x) * (y - mean_y);
        sxx += (x - mean_x) * (x - mean_x);
        syy += (y - mean_y) * (y - mean_y);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 0.0;
    }
    (sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_per_seed() {
        let specs = vec![ColumnGen::UniformInt { lo: 0, hi: 100 }];
        let a = generate(&specs, 50, 7);
        let b = generate(&specs, 50, 7);
        let c = generate(&specs, 50, 8);
        assert_eq!(a.columns, b.columns);
        assert_ne!(a.columns, c.columns);
    }

    #[test]
    fn sequential_is_clustered() {
        let data = generate(&[ColumnGen::Sequential], 500, 1);
        let stats = analyze(&data, 500);
        assert!(stats.columns[0].correlation > 0.99);
        assert!(stats.columns[0].ndv >= 499.0);
    }

    #[test]
    fn zipf_is_skewed() {
        let data = generate(&[ColumnGen::Zipf { n: 1000, s: 1.2 }], 5000, 2);
        let stats = analyze(&data, 5000);
        let s = &stats.columns[0];
        // Rank-0 value should be a most-common value with large frequency.
        assert!(!s.mcv.is_empty(), "zipf should produce MCVs");
        assert!(s.mcv[0].1 > 0.05, "top MCV frequency {}", s.mcv[0].1);
    }

    #[test]
    fn zipf_zero_skew_is_uniform() {
        let data = generate(&[ColumnGen::Zipf { n: 10, s: 0.0 }], 2000, 3);
        let stats = analyze(&data, 2000);
        assert!(stats.columns[0].ndv >= 9.0);
    }

    #[test]
    fn nullable_produces_null_fraction() {
        let g = ColumnGen::Nullable {
            frac: 0.3,
            inner: Box::new(ColumnGen::UniformInt { lo: 0, hi: 9 }),
        };
        let data = generate(&[g], 2000, 4);
        let stats = analyze(&data, 2000);
        let nf = stats.columns[0].null_frac;
        assert!((nf - 0.3).abs() < 0.05, "null_frac {nf}");
    }

    #[test]
    fn analyze_scales_ndv_for_unique_columns() {
        // A 1k sample of unique values standing in for a 10M-row table.
        let data = generate(&[ColumnGen::Sequential], 1000, 5);
        let stats = analyze(&data, 10_000_000);
        assert!(stats.columns[0].ndv > 1_000_000.0);
    }

    #[test]
    fn analyze_saturates_ndv_for_small_domains() {
        let data = generate(&[ColumnGen::UniformInt { lo: 0, hi: 4 }], 2000, 6);
        let stats = analyze(&data, 10_000_000);
        assert!(stats.columns[0].ndv <= 6.0);
    }

    #[test]
    fn histogram_from_normal_data_is_centered() {
        let data = generate(
            &[ColumnGen::Normal {
                mean: 100.0,
                std: 10.0,
            }],
            5000,
            7,
        );
        let stats = analyze(&data, 5000);
        let h = stats.columns[0].histogram.as_ref().unwrap();
        let below_mean = h.selectivity_lt(100.0);
        assert!((below_mean - 0.5).abs() < 0.05, "median off: {below_mean}");
    }

    #[test]
    fn foreign_key_spans_parent_domain() {
        let data = generate(&[ColumnGen::ForeignKey { parent_rows: 100 }], 5000, 8);
        let stats = analyze(&data, 5000);
        let s = &stats.columns[0];
        assert!(s.min >= 0.0 && s.max <= 99.0);
        assert!(s.ndv >= 90.0);
    }

    #[test]
    fn categorical_labels_hash_to_distinct_images() {
        let g = ColumnGen::Categorical {
            labels: vec!["star".into(), "galaxy".into(), "qso".into()],
        };
        let data = generate(&[g], 1000, 9);
        let stats = analyze(&data, 1000);
        assert!((stats.columns[0].ndv - 3.0).abs() < 0.5);
    }

    #[test]
    fn empty_generation() {
        let data = generate(&[ColumnGen::Sequential], 0, 1);
        assert_eq!(data.rows(), 0);
        let stats = analyze(&data, 0);
        assert_eq!(stats.row_count, 0);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[test]
            fn analyze_invariants(rows in 1u64..400, seed in 0u64..100) {
                let specs = vec![
                    ColumnGen::Sequential,
                    ColumnGen::Zipf { n: 50, s: 1.0 },
                    ColumnGen::Nullable { frac: 0.2, inner: Box::new(ColumnGen::UniformFloat { lo: -1.0, hi: 1.0 }) },
                ];
                let data = generate(&specs, rows, seed);
                let stats = analyze(&data, rows * 100);
                for c in &stats.columns {
                    prop_assert!(c.ndv >= 1.0);
                    prop_assert!((0.0..=1.0).contains(&c.null_frac));
                    prop_assert!(c.min <= c.max);
                    prop_assert!((-1.0..=1.0).contains(&c.correlation));
                    let mcv_mass: f64 = c.mcv.iter().map(|(_, f)| f).sum();
                    prop_assert!(mcv_mass <= 1.0 + 1e-9);
                }
            }
        }
    }
}
