//! 0/1 knapsack heuristics.
//!
//! COLT keeps the most profitable indexes under a storage budget every
//! epoch — an online knapsack. The greedy density heuristic is the classic
//! choice there; the exact scaled DP backs the small instances and tests.

/// One knapsack item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Profit (≥ 0).
    pub value: f64,
    /// Weight (> 0).
    pub weight: f64,
}

/// Greedy by value density. Returns the chosen item indices (ascending).
/// Classical 1/2-approximation when combined with the best single item,
/// which this implementation includes.
pub fn greedy(items: &[Item], capacity: f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..items.len())
        .filter(|&i| items[i].weight <= capacity && items[i].value > 0.0)
        .collect();
    order.sort_by(|&a, &b| {
        let da = items[a].value / items[a].weight.max(1e-12);
        let db = items[b].value / items[b].weight.max(1e-12);
        db.total_cmp(&da)
    });
    let mut chosen = Vec::new();
    let mut used = 0.0;
    let mut total = 0.0;
    for i in order {
        if used + items[i].weight <= capacity {
            used += items[i].weight;
            total += items[i].value;
            chosen.push(i);
        }
    }
    // Compare with the single best item (approximation guarantee).
    if let Some(best) = (0..items.len())
        .filter(|&i| items[i].weight <= capacity)
        .max_by(|&a, &b| items[a].value.total_cmp(&items[b].value))
    {
        if items[best].value > total {
            return vec![best];
        }
    }
    chosen.sort_unstable();
    chosen
}

/// Exact 0/1 knapsack via weight-scaled dynamic programming with `bins`
/// discrete capacity steps. Exact when weights are multiples of
/// `capacity / bins`; otherwise a conservative (weights rounded *up*)
/// approximation that never overfills the knapsack.
pub fn dp(items: &[Item], capacity: f64, bins: usize) -> Vec<usize> {
    if capacity <= 0.0 || items.is_empty() || bins == 0 {
        return Vec::new();
    }
    let unit = capacity / bins as f64;
    let w: Vec<usize> = items
        .iter()
        .map(|it| (it.weight / unit).ceil() as usize)
        .collect();
    // best[c] = (value, chosen bitset index chain)
    let mut best = vec![0.0f64; bins + 1];
    let mut take = vec![vec![false; items.len()]; bins + 1];
    for (i, item) in items.iter().enumerate() {
        if item.value <= 0.0 || w[i] > bins {
            continue;
        }
        for c in (w[i]..=bins).rev() {
            let candidate = best[c - w[i]] + item.value;
            if candidate > best[c] {
                best[c] = candidate;
                take[c] = take[c - w[i]].clone();
                take[c][i] = true;
            }
        }
    }
    let best_c = (0..=bins)
        .max_by(|&a, &b| best[a].total_cmp(&best[b]))
        .unwrap_or(0);
    (0..items.len()).filter(|&i| take[best_c][i]).collect()
}

/// Total value of a selection.
#[cfg(test)]
fn value_of(items: &[Item], chosen: &[usize]) -> f64 {
    chosen.iter().map(|&i| items[i].value).sum()
}

/// Total weight of a selection.
#[cfg(test)]
fn weight_of(items: &[Item], chosen: &[usize]) -> f64 {
    chosen.iter().map(|&i| items[i].weight).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(vw: &[(f64, f64)]) -> Vec<Item> {
        vw.iter()
            .map(|&(value, weight)| Item { value, weight })
            .collect()
    }

    #[test]
    fn greedy_prefers_density() {
        let its = items(&[(10.0, 10.0), (9.0, 3.0), (8.0, 3.0)]);
        let chosen = greedy(&its, 10.0);
        assert_eq!(chosen, vec![1, 2]);
    }

    #[test]
    fn greedy_falls_back_to_best_single_item() {
        // Density favours the small items but the big one dominates.
        let its = items(&[(100.0, 10.0), (3.0, 1.0), (3.0, 1.0)]);
        let chosen = greedy(&its, 10.0);
        assert_eq!(chosen, vec![0]);
    }

    #[test]
    fn greedy_ignores_oversized_and_worthless() {
        let its = items(&[(5.0, 100.0), (0.0, 1.0), (7.0, 2.0)]);
        let chosen = greedy(&its, 10.0);
        assert_eq!(chosen, vec![2]);
    }

    #[test]
    fn dp_is_exact_on_integral_weights() {
        let its = items(&[(6.0, 1.0), (10.0, 2.0), (12.0, 3.0)]);
        let chosen = dp(&its, 5.0, 5);
        assert_eq!(value_of(&its, &chosen), 22.0);
        assert!(weight_of(&its, &chosen) <= 5.0);
    }

    #[test]
    fn dp_never_overfills() {
        let its = items(&[(5.0, 3.3), (5.0, 3.3), (5.0, 3.3), (5.0, 3.3)]);
        let chosen = dp(&its, 10.0, 100);
        assert!(weight_of(&its, &chosen) <= 10.0 + 1e-9);
        assert!(chosen.len() <= 3);
    }

    #[test]
    fn empty_inputs() {
        assert!(greedy(&[], 10.0).is_empty());
        assert!(dp(&[], 10.0, 10).is_empty());
        let its = items(&[(5.0, 1.0)]);
        assert!(dp(&its, 0.0, 10).is_empty());
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn brute(items: &[Item], cap: f64) -> f64 {
            let n = items.len();
            let mut best = 0.0f64;
            for mask in 0u32..(1 << n) {
                let (mut v, mut w) = (0.0, 0.0);
                for i in 0..n {
                    if mask & (1 << i) != 0 {
                        v += items[i].value;
                        w += items[i].weight;
                    }
                }
                if w <= cap && v > best {
                    best = v;
                }
            }
            best
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn greedy_is_half_approx(
                vw in proptest::collection::vec((0.1f64..20.0, 0.1f64..10.0), 1..10),
                cap in 1.0f64..25.0,
            ) {
                let its = items(&vw);
                let g = value_of(&its, &greedy(&its, cap));
                let opt = brute(&its, cap);
                prop_assert!(weight_of(&its, &greedy(&its, cap)) <= cap + 1e-9);
                prop_assert!(g >= opt / 2.0 - 1e-9, "greedy {g} vs opt {opt}");
            }

            #[test]
            fn dp_dominates_greedy_on_integer_weights(
                vw in proptest::collection::vec((0.1f64..20.0, 1.0f64..6.0), 1..10),
            ) {
                // Integral weights, capacity 12 with 12 bins → exact DP.
                let its: Vec<Item> = vw.iter()
                    .map(|&(v, w)| Item { value: v, weight: w.floor().max(1.0) })
                    .collect();
                let d = value_of(&its, &dp(&its, 12.0, 12));
                let g = value_of(&its, &greedy(&its, 12.0));
                let opt = brute(&its, 12.0);
                prop_assert!(d >= g - 1e-9);
                prop_assert!((d - opt).abs() < 1e-6, "dp {d} vs opt {opt}");
            }
        }
    }
}
